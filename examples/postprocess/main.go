// Post-processing: enforce a statistical-parity quota on top of
// individually fair rankings, the Fig. 5 scenario. iFair representations
// provide individually fair scores; FA*IR then guarantees any required
// share of protected candidates at every prefix of the ranking.
//
// Run with:
//
//	go run ./examples/postprocess
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	ds := repro.Airbnb(repro.RankingConfig{Seed: 21})

	model, err := repro.Fit(ds.X, repro.Options{
		K: 20, Lambda: 1, Mu: 1,
		Protected: ds.ProtectedCols,
		Init:      repro.IFairB,
		Fairness:  repro.SampledFairness,
		Seed:      21,
	})
	if err != nil {
		log.Fatal(err)
	}
	fairX, err := repro.Transform(model, ds.X)
	if err != nil {
		log.Fatal(err)
	}
	reg, err := repro.FitLinear(fairX, ds.Score, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	scores := reg.Predict(fairX)

	q := ds.Queries[0]
	local := make([]float64, len(q.Rows))
	prot := make([]bool, len(q.Rows))
	for i, r := range q.Rows {
		local[i] = scores[r]
		prot[i] = ds.Protected[r]
	}

	fmt.Printf("query %q (%d listings, %d protected)\n\n", q.Name, len(q.Rows), count(prot))
	fmt.Printf("%4s | %-22s", "rank", "iFair score order")
	for _, p := range []float64{0.3, 0.6, 0.9} {
		fmt.Printf(" | %-22s", fmt.Sprintf("FA*IR p=%.1f", p))
	}
	fmt.Println()

	base := repro.RankDescending(local)
	columns := [][]int{base}
	for _, p := range []float64{0.3, 0.6, 0.9} {
		rr, err := repro.FairReRank(local, prot, 0, p, 0.1)
		if err != nil {
			log.Fatal(err)
		}
		columns = append(columns, rr.Ranking)
	}
	for r := 0; r < 10 && r < len(q.Rows); r++ {
		fmt.Printf("%4d", r+1)
		for _, col := range columns {
			cand := col[r]
			tag := " "
			if prot[cand] {
				tag = "*"
			}
			fmt.Printf(" | cand %-3d %s score %5.2f", cand, tag, local[cand])
		}
		fmt.Println()
	}
	fmt.Println("\n(* = protected host; raising p pulls more protected listings into the top ranks")
	fmt.Println(" while within-group score order is always preserved)")
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
