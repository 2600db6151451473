// Quickstart: learn an individually fair representation of a tiny dataset
// and show that records which agree on qualifications — and differ only on
// a protected attribute — end up with nearly identical representations.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	// Six loan applicants: [income, debt ratio, group]. Applicants 0/1,
	// 2/3 and 4/5 are identical on the first two (task-relevant)
	// attributes and differ only on the protected third one.
	x := repro.MatrixFromRows([][]float64{
		{-1.2, -1.0, 0},
		{-1.2, -1.0, 1},
		{0.0, 0.1, 0},
		{0.0, 0.1, 1},
		{1.2, 1.0, 0},
		{1.2, 1.0, 1},
	})

	model, err := repro.Fit(x, repro.Options{
		K:         3,            // latent prototypes
		Lambda:    1,            // reconstruction weight
		Mu:        10,           // individual-fairness weight
		Protected: []int{2},     // the group column
		Init:      repro.IFairB, // near-zero weight on protected attributes
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}

	xt, err := repro.Transform(model, x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("original -> fair representation")
	for i := 0; i < x.Rows(); i++ {
		fmt.Printf("  %v -> %.3f\n", x.Row(i), xt.Row(i))
	}

	fmt.Println("\ndistance between twins (same qualifications, different group):")
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}} {
		d := dist(xt.Row(pair[0]), xt.Row(pair[1]))
		fmt.Printf("  records %d and %d: %.6f\n", pair[0], pair[1], d)
	}
	fmt.Println("\ndistance between different qualification levels:")
	fmt.Printf("  records 0 and 4: %.6f\n", dist(xt.Row(0), xt.Row(4)))
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
