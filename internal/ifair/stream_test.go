package ifair

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/mat"
	"repro/internal/stats"
)

// streamTestStore ingests a deterministic clean CSV (two numeric
// features, one protected categorical, a boolean label) into a temp
// shard store and opens it.
func streamTestStore(t *testing.T, rows, shardRows int) *ingest.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var sb strings.Builder
	sb.WriteString("x1,x2,group,label\n")
	for i := 0; i < rows; i++ {
		group := "1"
		if rng.Intn(2) == 1 {
			group = "0"
		}
		fmt.Fprintf(&sb, "%.6f,%.6f,%s,%t\n", rng.NormFloat64(), 10+5*rng.NormFloat64(), group, rng.Intn(2) == 1)
	}
	dir := t.TempDir()
	schema := ingest.Schema{
		Features: []ingest.Column{
			{Name: "x1"},
			{Name: "x2"},
			{Name: "group", Protected: true},
		},
		Outcome: "label",
	}
	if _, err := ingest.Run(context.Background(), strings.NewReader(sb.String()), ingest.Config{
		Dir: dir, Schema: schema, ShardRows: shardRows,
	}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	st, err := ingest.OpenStream(dir, nil)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	return st
}

// TestFitStreamMatchesInMemoryFit is the acceptance bar for the streaming
// path: fitting from the shard store (shard-sweep fill, CRC verification
// per shard) must land on the same objective value as an in-memory fit
// over the same rows and the same standardisation transform, to 1e-9 on
// clean data — the streaming machinery introduces zero numerical drift. The standardisation moments
// themselves are checked against the batch helpers in internal/ingest's
// TestIngestClean.
func TestFitStreamMatchesInMemoryFit(t *testing.T) {
	st := streamTestStore(t, 90, 16)
	opts := Options{
		K: 3, Lambda: 1, Mu: 1,
		Protected: st.ProtectedCols(),
		Fairness:  NeighborFairness,
		Seed:      7,
	}

	model, x, err := FitStreamContext(context.Background(), st, opts)
	if err != nil {
		t.Fatalf("FitStreamContext: %v", err)
	}

	full := mat.NewDense(st.Rows(), st.Cols())
	if err := st.Sweep(func(r int, row []float64) error {
		copy(full.Row(r), row)
		return nil
	}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	rows := make([][]float64, full.Rows())
	for i := range rows {
		rows[i] = full.Row(i) // aliases full's storage
	}
	means, stds := st.MeanStd()
	for _, r := range rows {
		stats.ApplyStandardize(r, r, means, stds)
	}
	ref, err := Fit(full, opts)
	if err != nil {
		t.Fatalf("in-memory Fit: %v", err)
	}

	// Same transform, different plumbing: the matrices are bit-identical.
	if x.Rows() != full.Rows() || x.Cols() != full.Cols() {
		t.Fatalf("matrix shape %dx%d, want %dx%d", x.Rows(), x.Cols(), full.Rows(), full.Cols())
	}
	for i, v := range x.Data() {
		if v != full.Data()[i] {
			t.Fatalf("standardised cell %d: stream %v, in-memory %v", i, v, full.Data()[i])
		}
	}
	if model.Loss == 0 || ref.Loss == 0 {
		t.Fatalf("degenerate losses: stream %v, ref %v", model.Loss, ref.Loss)
	}
	if diff := math.Abs(model.Loss - ref.Loss); diff > 1e-9*(1+math.Abs(ref.Loss)) {
		t.Fatalf("streaming loss %v != in-memory loss %v (diff %g)", model.Loss, ref.Loss, diff)
	}
}

// TestFitStreamEmptyStore: a store with zero good rows must surface
// ErrNoData, not a panic or a degenerate fit.
func TestFitStreamEmptyStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := ingest.Run(context.Background(), strings.NewReader("a,b\n"), ingest.Config{Dir: dir}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	st, err := ingest.OpenStream(dir, nil)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	if _, _, err := FitStreamContext(context.Background(), st, Options{K: 2, Lambda: 1}); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

// TestNeighborFairnessAllColumnsProtected: with every column protected
// the non-protected subspace has no columns, so all records are at
// distance 0 from each other. FitStreamContext and FitContext must still fit,
// to the same model, and each record's partners must come from the
// lowest indices other than its own — never a self-pair.
func TestNeighborFairnessAllColumnsProtected(t *testing.T) {
	st := streamTestStore(t, 40, 16)
	all := make([]int, st.Cols())
	for j := range all {
		all[j] = j
	}
	opts := Options{
		K: 2, Lambda: 1, Mu: 1, Protected: all,
		Fairness: NeighborFairness, PairSamples: 3, NeighborK: 5,
		MaxIterations: 20, Seed: 3,
	}
	streamed, x, err := FitStreamContext(context.Background(), st, opts)
	if err != nil {
		t.Fatalf("FitStreamContext: %v", err)
	}
	inMemory, err := FitContext(context.Background(), x, opts)
	if err != nil {
		t.Fatalf("FitContext: %v", err)
	}
	if streamed.Loss != inMemory.Loss {
		t.Fatalf("streamed loss %v != in-memory loss %v", streamed.Loss, inMemory.Loss)
	}

	if err := opts.fill(x.Rows(), x.Cols()); err != nil {
		t.Fatal(err)
	}
	seen := make(map[pair]bool)
	for _, pr := range buildPairs(x, opts, rand.New(rand.NewSource(1))) {
		if pr.i == pr.j {
			t.Fatalf("self-pair %v", pr)
		}
		// The pool is the NeighborK lowest indices other than pr.i.
		if limit := opts.NeighborK; pr.j > limit || (pr.j == limit && pr.i > limit) {
			t.Fatalf("pair %v: %d is not among %d's %d lowest-index neighbours", pr, pr.j, pr.i, opts.NeighborK)
		}
		if seen[pr] {
			t.Fatalf("duplicate pair %v", pr)
		}
		seen[pr] = true
	}
	if len(seen) != x.Rows()*opts.PairSamples {
		t.Fatalf("%d pairs, want %d", len(seen), x.Rows()*opts.PairSamples)
	}
}
