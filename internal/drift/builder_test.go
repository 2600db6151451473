package drift

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ingest"
	"repro/internal/mat"
	"repro/internal/stats"
)

// The builder must plug straight into the ingest pipeline's observer slot.
var _ ingest.RowObserver = (*ProfileBuilder)(nil)

// TestProfileBuilderMatchesBatchProfile: when the reservoirs hold every
// row, the streaming builder and the batch NewProfile describe the same
// distribution — identical reference sample and bin structure, moments to
// streaming precision.
func TestProfileBuilderMatchesBatchProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 120, 3
	raw := make([][]float64, m)
	for i := range raw {
		raw[i] = make([]float64, n)
		for j := range raw[i] {
			raw[i][j] = 5*rng.NormFloat64() + float64(j)
		}
	}
	// Batch path: standardise a copy, profile it keeping all rows.
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		cols[j] = make([]float64, m)
		for i := range raw {
			cols[j][i] = raw[i][j]
		}
	}
	means := make([]float64, n)
	stds := make([]float64, n)
	for j := range cols {
		means[j] = stats.Mean(cols[j])
		stds[j] = stats.StdDev(cols[j])
	}
	std := make([][]float64, m)
	for i := range raw {
		std[i] = append([]float64(nil), raw[i]...)
	}
	for _, r := range std {
		stats.ApplyStandardize(r, r, means, stds)
	}
	want := NewProfile(mat.FromRows(std), 0, m, 9)

	b := NewProfileBuilder(0, m, 9)
	for _, row := range raw {
		b.ObserveRow(row)
	}
	if b.rows != m {
		t.Fatalf("observed rows = %d, want %d", b.rows, m)
	}
	got, err := b.Build(means, stds)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	if !reflect.DeepEqual(got.Reference, want.Reference) {
		t.Fatal("reference samples differ")
	}
	if !reflect.DeepEqual(got.Baseline.Edges, want.Baseline.Edges) {
		t.Fatal("quantile edges differ")
	}
	if !reflect.DeepEqual(got.Baseline.Expect, want.Baseline.Expect) {
		t.Fatal("expected proportions differ")
	}
	if got.Baseline.Rows != want.Baseline.Rows || got.Baseline.Dims != want.Baseline.Dims {
		t.Fatalf("shape %d×%d, want %d×%d", got.Baseline.Rows, got.Baseline.Dims, want.Baseline.Rows, want.Baseline.Dims)
	}
	for j := 0; j < n; j++ {
		if math.Abs(got.Baseline.Mean[j]-want.Baseline.Mean[j]) > 1e-9 {
			t.Fatalf("mean[%d] = %v, want %v", j, got.Baseline.Mean[j], want.Baseline.Mean[j])
		}
		if math.Abs(got.Baseline.Std[j]-want.Baseline.Std[j]) > 1e-9 {
			t.Fatalf("std[%d] = %v, want %v", j, got.Baseline.Std[j], want.Baseline.Std[j])
		}
	}
}

// TestProfileBuilderDeterministicAndBounded: same rows, same seed → the
// same profile; the reservoirs stay at their caps however many rows flow
// through; the emitted profile passes validation round-trip.
func TestProfileBuilderDeterministicAndBounded(t *testing.T) {
	build := func() *Profile {
		rng := rand.New(rand.NewSource(44))
		b := NewProfileBuilder(8, 16, 5)
		row := make([]float64, 2)
		for i := 0; i < 20000; i++ {
			row[0] = rng.NormFloat64()
			row[1] = rng.Float64()
			b.ObserveRow(row) // reused slice: the builder must copy
		}
		p, err := b.Build([]float64{0, 0}, []float64{1, 1})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return p
	}
	p := build()
	if len(p.Reference) != 16 {
		t.Fatalf("reference holds %d rows, want 16", len(p.Reference))
	}
	if p.Baseline.Rows != 20000 {
		t.Fatalf("baseline rows %d", p.Baseline.Rows)
	}
	for j, edges := range p.Baseline.Edges {
		if len(edges) > 7 {
			t.Fatalf("feature %d has %d edges for 8 bins", j, len(edges))
		}
	}
	if !reflect.DeepEqual(p, build()) {
		t.Fatal("same input and seed produced different profiles")
	}
	if err := p.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestProfileBuilderErrors(t *testing.T) {
	b := NewProfileBuilder(0, 0, 1)
	if _, err := b.Build(nil, nil); err == nil {
		t.Fatal("Build on zero rows succeeded")
	}
	b.ObserveRow([]float64{1, 2})
	if _, err := b.Build([]float64{0}, []float64{1}); err == nil {
		t.Fatal("Build with mismatched transform width succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width change did not panic")
		}
	}()
	b.ObserveRow([]float64{1})
}
