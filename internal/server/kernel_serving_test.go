package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestBatcherStagingZeroAlloc is the allocation regression test for the
// flush path: with callers supplying destinations, one staged flush —
// input copy, fused kernel transform, result delivery — must not touch
// the allocator in steady state.
func TestBatcherStagingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	entry := testEntry(4, 6)
	if _, err := entry.Kernel(); err != nil { // compile outside the measured loop
		t.Fatal(err)
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond, Workers: 1})
	defer b.Close()

	const rows = 8
	ctx := context.Background()
	job := flushJob{key: entry.Key(), entry: entry}
	outs := make([]chan error, rows)
	for i := range outs {
		outs[i] = make(chan error, 1)
		row := make([]float64, 6)
		for j := range row {
			row[j] = float64(i + j)
		}
		job.rows = append(job.rows, pendingRow{ctx: ctx, row: row, dst: make([]float64, 6), out: outs[i]})
	}

	run := func() {
		b.runJob(job)
		for i, out := range outs {
			if err := <-out; err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
		}
	}
	run() // warm the staging arena and scratch pool
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("batcher flush allocates %v/op, want 0", n)
	}
}

// TestPooledScratchIsolationAcrossModelVersions hammers two model
// versions concurrently through the batcher (run under -race). Each
// version's entry owns its compiled kernel and scratch pool, so no
// pooled buffer can carry one version's state into the other's results:
// every output must match that version's own reference transform
// bitwise.
func TestPooledScratchIsolationAcrossModelVersions(t *testing.T) {
	mkEntry := func(version int, shift float64) *Entry {
		m := testModel(3, 5)
		for i := range m.Prototypes.Data() {
			m.Prototypes.Data()[i] += shift
		}
		return &Entry{Name: "m", Version: version, Model: m}
	}
	v1 := mkEntry(1, 0)
	v2 := mkEntry(2, 10)

	b := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: 200 * time.Microsecond, Workers: 2, FlushWorkers: 2})
	defer b.Close()

	rows := make([][]float64, 8)
	want1 := make([][]float64, len(rows))
	want2 := make([][]float64, len(rows))
	for i := range rows {
		rows[i] = make([]float64, 5)
		for j := range rows[i] {
			rows[i][j] = float64(i)*0.3 + float64(j)*0.7
		}
		want1[i] = wantRow(t, v1.Model, rows[i])
		want2[i] = wantRow(t, v2.Model, rows[i])
	}

	const goroutines = 8
	const iters = 50
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entry, want := v1, want1
			if g%2 == 1 {
				entry, want = v2, want2
			}
			dst := make([]float64, 5)
			for it := 0; it < iters; it++ {
				i := (g + it) % len(rows)
				if err := b.TransformRowInto(context.Background(), entry, dst, rows[i]); err != nil {
					errs <- fmt.Errorf("v%d row %d: %w", entry.Version, i, err)
					return
				}
				for j := range dst {
					if dst[j] != want[i][j] {
						errs <- fmt.Errorf("v%d row %d: cell %d = %v, want %v (cross-version scratch leak?)",
							entry.Version, i, j, dst[j], want[i][j])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
