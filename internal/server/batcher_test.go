package server

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ifair"
	"repro/internal/mat"
)

// wantRow is the reference transform of row through the model's checked
// per-row API. A failure is reported with t.Errorf, which is safe from
// any goroutine, and yields nil.
// TransformRow transforms one row through the named model entry,
// allocating the result row. TransformRowInto is the destination-passing
// variant serving paths with a reusable buffer should call.
func (b *Batcher) TransformRow(ctx context.Context, entry *Entry, row []float64) ([]float64, error) {
	dst := make([]float64, entry.Model.Dims())
	if err := b.TransformRowInto(ctx, entry, dst, row); err != nil {
		return nil, err
	}
	return dst, nil
}

func wantRow(t testing.TB, m *ifair.Model, row []float64) []float64 {
	t.Helper()
	out, err := m.TransformRowChecked(row)
	if err != nil {
		t.Errorf("reference transform: %v", err)
	}
	return out
}

func testEntry(k, n int) *Entry {
	return &Entry{Name: "m", Version: 1, Model: testModel(k, n)}
}

func TestBatcherMatchesDirectTransform(t *testing.T) {
	entry := testEntry(3, 4)
	sizes := newHistogram(batchSizeBuckets)
	b := NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: 5 * time.Millisecond, Workers: 2, Sizes: sizes})

	rows := [][]float64{
		{0.1, 0.2, 0.3, 0.4},
		{1, 1, 1, 1},
		{-2, 0.5, 3, -1},
	}
	for _, row := range rows {
		got, err := b.TransformRow(context.Background(), entry, row)
		if err != nil {
			t.Fatal(err)
		}
		want := wantRow(t, entry.Model, row)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("batched row differs from direct transform: %v vs %v", got, want)
			}
		}
	}
}

func TestBatcherCoalescesConcurrentRows(t *testing.T) {
	entry := testEntry(3, 2)
	sizes := newHistogram(batchSizeBuckets)
	// Long wait so all goroutines land in the same batch window.
	b := NewBatcher(BatcherConfig{MaxBatch: 64, MaxWait: 50 * time.Millisecond, Workers: 2, Sizes: sizes})

	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			row := []float64{float64(g), float64(-g)}
			got, err := b.TransformRow(context.Background(), entry, row)
			if err != nil {
				errs <- err
				return
			}
			want := wantRow(t, entry.Model, row)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 0 {
					errs <- errRowMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sizes.Count() == 0 {
		t.Fatal("no batches observed")
	}
	// The whole point: at least one flush carried more than one row.
	if sizes.Max() < 2 {
		t.Fatalf("max batch size = %v, want coalescing > 1", sizes.Max())
	}
}

var errRowMismatch = &httpError{status: 500, msg: "batched result differs from direct transform"}

func TestBatcherFlushesAtMaxBatch(t *testing.T) {
	entry := testEntry(2, 2)
	sizes := newHistogram(batchSizeBuckets)
	// maxWait is huge: only the size trigger can flush in time.
	b := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: time.Hour, Workers: 1, Sizes: sizes})

	const callers = 4
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := b.TransformRow(context.Background(), entry, []float64{1, float64(g)}); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("size-triggered flush took %v", elapsed)
	}
	if sizes.Max() < 4 {
		t.Fatalf("max batch size = %v, want the full batch of 4", sizes.Max())
	}
}

func TestBatcherTimerFlushesPartialBatch(t *testing.T) {
	entry := testEntry(2, 2)
	b := NewBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: 10 * time.Millisecond, Workers: 1})
	start := time.Now()
	if _, err := b.TransformRow(context.Background(), entry, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timer flush took %v", elapsed)
	}
}

func TestBatcherRejectsWrongWidth(t *testing.T) {
	entry := testEntry(2, 3)
	b := NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond, Workers: 1})
	if _, err := b.TransformRow(context.Background(), entry, []float64{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestBatcherHonoursContextCancellation(t *testing.T) {
	entry := testEntry(2, 2)
	b := NewBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: time.Hour, Workers: 1}) // nothing will flush on its own
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := b.TransformRow(ctx, entry, []float64{1, 2})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	b.Flush() // clean up the stranded queue
}

func TestBatcherBypassWithoutCoalescing(t *testing.T) {
	entry := testEntry(2, 2)
	for _, b := range []*Batcher{
		NewBatcher(BatcherConfig{MaxBatch: 1, MaxWait: time.Hour, Workers: 1}), // maxBatch 1
		NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: 0, Workers: 1}),         // maxWait 0
	} {
		got, err := b.TransformRow(context.Background(), entry, []float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		want := wantRow(t, entry.Model, []float64{1, 2})
		for j := range want {
			if got[j] != want[j] {
				t.Fatal("bypass path differs from direct transform")
			}
		}
	}
}

func TestBatcherSeparatesModelInstances(t *testing.T) {
	// Two entries with the same key but different models (a hot reload):
	// rows enqueued for the old instance must not be transformed by the
	// new one.
	oldEntry := &Entry{Name: "m", Version: 1, Model: testModel(2, 2)}
	newEntry := &Entry{Name: "m", Version: 1, Model: testModel(5, 2)}
	b := NewBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: 30 * time.Millisecond, Workers: 1})

	var wg sync.WaitGroup
	wg.Add(2)
	results := make([][]float64, 2)
	go func() {
		defer wg.Done()
		results[0], _ = b.TransformRow(context.Background(), oldEntry, []float64{1, 2})
	}()
	time.Sleep(5 * time.Millisecond)
	go func() {
		defer wg.Done()
		results[1], _ = b.TransformRow(context.Background(), newEntry, []float64{1, 2})
	}()
	wg.Wait()
	wantOld := wantRow(t, oldEntry.Model, []float64{1, 2})
	wantNew := wantRow(t, newEntry.Model, []float64{1, 2})
	for j := range wantOld {
		if results[0][j] != wantOld[j] {
			t.Fatal("old-instance row transformed by wrong model")
		}
	}
	for j := range wantNew {
		if results[1][j] != wantNew[j] {
			t.Fatal("new-instance row transformed by wrong model")
		}
	}
}

// TestBatcherFlushPanicDeliversError is the regression test for the
// flush-goroutine hang: a panic inside the batched transform used to
// kill the flush goroutine, leaving every waiter blocked forever on its
// result channel. Now the panic is recovered, every pending row gets the
// error, and the panic counter increments.
func TestBatcherFlushPanicDeliversError(t *testing.T) {
	entry := testEntry(3, 2)
	panics := &Counter{}
	b := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: 5 * time.Millisecond, Workers: 1, FlushPanics: panics})
	defer b.Close()
	b.transform = func(*Entry, *mat.Dense, *mat.Dense, int) error {
		panic("injected transform panic")
	}

	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// The ctx bound makes a regression fail fast instead of
			// hanging the test binary: with the old code the flush
			// goroutine died and this would time out.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := b.TransformRow(ctx, entry, []float64{float64(g), 1})
			errs <- err
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("waiter got a nil error from a panicked flush")
		}
		if err == context.DeadlineExceeded {
			t.Fatal("waiter hung until its deadline: panic was not delivered")
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Fatalf("err = %v, want the recovered panic", err)
		}
	}
	if panics.Value() == 0 {
		t.Fatal("batcher_flush_panics counter not incremented")
	}
	// The batcher must keep working after a panicked flush.
	b.transform = func(e *Entry, dst, x *mat.Dense, workers int) error {
		return e.Model.TransformInto(dst, x, workers)
	}
	got, err := b.TransformRow(context.Background(), entry, []float64{1, 2})
	if err != nil {
		t.Fatalf("batcher dead after panic: %v", err)
	}
	want := wantRow(t, entry.Model, []float64{1, 2})
	for j := range want {
		if got[j] != want[j] {
			t.Fatal("post-panic transform differs from direct transform")
		}
	}
}

// TestBatcherShedsAtPendingCap fills a model's pending-row budget and
// verifies the next row is shed with ErrBusy instead of queueing.
func TestBatcherShedsAtPendingCap(t *testing.T) {
	entry := testEntry(2, 2)
	shed := &Counter{}
	b := NewBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: time.Hour, Workers: 1, MaxPending: 2, Shed: shed})
	defer b.Close()

	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() { <-release; cancel() }()
			b.TransformRow(ctx, entry, []float64{1, float64(g)}) //nolint:errcheck
		}(g)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.PendingRows() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("rows never enqueued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	_, err := b.TransformRow(context.Background(), entry, []float64{9, 9})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy at the pending cap", err)
	}
	if shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", shed.Value())
	}
	close(release)
	wg.Wait()
}

// TestBatcherSkipsAbandonedRows verifies a row whose caller gave up is
// not transformed for nobody: it is skipped at flush time and counted.
func TestBatcherSkipsAbandonedRows(t *testing.T) {
	entry := testEntry(2, 2)
	abandoned := &Counter{}
	b := NewBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: 40 * time.Millisecond, Workers: 1, Abandoned: abandoned})
	defer b.Close()
	var transformed atomic.Int64
	b.transform = func(e *Entry, dst, x *mat.Dense, workers int) error {
		transformed.Add(int64(x.Rows()))
		return e.Model.TransformInto(dst, x, workers)
	}

	// The caller's context expires inside the batch window: by flush
	// time the row is abandoned.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := b.TransformRow(ctx, entry, []float64{1, 2}); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for abandoned.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned row never skipped at flush")
		}
		time.Sleep(time.Millisecond)
	}
	if n := transformed.Load(); n != 0 {
		t.Fatalf("%d abandoned rows were still transformed", n)
	}
	if b.PendingRows() != 0 {
		t.Fatalf("pending rows = %d after abandoned flush, want 0", b.PendingRows())
	}
}

// TestBatcherHotReloadHammer races TransformRow against continuous
// hot-reloads of the same model key: every result must match the exact
// model instance the caller passed in (no batch ever mixes instances),
// and the flush machinery must not leak goroutines.
func TestBatcherHotReloadHammer(t *testing.T) {
	// Distinct instances behind one key, each with visibly different
	// prototypes so a mixed batch produces wrong values.
	const instances = 6
	entries := make([]*Entry, instances)
	for i := range entries {
		protos := mat.NewDense(2, 2)
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				protos.Set(r, c, float64(100*i+10*r+c))
			}
		}
		entries[i] = &Entry{
			Name: "m", Version: 1,
			Model: &ifair.Model{Prototypes: protos, Alpha: []float64{1, 1}, P: 2, Kernel: ifair.ExpKernel},
		}
	}

	before := runtime.NumGoroutine()
	b := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: 300 * time.Microsecond, Workers: 2, FlushWorkers: 2})

	const (
		workers = 8
		iters   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := entries[(w*iters+i)%instances]
				row := []float64{float64(i % 7), float64(w)}
				got, err := b.TransformRow(context.Background(), e, row)
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				want := wantRow(t, e.Model, row)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("worker %d iter %d: row transformed by a different model instance: got %v want %v", w, i, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.Close()

	// No waiter or flush goroutine may leak: allow slack for test
	// machinery, but catch per-request leaks (thousands would remain).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+10 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d: leak", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
