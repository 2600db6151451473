package checkpoint_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
)

// sampleState builds a state with awkward float values to exercise exact
// round-tripping.
func sampleState() *checkpoint.State {
	return &checkpoint.State{
		Seed:        42,
		Restarts:    3,
		Fingerprint: "deadbeef01234567",
		Completed: []checkpoint.Restart{
			{Index: 0, Seed: 42, Iterations: 17, Loss: 1.0000000000000002,
				X: []float64{0, math.Copysign(0, -1), 1e-308, 0.1 + 0.2, math.MaxFloat64, -math.SmallestNonzeroFloat64}},
			{Index: 2, Seed: 99, Failed: true, Error: "line search failed"},
		},
	}
}

func TestEncodeDecodeRoundTripExact(t *testing.T) {
	want := sampleState()
	data, err := checkpoint.Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertStatesEqual(t, got, want)
}

// assertStatesEqual compares two states' headers and completed restarts
// bit for bit.
func assertStatesEqual(t *testing.T, got, want *checkpoint.State) {
	t.Helper()
	if got.Seed != want.Seed || got.Restarts != want.Restarts || got.Fingerprint != want.Fingerprint {
		t.Fatalf("header mismatch: %+v vs %+v", got, want)
	}
	if len(got.Completed) != len(want.Completed) {
		t.Fatalf("completed count %d, want %d", len(got.Completed), len(want.Completed))
	}
	for i, w := range want.Completed {
		g := got.Completed[i]
		if g.Index != w.Index || g.Seed != w.Seed || g.Iterations != w.Iterations || g.Failed != w.Failed || g.Error != w.Error {
			t.Fatalf("restart %d metadata mismatch: %+v vs %+v", i, g, w)
		}
		if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) {
			t.Fatalf("restart %d loss bits differ", i)
		}
		if len(g.X) != len(w.X) {
			t.Fatalf("restart %d X length %d, want %d", i, len(g.X), len(w.X))
		}
		for j := range w.X {
			if math.Float64bits(g.X[j]) != math.Float64bits(w.X[j]) {
				t.Fatalf("restart %d X[%d] bits differ: %x vs %x", i, j,
					math.Float64bits(g.X[j]), math.Float64bits(w.X[j]))
			}
		}
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data, err := checkpoint.Encode(sampleState())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := checkpoint.Decode(faultinject.Truncate(data, n)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestDecodeRejectsEverySingleBitFlip(t *testing.T) {
	data, err := checkpoint.Encode(sampleState())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for bit := 0; bit < len(data)*8; bit++ {
		if _, err := checkpoint.Decode(faultinject.FlipBit(data, bit)); err == nil {
			t.Fatalf("bit flip at %d (byte %d) decoded cleanly", bit, bit/8)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("not a checkpoint"), make([]byte, 1024)} {
		if _, err := checkpoint.Decode(data); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("Decode(%q): got %v, want ErrCorrupt", data, err)
		}
	}
}

// openT opens a manager that logs through t.
func openT(t *testing.T, dir string, strict bool) *checkpoint.Manager {
	t.Helper()
	m, err := checkpoint.Open(checkpoint.Config{Dir: dir, Strict: strict, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return m
}

func TestManagerPersistAndResume(t *testing.T) {
	dir := t.TempDir()
	m1 := openT(t, dir, false)
	if m1.Loaded() {
		t.Fatal("fresh dir reported a loaded snapshot")
	}
	if resumed, err := m1.Begin(7, 3, "fp"); err != nil || resumed {
		t.Fatalf("fresh Begin: resumed=%v err=%v", resumed, err)
	}
	m1.FinishRestart(checkpoint.Restart{Index: 0, Seed: 7, Iterations: 4, Loss: 2.5, X: []float64{0.5, -0.5}})

	m2 := openT(t, dir, false)
	if !m2.Loaded() {
		t.Fatal("reopened dir did not load the snapshot")
	}
	if resumed, err := m2.Begin(7, 3, "fp"); err != nil || !resumed {
		t.Fatalf("matching Begin: resumed=%v err=%v", resumed, err)
	}
	rec, ok := m2.Completed(0)
	if !ok || rec.Loss != 2.5 || len(rec.X) != 2 || rec.X[0] != 0.5 {
		t.Fatalf("Completed(0) = %+v, %v", rec, ok)
	}
	if _, ok := m2.Completed(1); ok {
		t.Fatal("unfinished restart 1 reported as completed")
	}
}

func TestManagerBeginMismatch(t *testing.T) {
	dir := t.TempDir()
	m1 := openT(t, dir, false)
	m1.Begin(7, 3, "fp")
	m1.FinishRestart(checkpoint.Restart{Index: 0, Seed: 7, Loss: 1, X: []float64{1}})

	// Non-strict: a mismatching run silently starts fresh.
	m2 := openT(t, dir, false)
	if resumed, err := m2.Begin(8, 3, "fp"); err != nil || resumed {
		t.Fatalf("mismatching Begin: resumed=%v err=%v", resumed, err)
	}
	if _, ok := m2.Completed(0); ok {
		t.Fatal("mismatching Begin kept stale completed restarts")
	}

	// Strict: the same mismatch is an error.
	m3 := openT(t, dir, true)
	if _, err := m3.Begin(8, 3, "fp"); err == nil {
		t.Fatal("strict mismatching Begin succeeded")
	}
	// Strict with a matching identity resumes.
	if resumed, err := m3.Begin(7, 3, "fp"); err != nil || !resumed {
		t.Fatalf("strict matching Begin: resumed=%v err=%v", resumed, err)
	}
}

func TestManagerCorruptLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	m1 := openT(t, dir, false)
	m1.Begin(7, 3, "fp")
	m1.FinishRestart(checkpoint.Restart{Index: 0, Seed: 7, Loss: 1, X: []float64{1}})
	m1.FinishRestart(checkpoint.Restart{Index: 1, Seed: 8, Loss: 2, X: []float64{2}})

	// Corrupt the newest snapshot on disk.
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(names) < 2 {
		t.Fatalf("want ≥2 snapshots, got %v (err %v)", names, err)
	}
	latest := names[len(names)-1]
	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(latest, faultinject.FlipBit(data, len(data)*4), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openT(t, dir, false)
	if !m2.Loaded() {
		t.Fatal("no fallback snapshot loaded")
	}
	if got := m2.CorruptFiles(); len(got) != 1 || got[0] != filepath.Base(latest) {
		t.Fatalf("CorruptFiles = %v, want [%s]", got, filepath.Base(latest))
	}
	if resumed, err := m2.Begin(7, 3, "fp"); err != nil || !resumed {
		t.Fatalf("Begin after fallback: resumed=%v err=%v", resumed, err)
	}
	// The fallback predates restart 1's completion: restart 0 must be
	// there, restart 1 must not (it will simply re-run).
	if _, ok := m2.Completed(0); !ok {
		t.Fatal("fallback snapshot lost restart 0")
	}
	if _, ok := m2.Completed(1); ok {
		t.Fatal("corrupt snapshot's restart 1 leaked into the fallback")
	}
}

func TestManagerPrunesOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	m := openT(t, dir, false)
	m.Begin(7, 10, "fp")
	for r := 0; r < 6; r++ {
		m.FinishRestart(checkpoint.Restart{Index: r, Seed: int64(r), Loss: float64(r), X: []float64{1}})
	}
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if len(names) != 2 {
		t.Fatalf("want 2 retained snapshots, got %d: %v", len(names), names)
	}
}

// TestManagerWriteFaults drives every injected write-path fault and
// checks the invariant: a failed snapshot write is reported, training
// state is unaffected, and the previous good snapshot still loads.
func TestManagerWriteFaults(t *testing.T) {
	cases := []struct {
		name string
		fs   func() *faultinject.FS
	}{
		{"create", func() *faultinject.FS { return &faultinject.FS{CreateFault: faultinject.NewFuse(2)} }},
		{"write", func() *faultinject.FS { return &faultinject.FS{WriteFault: faultinject.NewFuse(2)} }},
		{"short-write-enospc", func() *faultinject.FS { return &faultinject.FS{ShortWrite: faultinject.NewFuse(2)} }},
		{"sync", func() *faultinject.FS { return &faultinject.FS{SyncFault: faultinject.NewFuse(2)} }},
		{"rename", func() *faultinject.FS { return &faultinject.FS{RenameFault: faultinject.NewFuse(2)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := checkpoint.Open(checkpoint.Config{Dir: dir, FS: tc.fs(), Logf: t.Logf})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			m.Begin(7, 3, "fp")
			// First write succeeds, second is faulted, third succeeds again.
			m.FinishRestart(checkpoint.Restart{Index: 0, Seed: 7, Loss: 1, X: []float64{1}})
			m.FinishRestart(checkpoint.Restart{Index: 1, Seed: 8, Loss: 2, X: []float64{2}})
			m.FinishRestart(checkpoint.Restart{Index: 2, Seed: 9, Loss: 3, X: []float64{3}})
			if m.WriteErrors() != 1 {
				t.Fatalf("WriteErrors = %d, want 1", m.WriteErrors())
			}

			m2 := openT(t, dir, false)
			if !m2.Loaded() {
				t.Fatal("no snapshot loadable after injected fault")
			}
			if resumed, err := m2.Begin(7, 3, "fp"); err != nil || !resumed {
				t.Fatalf("Begin: resumed=%v err=%v", resumed, err)
			}
			// The third (post-fault) write carried all three restarts.
			for r := 0; r < 3; r++ {
				if _, ok := m2.Completed(r); !ok {
					t.Fatalf("restart %d missing after recovery", r)
				}
			}
			// No half-written temp files left published.
			if names, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(names) != 0 {
				for _, n := range names {
					if !strings.HasSuffix(n, ".tmp") {
						t.Fatalf("unexpected leftover %s", n)
					}
				}
			}
		})
	}
}

// TestManagerFlushRetriesFailedWrite pins the SIGTERM path's purpose: a
// finished restart whose FinishRestart snapshot failed to write still
// reaches disk through the final Flush.
func TestManagerFlushRetriesFailedWrite(t *testing.T) {
	dir := t.TempDir()
	m, err := checkpoint.Open(checkpoint.Config{
		Dir: dir, FS: &faultinject.FS{WriteFault: faultinject.NewFuse(1)}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.Begin(7, 2, "fp")
	m.FinishRestart(checkpoint.Restart{Index: 0, Seed: 7, Loss: 1, X: []float64{1}})
	if m.WriteErrors() != 1 {
		t.Fatalf("WriteErrors = %d, want 1", m.WriteErrors())
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	m2 := openT(t, dir, false)
	if resumed, err := m2.Begin(7, 2, "fp"); err != nil || !resumed {
		t.Fatalf("Begin: resumed=%v err=%v", resumed, err)
	}
	if _, ok := m2.Completed(0); !ok {
		t.Fatal("Flush did not persist restart 0")
	}
}
