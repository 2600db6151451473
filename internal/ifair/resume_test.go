package ifair

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/mat"
)

// resumeOpts is the shared problem for the crash-safety suite: small
// enough to sweep kill points quickly, with enough restarts that kills
// land before, at and after the eventual winner.
func resumeOpts() Options {
	return Options{
		K:             3,
		Lambda:        1,
		Mu:            1,
		Protected:     []int{3},
		Init:          InitMaskedProtected,
		Restarts:      3,
		MaxIterations: 40,
		Seed:          11,
	}
}

func resumeData(t *testing.T) *mat.Dense {
	t.Helper()
	return randomData(rand.New(rand.NewSource(17)), 20, 4)
}

func openManager(t *testing.T, dir string, fs checkpoint.FS) *checkpoint.Manager {
	t.Helper()
	m, err := checkpoint.Open(checkpoint.Config{
		Dir: dir, FS: fs, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("checkpoint.Open(%s): %v", dir, err)
	}
	return m
}

func assertModelsBitIdentical(t *testing.T, label string, want, got *Model) {
	t.Helper()
	if want.Loss != got.Loss {
		t.Fatalf("%s: loss %v != baseline %v", label, got.Loss, want.Loss)
	}
	for j := range want.Alpha {
		if got.Alpha[j] != want.Alpha[j] {
			t.Fatalf("%s: alpha[%d] %v != baseline %v", label, j, got.Alpha[j], want.Alpha[j])
		}
	}
	wp, gp := want.Prototypes.Data(), got.Prototypes.Data()
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: prototype datum %d %v != baseline %v", label, i, gp[i], wp[i])
		}
	}
}

// killPoints returns the (restart, iteration) sweep. The default covers a
// kill in every restart; IFAIR_TEST_FAULTS=1 widens it with a seeded
// schedule of extra deterministic points.
func killPoints(restarts int) [][2]int {
	points := [][2]int{{0, 1}, {1, 3}, {2, 5}, {0, 8}}
	if os.Getenv("IFAIR_TEST_FAULTS") != "" {
		iters := faultinject.Schedule(23, 3*restarts, 12)
		for i, k := range iters {
			points = append(points, [2]int{i % restarts, k})
		}
	}
	return points
}

// TestResumeBitIdenticalAfterKill is the acceptance criterion of the
// crash-safety tentpole: kill training at restart r, iteration k, resume
// from the checkpoint directory in a "new process" (a fresh Manager), and
// the resumed fit must match an uninterrupted one bit for bit — loss,
// alpha and prototypes.
func TestResumeBitIdenticalAfterKill(t *testing.T) {
	for _, workers := range []int{1, 4} {
		x := resumeData(t)
		baseOpts := resumeOpts()
		baseOpts.RestartWorkers = workers
		baseline, err := FitContext(context.Background(), x, baseOpts)
		if err != nil {
			t.Fatalf("workers=%d: baseline fit: %v", workers, err)
		}

		for _, kp := range killPoints(baseOpts.Restarts) {
			r, k := kp[0], kp[1]
			dir := t.TempDir()

			killOpts := baseOpts
			killOpts.Checkpoint = openManager(t, dir, nil)
			killer, ctx := faultinject.NewKiller(context.Background(), r, k)
			killOpts.Trace = killer
			model, err := FitContext(ctx, x, killOpts)
			if !killer.Fired() {
				// The target restart converged before iteration k; the fit
				// ran to completion and must already match the baseline.
				if err != nil {
					t.Fatalf("workers=%d kill=(%d,%d): unexpected error with unfired killer: %v", workers, r, k, err)
				}
				assertModelsBitIdentical(t, "unfired kill", baseline, model)
				continue
			}
			if err == nil {
				t.Fatalf("workers=%d kill=(%d,%d): killed fit returned no error", workers, r, k)
			}

			resumeOpts := baseOpts
			resumeOpts.Checkpoint = openManager(t, dir, nil)
			resumed, err := FitContext(context.Background(), x, resumeOpts)
			if err != nil {
				t.Fatalf("workers=%d kill=(%d,%d): resumed fit: %v", workers, r, k, err)
			}
			assertModelsBitIdentical(t,
				"workers="+itoa(workers)+" kill=("+itoa(r)+","+itoa(k)+")",
				baseline, resumed)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCheckpointingDoesNotPerturbTraining pins the zero-interference
// property: an uninterrupted fit with checkpointing enabled is
// bit-identical to one without.
func TestCheckpointingDoesNotPerturbTraining(t *testing.T) {
	x := resumeData(t)
	plain, err := FitContext(context.Background(), x, resumeOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := resumeOpts()
	opts.Checkpoint = openManager(t, t.TempDir(), nil)
	ckpted, err := FitContext(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertModelsBitIdentical(t, "checkpointed", plain, ckpted)
}

// TestSecondRunReplaysEntirelyFromCheckpoint re-fits after a completed
// run: every restart replays from its record, and the model still matches.
func TestSecondRunReplaysEntirelyFromCheckpoint(t *testing.T) {
	x := resumeData(t)
	dir := t.TempDir()
	opts := resumeOpts()
	opts.Checkpoint = openManager(t, dir, nil)
	first, err := FitContext(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts2 := resumeOpts()
	opts2.Checkpoint = openManager(t, dir, nil)
	if got := opts2.Checkpoint.CompletedCount(); got != opts2.Restarts {
		t.Fatalf("CompletedCount = %d, want %d", got, opts2.Restarts)
	}
	second, err := FitContext(context.Background(), x, opts2)
	if err != nil {
		t.Fatal(err)
	}
	assertModelsBitIdentical(t, "replayed", first, second)
}

// TestTrainingSurvivesFullDisk fills the "disk" from the first snapshot
// write on (sticky ENOSPC short writes): training must complete anyway,
// bit-identical to the no-checkpoint baseline, with the failures counted.
func TestTrainingSurvivesFullDisk(t *testing.T) {
	x := resumeData(t)
	baseline, err := FitContext(context.Background(), x, resumeOpts())
	if err != nil {
		t.Fatal(err)
	}

	opts := resumeOpts()
	mgr := openManager(t, t.TempDir(), &faultinject.FS{ShortWrite: faultinject.NewStickyFuse(1)})
	opts.Checkpoint = mgr
	model, err := FitContext(context.Background(), x, opts)
	if err != nil {
		t.Fatalf("fit on a full disk failed: %v", err)
	}
	assertModelsBitIdentical(t, "full disk", baseline, model)
	if mgr.WriteErrors() == 0 {
		t.Fatal("no snapshot write failures counted on a full disk")
	}
}

// TestResumeFromCorruptLatestSnapshot flips a bit in the newest snapshot
// of a completed run. The resumed fit must detect the corruption, fall
// back to the previous good snapshot, re-run what it is missing, and
// still produce the bit-identical model.
func TestResumeFromCorruptLatestSnapshot(t *testing.T) {
	x := resumeData(t)
	dir := t.TempDir()
	opts := resumeOpts()
	opts.Checkpoint = openManager(t, dir, nil)
	first, err := FitContext(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}

	names, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(names) < 2 {
		t.Fatalf("want ≥2 snapshots, got %v (err %v)", names, err)
	}
	latest := names[len(names)-1]
	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(latest, faultinject.FlipBit(data, len(data)*5), 0o644); err != nil {
		t.Fatal(err)
	}

	mgr := openManager(t, dir, nil)
	if len(mgr.CorruptFiles()) == 0 {
		t.Fatal("corrupt snapshot not detected")
	}
	opts2 := resumeOpts()
	opts2.Checkpoint = mgr
	resumed, err := FitContext(context.Background(), x, opts2)
	if err != nil {
		t.Fatal(err)
	}
	assertModelsBitIdentical(t, "corrupt fallback", first, resumed)
}

// TestCheckpointIgnoredForDifferentProblem changes the data between runs:
// the stale checkpoint must be fingerprint-rejected, not silently
// replayed into the wrong problem.
func TestCheckpointIgnoredForDifferentProblem(t *testing.T) {
	dir := t.TempDir()
	opts := resumeOpts()
	opts.Checkpoint = openManager(t, dir, nil)
	if _, err := FitContext(context.Background(), resumeData(t), opts); err != nil {
		t.Fatal(err)
	}

	other := randomData(rand.New(rand.NewSource(99)), 20, 4)
	plain, err := FitContext(context.Background(), other, resumeOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts2 := resumeOpts()
	opts2.Checkpoint = openManager(t, dir, nil)
	fresh, err := FitContext(context.Background(), other, opts2)
	if err != nil {
		t.Fatal(err)
	}
	assertModelsBitIdentical(t, "fingerprint reset", plain, fresh)
}
