package ifair

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestWarmStartValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randomData(rng, 20, 3)
	donor, err := Fit(x, Options{K: 2, Lambda: 1, Seed: 1, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Fit(x, Options{K: 3, Lambda: 1, WarmStart: donor}); err == nil {
		t.Fatal("K mismatch accepted")
	}
	wide := randomData(rng, 20, 4)
	if _, err := Fit(wide, Options{K: 2, Lambda: 1, WarmStart: donor}); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	bad := &Model{Prototypes: mat.NewDense(2, 3), Alpha: []float64{1, -1, 1}, P: 2}
	if _, err := Fit(x, Options{K: 2, Lambda: 1, WarmStart: bad}); err == nil {
		t.Fatal("invalid donor model accepted")
	}
}

// warmStartTheta must be the exact inverse of modelFromTheta's packing:
// rebuilding a model from the packed vector reproduces the donor.
func TestWarmStartThetaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomData(rng, 30, 4)
	donor, err := Fit(x, Options{K: 3, Lambda: 1, Mu: 0.5, Seed: 7, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := modelFromTheta(warmStartTheta(donor), 4, Options{K: 3})
	for j := range donor.Alpha {
		if math.Abs(got.Alpha[j]-donor.Alpha[j]) > 1e-12 {
			t.Fatalf("alpha[%d] = %g, want %g", j, got.Alpha[j], donor.Alpha[j])
		}
	}
	for i, v := range donor.Prototypes.Data() {
		if got.Prototypes.Data()[i] != v {
			t.Fatalf("prototype datum %d = %g, want %g", i, got.Prototypes.Data()[i], v)
		}
	}
}

// Continuing training from a fitted model with a monotone optimizer must
// never end up worse than the donor's loss on the same problem.
func TestWarmStartNeverWorseThanDonor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomData(rng, 40, 3)
	opts := Options{K: 3, Lambda: 1, Mu: 1, Seed: 11, MaxIterations: 8}
	donor, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := opts
	warm.WarmStart = donor
	warm.MaxIterations = 20
	refit, err := Fit(x, warm)
	if err != nil {
		t.Fatal(err)
	}
	if refit.Loss > donor.Loss+1e-9 {
		t.Fatalf("warm refit loss %g worse than donor loss %g", refit.Loss, donor.Loss)
	}
}

func TestWarmStartDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomData(rng, 30, 3)
	donor, err := Fit(x, Options{K: 2, Lambda: 1, Seed: 5, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, Lambda: 1, Mu: 1, Seed: 5, MaxIterations: 10, Restarts: 2, WarmStart: donor}
	a, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Loss != b.Loss {
		t.Fatalf("losses differ: %g vs %g", a.Loss, b.Loss)
	}
	for i, v := range a.Prototypes.Data() {
		if b.Prototypes.Data()[i] != v {
			t.Fatal("prototypes differ across identical warm-started fits")
		}
	}
}

// A warm start changes restart 0's trajectory, so checkpoints must not be
// shared between warm and cold runs — or between different donors.
func TestWarmStartChangesCheckpointFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randomData(rng, 20, 3)
	cold := Options{K: 2, Lambda: 1}
	donor, err := Fit(x, Options{K: 2, Lambda: 1, Seed: 9, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	warm := cold
	warm.WarmStart = donor
	if checkpointFingerprint(x, &cold) == checkpointFingerprint(x, &warm) {
		t.Fatal("fingerprint ignores warm start")
	}
	donor2 := &Model{
		Prototypes: mat.NewDenseData(donor.K(), donor.Dims(),
			append([]float64(nil), donor.Prototypes.Data()...)),
		Alpha: append([]float64(nil), donor.Alpha...),
		P:     donor.P,
	}
	donor2.Prototypes.Data()[0] += 0.5
	warm2 := cold
	warm2.WarmStart = donor2
	if checkpointFingerprint(x, &warm) == checkpointFingerprint(x, &warm2) {
		t.Fatal("fingerprint ignores donor parameters")
	}
}

// TestCheckpointFingerprintTracksEvaluationArithmetic pins the
// fingerprint on both sides of the mini-batch changes: full-batch fits
// still train bit-identically to the serial-era code, so their
// fingerprint (and their snapshots) carry over unchanged, while an SGD
// fit must match neither a snapshot the serial mini-batch pass wrote nor
// one taken under the shuffled-record batch order.
func TestCheckpointFingerprintTracksEvaluationArithmetic(t *testing.T) {
	x := mat.NewDense(5, 2)
	for i := range x.Data() {
		x.Data()[i] = float64(i) / 4
	}
	full := Options{K: 2, Lambda: 1, Mu: 1, Seed: 3}
	sgd := Options{K: 2, Lambda: 1, Mu: 1, Seed: 3, Fairness: NeighborFairness, BatchSize: 2}
	for _, o := range []*Options{&full, &sgd} {
		if err := o.fill(5, 2); err != nil {
			t.Fatal(err)
		}
	}
	const serialFull = "7266671f8b636e64"
	if got := checkpointFingerprint(x, &full); got != serialFull {
		t.Fatalf("full-batch fingerprint %s, want the unchanged %s", got, serialFull)
	}
	for _, old := range []string{"727d780352c0d2db", "f0938ed2aa0b3762"} {
		if got := checkpointFingerprint(x, &sgd); got == old {
			t.Fatalf("SGD fingerprint %s still matches snapshots of an older batch regime", got)
		}
	}
}

// TestCheckpointFingerprintGolden pins the fingerprint of three option
// sets — the defaults, a neighbour-pair L-BFGS fit and a sampled-pair SGD
// fit — as they were before the prototype-initialisation and kernel
// geometry options became constants, so snapshots written then still
// resume.
func TestCheckpointFingerprintGolden(t *testing.T) {
	x := mat.NewDense(6, 2)
	for i := range x.Data() {
		x.Data()[i] = float64(i)/3 - 1
	}
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{K: 3}, "5ca2cc4ba263cd24"},
		{Options{K: 4, Lambda: 0.5, Mu: 2, Protected: []int{1}, Init: InitMaskedProtected,
			Fairness: NeighborFairness, PairSamples: 4, NeighborK: 5, MaxIterations: 20, Seed: 7}, "f6813ebe03ecf352"},
		{Options{K: 2, Lambda: 1, Mu: 1, Fairness: SampledFairness, BatchSize: 3, Epochs: 2, LearnRate: 0.05}, "f14472b61d50e900"},
	} {
		o := tc.opts
		if err := o.fill(6, 2); err != nil {
			t.Fatal(err)
		}
		if got := checkpointFingerprint(x, &o); got != tc.want {
			t.Errorf("%+v: fingerprint %s, pinned %s", tc.opts, got, tc.want)
		}
	}
}
