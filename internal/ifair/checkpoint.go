package ifair

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/mat"
	"repro/internal/optimize"
)

// fingerprintTable is shared by every fingerprint computation.
var fingerprintTable = crc64.MakeTable(crc64.ECMA)

// checkpointFingerprint identifies the training problem: every option
// that influences the fitted model plus the training data itself. Two
// runs share a fingerprint exactly when an uninterrupted run would
// produce bit-identical models for both — Workers, RestartWorkers and
// Trace are deliberately excluded (they never change the result), while
// Seed and Restarts are carried separately in the snapshot header.
func checkpointFingerprint(x *mat.Dense, o *Options) string {
	h := crc64.New(fingerprintTable)
	// nearzero, numgrad and gd name a constant and two retired training
	// paths, and pinit, p, root and kernel the one prototype
	// initialisation and kernel geometry left; they stay as literals so
	// fingerprints, and the checkpoints they key, are unchanged.
	fmt.Fprintf(h, "ifair|k=%d|lambda=%g|mu=%g|prot=%v|init=%d|pinit=0|nearzero=%g|fair=%d|pairs=%d|neighk=%d|p=2|root=false|kernel=0|numgrad=false|maxiter=%d|gd=false|batch=%d|epochs=%d|lr=%g|",
		o.K, o.Lambda, o.Mu, o.Protected, o.Init, nearZeroAlpha,
		o.Fairness, o.PairSamples, o.NeighborK,
		o.MaxIterations, o.BatchSize, o.Epochs, o.LearnRate)
	// Mini-batch evaluations sum in chunk order (eval), which rounds
	// differently from the serial pass older SGD snapshots were taken
	// under, and SGD cuts its batches from shuffled blocks of the pair
	// graph's breadth-first order rather than from a shuffled record
	// permutation, so the within-epoch sequence differs too. These tags
	// keep snapshots of either older regime from resuming into a run that
	// would not reproduce them. Full-batch arithmetic did not change, so
	// full-batch fingerprints stay as they were.
	if o.BatchSize > 0 {
		fmt.Fprint(h, "batcheval=chunked|batchorder=graph-blocks|")
	}
	// A warm start changes restart 0's trajectory, so its parameters are
	// part of the problem identity: a checkpoint taken without one (or
	// from a different donor model) must not be resumed into it.
	if ws := o.WarmStart; ws != nil {
		fmt.Fprintf(h, "warm=%d,%d|", ws.K(), ws.Dims())
		hashFloats(h, ws.Alpha)
		hashFloats(h, ws.Prototypes.Data())
	} else {
		fmt.Fprint(h, "warm=none|")
	}
	m, n := x.Dims()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(m)<<32|uint64(uint32(n)))
	h.Write(buf[:])
	hashFloats(h, x.Data())
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashFloats writes a float slice's exact bit patterns into h.
func hashFloats(h io.Writer, xs []float64) {
	var buf [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// packModel flattens a fitted model's learnable parameters — α followed
// by the row-major prototypes — into the vector a checkpoint record
// stores. Storing the model's own parameters (rather than the optimizer's
// packed θ) makes the replayed model bit-identical by construction.
func packModel(m *Model) []float64 {
	out := make([]float64, 0, len(m.Alpha)+len(m.Prototypes.Data()))
	out = append(out, m.Alpha...)
	return append(out, m.Prototypes.Data()...)
}

// unpackModel rebuilds a model from a checkpoint record's vector. It
// returns nil when the vector does not match the run's dimensions — the
// caller then re-runs the restart instead of trusting a bogus record.
func unpackModel(x []float64, n int, opts *Options) *Model {
	k := opts.K
	if len(x) != n+k*n {
		return nil
	}
	protos := mat.NewDense(k, n)
	copy(protos.Data(), x[n:])
	return &Model{Prototypes: protos, Alpha: append([]float64(nil), x[:n]...), P: 2, Kernel: ExpKernel}
}

// ckptLedger adapts a checkpoint.Manager to optimize.RestartLedger for
// one FitContext call: Lookup replays finished restarts into the models
// slice, Record persists restarts the moment they finish here. Lookup
// and Record are called from the restart pool's goroutines; each restart
// index is touched by exactly one goroutine and the manager itself is
// concurrency-safe, so no extra locking is needed.
type ckptLedger struct {
	mgr    *checkpoint.Manager
	n      int
	opts   *Options
	models []*Model
	iters  []int
}

// Lookup implements optimize.RestartLedger.
func (l *ckptLedger) Lookup(r int) (float64, error, bool) {
	rec, ok := l.mgr.Completed(r)
	if !ok {
		return 0, nil, false
	}
	if rec.Failed {
		l.mgr.Logf("restart %d: replaying recorded failure: %s", r, rec.Error)
		return math.NaN(), errors.New(rec.Error), true
	}
	model := unpackModel(rec.X, l.n, l.opts)
	if model == nil {
		l.mgr.Logf("restart %d: recorded parameters have the wrong shape; re-running", r)
		return 0, nil, false
	}
	model.Loss = rec.Loss
	l.models[r] = model
	l.mgr.Logf("restart %d: resumed from checkpoint (loss %g after %d iterations)", r, rec.Loss, rec.Iterations)
	return rec.Loss, nil, true
}

// Record implements optimize.RestartLedger.
func (l *ckptLedger) Record(r int, loss float64, err error) {
	rec := checkpoint.Restart{
		Index:      r,
		Seed:       optimize.RestartSeed(l.opts.Seed, r),
		Iterations: l.iters[r],
	}
	if err != nil {
		rec.Failed, rec.Error = true, err.Error()
	} else {
		rec.Loss = loss
		rec.X = packModel(l.models[r])
	}
	l.mgr.FinishRestart(rec)
}
