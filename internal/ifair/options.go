// Package ifair implements the paper's core contribution: learning
// individually fair data representations by probabilistic prototype
// clustering (Sec. III).
//
// A model consists of K prototype vectors v_k and an attribute-weight
// vector α. Each record x_i is softly assigned to prototypes through a
// softmax over negative weighted distances (Def. 8) and represented as the
// convex combination x̃_i = Σ_k u_ik·v_k (Def. 2–3). Parameters are learned
// by minimising λ·L_util + µ·L_fair (Def. 9) with L-BFGS, where L_util is
// the reconstruction loss (Def. 4) and L_fair preserves pairwise distances
// computed on non-protected attributes (Def. 5).
package ifair

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/checkpoint"
)

// InitStrategy selects how the attribute-weight vector α is initialised,
// distinguishing the paper's two variants (Sec. V-B).
type InitStrategy int

const (
	// InitRandom draws every α_n uniformly from (0, 1) — the paper's
	// iFair-a.
	InitRandom InitStrategy = iota
	// InitMaskedProtected draws non-protected α_n uniformly from (0, 1)
	// and sets protected entries to nearZeroAlpha — the paper's iFair-b
	// ("initializing protected attributes to (near-)zero values ...
	// avoiding zero values to allow slack").
	InitMaskedProtected
)

// nearZeroAlpha is the initial α of protected attributes under
// InitMaskedProtected.
const nearZeroAlpha = 0.01

// String implements fmt.Stringer.
func (s InitStrategy) String() string {
	switch s {
	case InitRandom:
		return "iFair-a"
	case InitMaskedProtected:
		return "iFair-b"
	default:
		return "unknown"
	}
}

// FairnessMode selects how the individual-fairness loss pairs records.
type FairnessMode int

const (
	// PairwiseFairness evaluates Def. 5 exactly over all record pairs
	// (O(M²) per objective evaluation).
	PairwiseFairness FairnessMode = iota
	// SampledFairness pairs each record with PairSamples random partners,
	// an O(M·S) approximation in the spirit of the paper's remark that the
	// quadratic number of comparisons can be avoided.
	SampledFairness
	// NeighborFairness pairs each record with PairSamples partners drawn
	// (seeded, without replacement) from its NeighborK nearest neighbours
	// in the non-protected subspace, found with an exact k-d tree. Def. 5
	// weights exactly the comparisons individual fairness cares about most
	// — records that are close on the lawful attributes — while keeping
	// the O(M·S) pair budget of SampledFairness, so it is the
	// recommended mode for large datasets.
	NeighborFairness
)

// String implements fmt.Stringer.
func (m FairnessMode) String() string {
	switch m {
	case PairwiseFairness:
		return "pairwise"
	case SampledFairness:
		return "sampled"
	case NeighborFairness:
		return "neighbor"
	default:
		return "unknown"
	}
}

// MaxPairwiseRows is the largest record count PairwiseFairness accepts
// when the fairness loss is active: above it the O(M²) pair list (and the
// matching per-evaluation cost) stops being a configuration and starts
// being an outage. Options.fill rejects larger datasets and points at
// SampledFairness / NeighborFairness, whose pair budgets are O(M·S).
const MaxPairwiseRows = 20000

// DefaultNeighborK is the neighbour-pool size per record under
// NeighborFairness when Options.NeighborK is unset.
const DefaultNeighborK = 32

// Kernel selects how kernel distances become membership weights. The
// paper notes that "our framework is flexible and easily supports other
// kernels and distance functions" and leaves exploring them to future
// work; both options below are implemented with analytic gradients.
type Kernel int

const (
	// ExpKernel is the paper's choice (Def. 8): u_ik ∝ exp(−d(x_i, v_k)).
	// With the squared p = 2 distance this is the Gaussian kernel.
	ExpKernel Kernel = iota
	// InverseKernel uses the heavy-tailed Student-t style weighting
	// u_ik ∝ 1/(1 + d(x_i, v_k)), which decays polynomially and therefore
	// keeps distant prototypes relevant (useful when clusters overlap).
	InverseKernel
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case ExpKernel:
		return "exp"
	case InverseKernel:
		return "inverse"
	default:
		return "unknown"
	}
}

// PrototypeInit selects how prototype vectors are initialised.
type PrototypeInit int

const (
	// InitDataPoints seeds each prototype with a randomly chosen training
	// record plus small Gaussian noise. This converges faster on
	// standardised data and is the default.
	InitDataPoints PrototypeInit = iota
	// InitUniform draws every prototype coordinate uniformly from (0, 1),
	// exactly as stated in Sec. V-B of the paper.
	InitUniform
)

// Options configures Fit. The zero value is not valid: K must be set.
type Options struct {
	// K is the number of prototypes (the latent dimensionality). The paper
	// grid-searches K ∈ {10, 20, 30}.
	K int
	// Lambda weights the reconstruction (utility) loss L_util.
	Lambda float64
	// Mu weights the individual-fairness loss L_fair.
	Mu float64
	// Protected lists the column indices of protected attributes. It may
	// be empty (the paper explicitly allows l = N).
	Protected []int

	// Init selects iFair-a or iFair-b initialisation of α.
	Init InitStrategy
	// ProtoInit selects prototype initialisation.
	ProtoInit PrototypeInit

	// Fairness selects the pairing strategy for L_fair.
	Fairness FairnessMode
	// PairSamples is the number of partners per record under
	// SampledFairness and NeighborFairness. Default 16.
	PairSamples int
	// NeighborK is the neighbour-pool size per record under
	// NeighborFairness: partners are sampled from the NeighborK nearest
	// neighbours in the non-protected subspace. Records with fewer than
	// PairSamples distinct neighbours in the pool pair with all of them.
	// Default DefaultNeighborK.
	NeighborK int

	// P is the Minkowski exponent of Def. 7 (p ≥ 1). Default 2. All
	// exponents train with analytic gradients; note p values near 1 have
	// subgradient kinks at exactly-equal coordinates.
	P float64
	// TakeRoot applies the 1/p root of Def. 7 literally instead of using
	// the rootless form (the Gaussian-kernel convention used by the
	// reference implementation).
	TakeRoot bool
	// Kernel selects the membership weighting (Def. 8 by default).
	Kernel Kernel

	// Workers is the number of goroutines evaluating the objective: the
	// full objective of an L-BFGS fit and every mini-batch of an SGD fit
	// alike. Values ≤ 1 run sequentially.
	// Evaluation chunks the evaluated records and pairs with internal/par,
	// whose chunk plan depends only on their counts and whose partial
	// reductions run in chunk order — so losses, gradients and the fitted
	// model are bit-identical for every worker count, including
	// sequential runs.
	Workers int

	// Restarts is the number of random restarts; the best final loss wins.
	// The paper reports the best of 3 runs. Default 1.
	Restarts int
	// RestartWorkers bounds how many restarts train concurrently under
	// FitContext. Values ≤ 1 run restarts serially. Each restart draws its
	// initialisation from a seed derived only from (Seed, restart index),
	// so the winning model is bit-identical for every worker count.
	RestartWorkers int
	// Trace, when non-nil, observes training: restart start/end events and
	// one event per optimizer iteration. With RestartWorkers > 1 it is
	// called from multiple goroutines and must be safe for concurrent use.
	Trace Trace
	// Checkpoint, when non-nil, makes FitContext crash-safe: finished
	// restarts are persisted to the manager's directory the moment they
	// complete (with periodic in-flight snapshots in between), and a
	// later FitContext with the same data, options and seed skips them,
	// producing a model bit-identical to an uninterrupted run. A
	// checkpoint recorded for different data, options or seed is
	// detected by fingerprint and ignored (or rejected, if the manager
	// is strict). Snapshot write failures degrade durability only —
	// training itself never fails because a disk did.
	Checkpoint *checkpoint.Manager
	// MaxIterations bounds L-BFGS iterations per restart. Default 150.
	MaxIterations int
	// BatchSize, when positive, trains with mini-batch SGD instead of the
	// full-batch optimizers: every epoch reshuffles blocks of a
	// breadth-first order over the fairness-pair graph (seeded, without
	// replacement), cuts batches from them and steps once per batch on
	// the batch's sub-objective. Scratch is sized to the batch, not the
	// dataset, so memory stays flat as M grows.
	// 0 (the default) keeps full-batch L-BFGS.
	BatchSize int
	// Epochs bounds SGD epochs per restart (each epoch visits every
	// record once). Only used when BatchSize > 0. Default 30.
	Epochs int
	// LearnRate is the per-item SGD step size: each batch steps by
	// (LearnRate/batch)·∇. Only used when BatchSize > 0. Default 0.01.
	LearnRate float64
	// WarmStart, when non-nil, seeds restart 0 from a previously fitted
	// model instead of a random draw: α and the prototypes are copied
	// into the initial parameter vector, so a refit on drifted data
	// continues from the served representation rather than from scratch.
	// The remaining Restarts−1 restarts stay random, so a warm start can
	// only improve the best-of-N outcome. The model must match K and the
	// data's column count. Its P/TakeRoot/Kernel are NOT copied — the
	// refit trains under this Options' geometry.
	WarmStart *Model
	// Seed makes training deterministic.
	Seed int64
}

func (o *Options) fill(rows, cols int) error {
	if o.K <= 0 {
		return errors.New("ifair: Options.K must be positive")
	}
	if o.Lambda < 0 || o.Mu < 0 {
		return errors.New("ifair: Lambda and Mu must be non-negative")
	}
	for _, p := range o.Protected {
		if p < 0 || p >= cols {
			return fmt.Errorf("ifair: protected index %d out of range for %d columns", p, cols)
		}
	}
	if o.Fairness == PairwiseFairness && o.Mu > 0 && rows > MaxPairwiseRows {
		return fmt.Errorf(
			"ifair: PairwiseFairness enumerates all %d·(%d−1)/2 record pairs, beyond the %d-row support limit; use SampledFairness or NeighborFairness, whose pair budgets are rows·PairSamples",
			rows, rows, MaxPairwiseRows)
	}
	if o.PairSamples <= 0 {
		o.PairSamples = 16
	}
	if o.NeighborK <= 0 {
		o.NeighborK = DefaultNeighborK
	}
	if o.P == 0 {
		o.P = 2
	}
	if math.IsNaN(o.P) || math.IsInf(o.P, 0) || o.P < 1 {
		return fmt.Errorf("ifair: Minkowski exponent p = %v is not a metric (need p ≥ 1)", o.P)
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 150
	}
	if o.BatchSize < 0 {
		return errors.New("ifair: BatchSize must be non-negative")
	}
	if ws := o.WarmStart; ws != nil {
		if err := ws.Validate(); err != nil {
			return fmt.Errorf("ifair: WarmStart model: %w", err)
		}
		if ws.K() != o.K {
			return fmt.Errorf("ifair: WarmStart model has K=%d prototypes, Options.K is %d", ws.K(), o.K)
		}
		if ws.Dims() != cols {
			return fmt.Errorf("ifair: WarmStart model expects %d attributes, training data has %d", ws.Dims(), cols)
		}
	}
	if o.BatchSize > 0 {
		if o.Epochs <= 0 {
			o.Epochs = 30
		}
		if o.LearnRate <= 0 {
			o.LearnRate = 0.01
		}
	}
	return nil
}
