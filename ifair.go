// Package repro is a from-scratch Go implementation of
//
//	Lahoti, Gummadi, Weikum: "iFair: Learning Individually Fair Data
//	Representations for Algorithmic Decision Making", ICDE 2019.
//
// The root package is the public facade: it re-exports the iFair learner,
// the baselines it is evaluated against (LFR, FA*IR, SVD), the dataset
// simulators and the evaluation metrics, so downstream users never import
// internal packages. See README.md for a quickstart, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
package repro

import (
	"context"

	"repro/internal/adversarial"
	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/fairrank"
	"repro/internal/ifair"
	"repro/internal/kernel"
	"repro/internal/knn"
	"repro/internal/lfr"
	"repro/internal/linmodel"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/pipeline"
)

// Matrix is the dense row-major matrix type used for all data.
type Matrix = mat.Dense

// NewMatrix returns a rows×cols zero matrix.
func NewMatrix(rows, cols int) *Matrix { return mat.NewDense(rows, cols) }

// MatrixFromRows builds a matrix from row slices, copying them.
func MatrixFromRows(rows [][]float64) *Matrix { return mat.FromRows(rows) }

// ---- the paper's core contribution ----

// Model is a fitted iFair representation (prototypes + attribute weights).
type Model = ifair.Model

// Options configures Fit.
type Options = ifair.Options

// Initialisation variants of Sec. V-B.
const (
	// IFairA initialises all attribute weights randomly (iFair-a).
	IFairA = ifair.InitRandom
	// IFairB initialises protected attribute weights near zero (iFair-b).
	IFairB = ifair.InitMaskedProtected
)

// Fairness-loss pairing strategies.
const (
	// PairwiseFairness evaluates Def. 5 over all record pairs. It is
	// rejected above MaxPairwiseRows records when the fairness loss is
	// active — use one of the O(M·S) modes below at scale.
	PairwiseFairness = ifair.PairwiseFairness
	// SampledFairness pairs each record with a sample of partners.
	SampledFairness = ifair.SampledFairness
	// NeighborFairness pairs each record with partners drawn from its
	// nearest neighbours on the non-protected attributes (exact k-d tree
	// queries) — the recommended mode for large datasets.
	NeighborFairness = ifair.NeighborFairness
)

// MaxPairwiseRows is the largest record count PairwiseFairness accepts
// when the fairness loss is active.
const MaxPairwiseRows = ifair.MaxPairwiseRows

// Membership kernels (the paper's Def. 8 default plus the heavy-tailed
// alternative from its future-work direction).
const (
	// ExpKernel weights prototypes as exp(−d) — the paper's softmax.
	ExpKernel = ifair.ExpKernel
	// InverseKernel weights prototypes as 1/(1+d).
	InverseKernel = ifair.InverseKernel
)

// Fit learns an individually fair representation of x. It is a
// convenience wrapper around FitContext with a background context.
func Fit(x *Matrix, opts Options) (*Model, error) { return ifair.Fit(x, opts) }

// FitContext is Fit with cancellation and observability: ctx cancellation
// stops every in-flight restart within one optimizer iteration, per-restart
// progress streams to opts.Trace, and opts.RestartWorkers restarts train
// concurrently (the returned model is bit-identical to the serial one).
func FitContext(ctx context.Context, x *Matrix, opts Options) (*Model, error) {
	return ifair.FitContext(ctx, x, opts)
}

// ---- training observability ----

// Trace receives optimizer progress events during a fit. Implementations
// must be safe for concurrent use: restarts may train in parallel.
type Trace = ifair.Trace

// Iteration is one accepted optimizer step, as reported to a Trace and to
// the per-iteration Callback of the low-level optimizer settings.
type Iteration = ifair.Iteration

// OptResult is the final state of one optimizer run, as reported to
// Trace.RestartEnd.
type OptResult = optimize.Result

// ---- crash-safe training ----

// CheckpointManager persists training state atomically so a killed or
// crashed fit can resume. Open one with OpenCheckpoint and set it as
// Options.Checkpoint; a resumed fit skips every restart the snapshot
// already holds and produces a model bit-identical to an uninterrupted
// run. Snapshots written for different data, options or seed are detected
// by fingerprint and ignored (or rejected under CheckpointConfig.Strict).
type CheckpointManager = checkpoint.Manager

// CheckpointConfig configures OpenCheckpoint; the zero value needs only
// Dir.
type CheckpointConfig = checkpoint.Config

// ErrCheckpointCorrupt marks snapshot files that fail decoding (truncated
// or bit-flipped); the manager skips them in favour of the newest good
// snapshot and reports them via CorruptFiles.
var ErrCheckpointCorrupt = checkpoint.ErrCorrupt

// OpenCheckpoint opens (or creates) a checkpoint directory for crash-safe
// training.
func OpenCheckpoint(cfg CheckpointConfig) (*CheckpointManager, error) { return checkpoint.Open(cfg) }

// ---- transforms ----
//
// The functions below are one-off transforms: each compiles the model
// into a float64 kernel and reports an invalid model or input of the
// wrong width as an error.

// Transform maps every row of x to its fair representation.
func Transform(m *Model, x *Matrix) (*Matrix, error) { return m.TransformChecked(x) }

// TransformRow maps one record to its fair representation.
func TransformRow(m *Model, x []float64) ([]float64, error) { return m.TransformRowChecked(x) }

// Probabilities returns the prototype-membership distribution u for one
// record.
func Probabilities(m *Model, x []float64) ([]float64, error) { return m.ProbabilitiesChecked(x) }

// ---- serving kernels ----
//
// Repeated transforms (a serving loop, a batch pipeline) should compile
// the fitted model once into an immutable CompiledKernel and call its
// destination-passing methods: the per-row fused transform touches one
// contiguous parameter block, draws scratch from an internal pool and
// performs zero heap allocations. The kernel is the only transform
// implementation, so both routes give bit-identical results.

// CompiledKernel is an immutable, concurrency-safe serving kernel
// compiled from a fitted model: contiguous parameters, pooled scratch,
// allocation-free *Into transforms that reproduce the training forward
// pass bit for bit.
type CompiledKernel = kernel.CompiledKernel

// CompileKernel validates m and compiles it into a serving kernel.
func CompileKernel(m *Model) (*CompiledKernel, error) { return m.Compile(kernel.Float64) }

// DecodeModel reads a model previously serialised with Model.Encode.
var DecodeModel = ifair.DecodeModel

// LoadModelFile reads and validates a model file written by Model.Encode —
// the same loader cmd/ifair and the serving registry (cmd/ifair-server)
// use.
var LoadModelFile = ifair.LoadModelFile

// ---- baselines ----

// LFRModel is the Learning Fair Representations baseline of Zemel et al.
type LFRModel = lfr.Model

// LFROptions configures FitLFR.
type LFROptions = lfr.Options

// FitLFR trains the LFR baseline. It is a convenience wrapper around
// FitLFRContext with a background context.
func FitLFR(x *Matrix, y, protected []bool, opts LFROptions) (*LFRModel, error) {
	return lfr.Fit(x, y, protected, opts)
}

// FitLFRContext is FitLFR with cancellation, tracing and parallel
// restarts, mirroring FitContext.
func FitLFRContext(ctx context.Context, x *Matrix, y, protected []bool, opts LFROptions) (*LFRModel, error) {
	return lfr.FitContext(ctx, x, y, protected, opts)
}

// CensoredModel is the censored-representation baseline from the paper's
// Related Work (refs [9], [22]): iterative null-space projection that
// strips linearly recoverable protected information.
type CensoredModel = adversarial.Model

// CensoredOptions configures FitCensored.
type CensoredOptions = adversarial.Options

// FitCensored trains the censoring projection. It is a convenience
// wrapper around FitCensoredContext with a background context.
func FitCensored(x *Matrix, protected []bool, opts CensoredOptions) (*CensoredModel, error) {
	return adversarial.Fit(x, protected, opts)
}

// FitCensoredContext is FitCensored with cancellation; its deterministic
// null-space rounds report to opts.Trace as restart 0.
func FitCensoredContext(ctx context.Context, x *Matrix, protected []bool, opts CensoredOptions) (*CensoredModel, error) {
	return adversarial.FitContext(ctx, x, protected, opts)
}

// FairRanking is the output of the FA*IR re-ranking baseline.
type FairRanking = fairrank.Result

// FairReRank applies the FA*IR algorithm of Zehlike et al. with target
// proportion p and significance alpha, returning a fair permutation plus
// interpolated fair scores.
func FairReRank(scores []float64, protected []bool, k int, p, alpha float64) (*FairRanking, error) {
	return fairrank.ReRank(scores, protected, k, p, alpha)
}

// FairReRankAdjusted is FairReRank with the multiple-testing correction of
// Zehlike et al.: the prefix tests run at the corrected significance αc so
// the family-wise error stays at alpha.
func FairReRankAdjusted(scores []float64, protected []bool, k int, p, alpha float64) (*FairRanking, error) {
	return fairrank.ReRankAdjusted(scores, protected, k, p, alpha)
}

// ---- datasets ----

// Dataset is an encoded, standardised dataset with fairness metadata.
type Dataset = dataset.Dataset

// ClassificationConfig and RankingConfig size the dataset simulators.
type (
	ClassificationConfig = dataset.ClassificationConfig
	RankingConfig        = dataset.RankingConfig
)

// XingWeights are the ranking-score weights of Sec. V-A / Table IV.
type XingWeights = dataset.XingWeights

// Dataset simulators standing in for the paper's five real datasets (see
// DESIGN.md for the substitution rationale).
var (
	Compas = dataset.Compas
	Census = dataset.Census
	Credit = dataset.Credit
	Airbnb = dataset.Airbnb
	Xing   = dataset.Xing
)

// SyntheticMixture generates the Sec. IV synthetic study data.
var SyntheticMixture = dataset.SyntheticMixture

// Mixture variants of the Sec. IV study.
const (
	VariantRandom       = dataset.VariantRandom
	VariantCorrelatedX1 = dataset.VariantCorrelatedX1
	VariantCorrelatedX2 = dataset.VariantCorrelatedX2
)

// ThreeWaySplit partitions record indices into train/validation/test.
var ThreeWaySplit = dataset.ThreeWaySplit

// CSVSchema describes how LoadCSV interprets a user-supplied CSV file.
type CSVSchema = dataset.CSVSchema

// LoadCSV reads a numeric CSV with a header row into a Dataset, applying
// the same unit-variance standardisation as the built-in simulators.
var LoadCSV = dataset.LoadCSV

// Task kinds for CSVSchema.
const (
	ClassificationTask = dataset.Classification
	RankingTask        = dataset.Ranking
)

// ---- downstream models ----

// LogisticModel is the standard classifier of the evaluation (Sec. V-B).
type LogisticModel = linmodel.Logistic

// LinearModel is the learning-to-rank regression model of the evaluation.
type LinearModel = linmodel.Linear

// FitLogistic trains an L2-regularised logistic-regression classifier.
var FitLogistic = linmodel.FitLogistic

// FitLinear trains a ridge-regularised linear regression.
var FitLinear = linmodel.FitLinear

// KDTree is the exact k-nearest-neighbour index over matrix rows: the
// consistency metric's neighbour sets and NeighborFairness training pairs
// both come from it. Ties in distance are broken by the lower row index.
type KDTree = knn.KDTree

// NewKDTree builds a k-d tree over the rows of x. The tree copies the
// coordinates into its own tree-order storage, so x is not retained and
// may be modified afterwards.
var NewKDTree = knn.NewKDTree

// ---- metrics ----

// Evaluation measures of Sec. V-C.
var (
	Accuracy          = metrics.Accuracy
	AUC               = metrics.AUC
	Consistency       = metrics.Consistency
	StatisticalParity = metrics.StatisticalParity
	EqualOpportunity  = metrics.EqualOpportunity
	KendallTau        = metrics.KendallTau
	MeanAvgPrecision  = metrics.MeanAveragePrecision
	NDCGAtK           = metrics.NDCGAtK
	RankDescending    = metrics.RankDescending
)

// AuditResult summarises an empirical audit of the individual-fairness ε
// of Definition 1.
type AuditResult = metrics.AuditResult

// LipschitzAudit measures how far a transformation strays from preserving
// task-relevant pairwise distances; MaxViolation is the ε of Def. 1.
var LipschitzAudit = metrics.LipschitzAudit

// ---- experiment harness ----

// StudyConfig controls the experiment harness grids.
type StudyConfig = pipeline.StudyConfig

// PaperStudyConfig returns the full Sec. V-B grid.
var PaperStudyConfig = pipeline.PaperStudyConfig

// Studies reproducing the paper's tables and figures. Each is a
// convenience wrapper around its Context counterpart below.
var (
	Fig2Study        = pipeline.Fig2Study
	TradeoffStudy    = pipeline.TradeoffStudy
	Table3           = pipeline.Table3
	Table4           = pipeline.Table4
	Table5           = pipeline.Table5
	AdversarialStudy = pipeline.AdversarialStudy
	PostProcessStudy = pipeline.PostProcessStudy
)

// Context-aware study variants: cancelling ctx aborts the grid, including
// every training run in flight; StudyConfig.Trace observes all of them.
var (
	Fig2StudyContext        = pipeline.Fig2StudyContext
	TradeoffStudyContext    = pipeline.TradeoffStudyContext
	Table3Context           = pipeline.Table3Context
	Table4Context           = pipeline.Table4Context
	Table5Context           = pipeline.Table5Context
	AdversarialStudyContext = pipeline.AdversarialStudyContext
	PostProcessStudyContext = pipeline.PostProcessStudyContext
)
