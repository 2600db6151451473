package ifair

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Model is a fitted iFair representation: K prototype vectors and the
// attribute-weight vector α of the distance function (Def. 7). A model is
// application-agnostic — it can transform any record with the same schema,
// for use by arbitrary downstream classifiers and rankers.
type Model struct {
	// Prototypes is the K×N matrix whose rows are the prototype vectors
	// v_k.
	Prototypes *mat.Dense
	// Alpha is the non-negative attribute weight vector of the distance
	// kernel.
	Alpha []float64
	// P, TakeRoot and Kernel record the distance and membership
	// configuration the model was trained with.
	P        float64
	TakeRoot bool
	Kernel   Kernel

	// Loss is the optimiser's final objective value, used for
	// best-of-restarts selection and reporting. For an L-BFGS fit it is
	// the training objective at the returned parameters. For an SGD fit
	// it is the last epoch's summed batch losses, accumulated along the
	// trajectory as optimize.SGD documents, so it differs from the
	// objective evaluated at the returned parameters.
	Loss float64
}

// K returns the number of prototypes.
func (m *Model) K() int { return m.Prototypes.Rows() }

// Dims returns the attribute dimensionality N.
func (m *Model) Dims() int { return m.Prototypes.Cols() }

// Validate checks the internal consistency of a model — dimensions agree,
// weights are non-negative and finite, the Minkowski exponent and kernel
// are supported. Hand-built or deserialised models should be validated
// before serving traffic; Fit always returns a valid model.
func (m *Model) Validate() error {
	if m.Prototypes == nil {
		return fmt.Errorf("ifair: model has no prototypes")
	}
	k, n := m.Prototypes.Dims()
	if k <= 0 || n <= 0 {
		return fmt.Errorf("ifair: invalid model dimensions K=%d N=%d", k, n)
	}
	if len(m.Alpha) != n {
		return fmt.Errorf("ifair: alpha length %d does not match N=%d", len(m.Alpha), n)
	}
	for i, a := range m.Alpha {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("ifair: non-finite attribute weight alpha[%d]=%v", i, a)
		}
		if a < 0 {
			return fmt.Errorf("ifair: negative attribute weight alpha[%d]=%v", i, a)
		}
	}
	for i, v := range m.Prototypes.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ifair: non-finite prototype entry %d: %v", i, v)
		}
	}
	if math.IsNaN(m.P) || math.IsInf(m.P, 0) || m.P < 1 {
		return fmt.Errorf("ifair: minkowski exponent p=%v, want p ≥ 1", m.P)
	}
	if m.Kernel < ExpKernel || m.Kernel > InverseKernel {
		return fmt.Errorf("ifair: unknown kernel id %d", int(m.Kernel))
	}
	return nil
}

// membership maps a Kernel to the kernel package's weighting; both the
// training objective and Compile use it.
func (k Kernel) membership() kernel.Membership {
	if k == InverseKernel {
		return kernel.Inverse
	}
	return kernel.Exp
}

// Compile compiles the model into an immutable serving kernel (see
// internal/kernel): parameters laid out contiguously, scratch pooled, so
// the per-row transform allocates nothing, and the output reproduces the
// training forward pass bit for bit. dtype must be kernel.Float64, the
// only representation; any other value is an error. Compile validates
// the model first. Serving paths should compile once per model version
// and reuse the kernel, as the registry in internal/server does.
func (m *Model) Compile(dtype kernel.DType) (*kernel.CompiledKernel, error) {
	if dtype != kernel.Float64 {
		return nil, fmt.Errorf("ifair: unknown kernel dtype %d, want kernel.Float64", dtype)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return kernel.Compile(kernel.Spec{
		Prototypes: m.Prototypes,
		Alpha:      m.Alpha,
		P:          m.P,
		TakeRoot:   m.TakeRoot,
		Membership: m.Kernel.membership(),
	})
}

// ProbabilitiesChecked returns the cluster-membership distribution u of
// one record. Under the default ExpKernel this is Def. 8:
// u_k = softmax_k(−d(x, v_k)); under InverseKernel the weights are
// 1/(1 + d), normalised. An invalid model or a record of the wrong width
// is reported as an error. It compiles a float64 kernel per call; paths
// that evaluate many records should Compile once and call
// CompiledKernel.ProbabilitiesInto.
func (m *Model) ProbabilitiesChecked(x []float64) ([]float64, error) {
	kern, err := m.Compile(kernel.Float64)
	if err != nil {
		return nil, err
	}
	u := make([]float64, kern.K())
	if err := kern.ProbabilitiesInto(u, x); err != nil {
		return nil, err
	}
	return u, nil
}

// TransformRowChecked maps one record to its fair representation
// x̃ = Σ_k u_k·v_k (Def. 3), reporting an invalid model or a record of
// the wrong width as an error. It compiles a float64 kernel per call;
// paths that transform many records should Compile once and call
// CompiledKernel.TransformRowInto.
func (m *Model) TransformRowChecked(x []float64) ([]float64, error) {
	kern, err := m.Compile(kernel.Float64)
	if err != nil {
		return nil, err
	}
	out := make([]float64, kern.OutDims())
	if err := kern.TransformRowInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformChecked maps every row of x to its fair representation,
// returning the M×N matrix X̃ = U·Vᵀ of Def. 2, or an error for an
// invalid model or data of the wrong width.
func (m *Model) TransformChecked(x *mat.Dense) (*mat.Dense, error) {
	out := mat.NewDense(x.Rows(), x.Cols())
	if err := m.TransformInto(out, x, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformInto transforms every row of x into the matching row of dst
// (which must be x.Rows()×Dims, must not share backing storage with x,
// and is fully overwritten, never retained) using up to workers
// goroutines. It compiles a float64 kernel per call — validating the
// model in the process — and the result is bit-identical for any worker
// count; paths that transform repeatedly should Compile once and call
// the kernel directly.
func (m *Model) TransformInto(dst, x *mat.Dense, workers int) error {
	kern, err := m.Compile(kernel.Float64)
	if err != nil {
		return err
	}
	return kern.TransformInto(dst, x, workers)
}
