// Package pipeline is the experiment harness: it wires datasets,
// representation methods, downstream models and metrics into the studies
// the paper reports — the synthetic properties study (Fig. 2), the
// utility/fairness trade-off (Fig. 3), the classification detail table
// (Table III), the ranking experiments (Tables IV and V), the adversarial
// obfuscation study (Fig. 4), and the FA*IR post-processing study (Fig. 5).
package pipeline

import (
	"context"
	"fmt"

	"repro/internal/adversarial"
	"repro/internal/dataset"
	"repro/internal/ifair"
	"repro/internal/kernel"
	"repro/internal/lfr"
	"repro/internal/mat"
	"repro/internal/svd"
)

// Representation is a data-representation method under comparison. Fit
// learns whatever state the method needs from the training portion,
// honouring ctx for cancellation so whole study grids are abortable;
// Transform then maps any feature matrix with the same schema into the
// representation space (always of the original dimensionality N, so that
// downstream models and yNN remain comparable). Transform has no error
// path: it panics on a matrix of the wrong width.
type Representation interface {
	Name() string
	Fit(ctx context.Context, train *dataset.Dataset) error
	Transform(x *mat.Dense) *mat.Dense
}

// transformWith implements Representation.Transform for the learned
// methods: their models are compiled into a kernel once at Fit time, and
// every Transform fills a fresh x.Rows()×OutDims() matrix from it.
func transformWith(k kernel.Kernel, x *mat.Dense) *mat.Dense {
	out := mat.NewDense(x.Rows(), k.OutDims())
	if err := k.TransformInto(out, x, 1); err != nil {
		panic(err.Error())
	}
	return out
}

// FullData is the identity baseline: the original data, protected
// attributes included.
type FullData struct{}

// Name implements Representation.
func (FullData) Name() string { return "Full Data" }

// Fit implements Representation (no state).
func (FullData) Fit(context.Context, *dataset.Dataset) error { return nil }

// Transform implements Representation.
func (FullData) Transform(x *mat.Dense) *mat.Dense { return x.Clone() }

// MaskedData zeroes the protected columns — the paper's Masked Data
// baseline.
type MaskedData struct {
	protectedCols []int
}

// Name implements Representation.
func (*MaskedData) Name() string { return "Masked Data" }

// Fit implements Representation.
func (m *MaskedData) Fit(_ context.Context, train *dataset.Dataset) error {
	m.protectedCols = append([]int(nil), train.ProtectedCols...)
	return nil
}

// Transform implements Representation.
func (m *MaskedData) Transform(x *mat.Dense) *mat.Dense {
	out := x.Clone()
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for _, c := range m.protectedCols {
			row[c] = 0
		}
	}
	return out
}

// SVDRep is the SVD baseline [14]: rank-K reconstruction of the data, with
// an optional masking of protected attributes first (SVD-masked).
type SVDRep struct {
	K      int
	Masked bool

	mask *MaskedData
	dec  *svd.SVD
}

// Name implements Representation.
func (s *SVDRep) Name() string {
	if s.Masked {
		return "SVD-masked"
	}
	return "SVD"
}

// Fit implements Representation.
func (s *SVDRep) Fit(ctx context.Context, train *dataset.Dataset) error {
	if s.K <= 0 {
		return fmt.Errorf("pipeline: SVD rank %d must be positive", s.K)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	x := train.X
	if s.Masked {
		s.mask = &MaskedData{}
		if err := s.mask.Fit(ctx, train); err != nil {
			return err
		}
		x = s.mask.Transform(x)
	}
	s.dec = svd.Compute(x, 0)
	return nil
}

// Transform implements Representation.
func (s *SVDRep) Transform(x *mat.Dense) *mat.Dense {
	if s.Masked {
		x = s.mask.Transform(x)
	}
	return s.dec.ApplyRank(x, s.K)
}

// LFRRep wraps the LFR baseline [28] as a representation method.
type LFRRep struct {
	Opts lfr.Options

	kern kernel.Kernel
}

// Name implements Representation.
func (*LFRRep) Name() string { return "LFR" }

// Fit implements Representation. LFR requires labels and a protected
// group, so it only fits classification datasets.
func (l *LFRRep) Fit(ctx context.Context, train *dataset.Dataset) error {
	if train.Label == nil {
		return fmt.Errorf("pipeline: LFR requires labels; dataset %q has none", train.Name)
	}
	model, err := lfr.FitContext(ctx, train.X, train.Label, train.Protected, l.Opts)
	if err != nil {
		return err
	}
	kern, err := model.Compile()
	if err != nil {
		return err
	}
	l.kern = kern
	return nil
}

// Transform implements Representation.
func (l *LFRRep) Transform(x *mat.Dense) *mat.Dense { return transformWith(l.kern, x) }

// IFairRep wraps the paper's iFair learner as a representation method.
// Variant selects iFair-a (random α init) or iFair-b (near-zero protected
// α init); the protected column indices are taken from the dataset at Fit
// time.
type IFairRep struct {
	Opts ifair.Options

	kern kernel.Kernel
}

// Name implements Representation.
func (f *IFairRep) Name() string { return f.Opts.Init.String() }

// Fit implements Representation.
func (f *IFairRep) Fit(ctx context.Context, train *dataset.Dataset) error {
	opts := f.Opts
	opts.Protected = append([]int(nil), train.ProtectedCols...)
	model, err := ifair.FitContext(ctx, train.X, opts)
	if err != nil {
		return err
	}
	kern, err := model.Compile(kernel.Float64)
	if err != nil {
		return err
	}
	f.kern = kern
	return nil
}

// Transform implements Representation.
func (f *IFairRep) Transform(x *mat.Dense) *mat.Dense { return transformWith(f.kern, x) }

// CensoredRep wraps the adversarially censored autoencoder baseline of the
// paper's Related Work (refs [9], [22]): group-level obfuscation with no
// individual-fairness objective. It appears in the Fig. 4 and audit
// extension studies as the obfuscation-only comparator.
type CensoredRep struct {
	Opts adversarial.Options

	kern kernel.Kernel
}

// Name implements Representation.
func (*CensoredRep) Name() string { return "Censored" }

// Fit implements Representation.
func (c *CensoredRep) Fit(ctx context.Context, train *dataset.Dataset) error {
	model, err := adversarial.FitContext(ctx, train.X, train.Protected, c.Opts)
	if err != nil {
		return err
	}
	kern, err := model.Compile()
	if err != nil {
		return err
	}
	c.kern = kern
	return nil
}

// Transform implements Representation.
func (c *CensoredRep) Transform(x *mat.Dense) *mat.Dense { return transformWith(c.kern, x) }
