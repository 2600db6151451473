package ifair

import (
	"context"

	"repro/internal/ingest"
	"repro/internal/mat"
)

// FitStream is FitStreamContext with a background context.
func FitStream(st *ingest.Stream, opts Options) (*Model, *mat.Dense, error) {
	return FitStreamContext(context.Background(), st, opts)
}

// FitStreamContext trains an iFair model directly from a completed shard
// store, replacing the load-everything-then-standardise path for data
// that arrived through internal/ingest:
//
//   - Standardisation uses the store's streaming Welford moments — no
//     full-matrix pass or per-column scratch is needed to compute means
//     and deviations (stats.Standardize's zero-variance convention is
//     preserved: such columns are centred only).
//   - The training matrix is filled in one shard sweep, each shard
//     CRC-verified as it is read; a corrupt shard aborts the fit with
//     ingest.ErrCorrupt rather than training on garbage.
//
// The filled matrix then goes to FitContext, so under NeighborFairness
// the kd-tree over the non-protected subspace is built exactly as for an
// in-memory fit. One standardised M×N matrix is resident for the
// optimizer (the objective's scratch is BatchSize-bounded when
// opts.BatchSize > 0), plus the non-protected projection the neighbour
// tree indexes; decoding and standardising hold O(ShardRows·N). The
// fitted model matches an in-memory fit over the same rows to the
// precision of the streaming moments.
//
// The returned matrix is the standardised training data, for callers
// that transform the training set after fitting.
func FitStreamContext(ctx context.Context, st *ingest.Stream, opts Options) (*Model, *mat.Dense, error) {
	rows, cols := st.Rows(), st.Cols()
	if rows == 0 || cols == 0 {
		return nil, nil, ErrNoData
	}
	if err := opts.fill(rows, cols); err != nil {
		return nil, nil, err
	}
	means, stds := st.MeanStd()
	for j := range stds {
		if stds[j] == 0 {
			stds[j] = 1
		}
	}

	x := mat.NewDense(rows, cols)
	err := st.Sweep(func(row int, raw []float64) error {
		dst := x.Row(row)
		for j, v := range raw {
			dst[j] = (v - means[j]) / stds[j]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	model, err := FitContext(ctx, x, opts)
	if err != nil {
		return nil, nil, err
	}
	return model, x, nil
}
