package drift

import (
	"fmt"
	"math/rand"

	"repro/internal/stats"
)

// quantileSampleRows is the seeded reservoir size the streaming builder
// estimates quantile bin edges from. 4096 rows pins every decile edge
// well inside the PSI tolerance of the monitor while keeping the builder
// O(1) in the input size.
const quantileSampleRows = 4096

// ProfileBuilder assembles a drift Profile in a single streaming pass —
// it implements ingest's RowObserver, so `-ingest ... -save-profile` can
// build the serving baseline during the same scan that writes the shard
// store, with no second pass over the data.
//
// The builder observes raw (pre-standardisation) encoded rows and holds
// only bounded state: per-column Welford moments, a seeded reservoir for
// quantile-edge estimation and a second seeded reservoir for the
// profile's reference sample. Build then standardises the retained rows
// with the caller's transform, so the emitted Profile describes the same
// space as one built from the in-memory standardised matrix. Bin edges
// (and the reference sample itself) come from reservoir samples rather
// than the full data — an approximation the PSI monitor tolerates by
// construction, since it compares proportions, not exact edges.
//
// Determinism: given the same row sequence, the builder's output is a
// pure function of (bins, refRows, seed). Ingest replays durable rows to
// observers on resume, so a killed-and-resumed ingest builds the same
// profile as an uninterrupted one.
type ProfileBuilder struct {
	bins int
	seed int64
	rng  *rand.Rand

	rows     int
	moments  []stats.Welford
	quantile *reservoir
	ref      *reservoir
}

// reservoir is Vitter's algorithm R over copied rows.
type reservoir struct {
	cap  int
	rows [][]float64
}

// observe offers row (copied on retention) as the n-th observation
// (1-based), drawing from rng.
func (r *reservoir) observe(rng *rand.Rand, n int, row []float64) {
	if len(r.rows) < r.cap {
		r.rows = append(r.rows, append([]float64(nil), row...))
		return
	}
	if j := rng.Intn(n); j < r.cap {
		r.rows[j] = append(r.rows[j][:0], row...)
	}
}

// NewProfileBuilder returns a streaming builder with the given PSI bin
// count (DefaultBins when <= 0), reference-sample size
// (DefaultReferenceRows when <= 0) and sampling seed.
func NewProfileBuilder(bins, refRows int, seed int64) *ProfileBuilder {
	if bins <= 0 {
		bins = DefaultBins
	}
	if refRows <= 0 {
		refRows = DefaultReferenceRows
	}
	qRows := quantileSampleRows
	if qRows < refRows {
		qRows = refRows
	}
	return &ProfileBuilder{
		bins:     bins,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		quantile: &reservoir{cap: qRows},
		ref:      &reservoir{cap: refRows},
	}
}

// ObserveRow folds one encoded row into the builder. It implements the
// ingest pipeline's RowObserver; rows are copied, so callers may reuse
// the slice.
func (b *ProfileBuilder) ObserveRow(row []float64) {
	if b.moments == nil {
		b.moments = make([]stats.Welford, len(row))
	}
	if len(row) != len(b.moments) {
		panic(fmt.Sprintf("drift: row has %d columns, builder saw %d before", len(row), len(b.moments)))
	}
	b.rows++
	for j, v := range row {
		b.moments[j].Add(v)
	}
	b.quantile.observe(b.rng, b.rows, row)
	b.ref.observe(b.rng, b.rows, row)
}

// Build emits the Profile, standardising the retained state with the
// given per-column transform through stats.ApplyStandardize (zero stds
// count as 1). Pass the ingest store's MeanStd so the profile
// describes the exact space the model was fitted in. Build may be called
// once; it consumes the retained reservoirs.
func (b *ProfileBuilder) Build(means, stds []float64) (*Profile, error) {
	if b.rows == 0 {
		return nil, fmt.Errorf("drift: cannot build a profile from zero rows")
	}
	n := len(b.moments)
	if len(means) != n || len(stds) != n {
		return nil, fmt.Errorf("drift: transform has %d/%d columns, rows have %d", len(means), len(stds), n)
	}
	stand := func(rows [][]float64) {
		for _, r := range rows {
			stats.ApplyStandardize(r, r, means, stds)
		}
	}
	stand(b.quantile.rows)
	stand(b.ref.rows)

	base := &Baseline{
		Dims:   n,
		Rows:   b.rows,
		Edges:  make([][]float64, n),
		Expect: make([][]float64, n),
		Mean:   make([]float64, n),
		Std:    make([]float64, n),
	}
	col := make([]float64, len(b.quantile.rows))
	for j := 0; j < n; j++ {
		for i, r := range b.quantile.rows {
			col[i] = r[j]
		}
		base.Edges[j] = stats.QuantileEdges(col, b.bins)
		base.Expect[j] = stats.Proportions(col, base.Edges[j])
		base.Mean[j] = b.moments[j].Mean()
		base.Std[j] = b.moments[j].StdDev()
	}
	// Moments cover every observed row, not just the sample, mapped
	// through the same affine transform; a standard deviation only
	// scales, so it is standardised against zero means.
	stats.ApplyStandardize(base.Mean, base.Mean, means, stds)
	stats.ApplyStandardize(base.Std, base.Std, make([]float64, n), stds)

	p := &Profile{Seed: b.seed, Baseline: base, Reference: b.ref.rows}
	b.quantile.rows = nil
	b.ref.rows = nil
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}
