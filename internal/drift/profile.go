// Package drift detects distribution shift between the data a model was
// fitted on and the data it is serving. A Profile — per-feature baseline
// statistics plus a held reference sample — is exported at fit time; at
// serving time a Monitor streams live traffic into Welford moments and
// seeded reservoir windows and compares them against the baseline (PSI
// per feature, mean shift in baseline-σ units), while a Consistency
// estimator replays sampled (input, transform) pairs against the
// reference set through internal/knn to track a live analogue of the
// paper's yNN metric. The rollout guard in internal/server consumes both
// signals to decide canary promote/rollback.
package drift

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/mat"
	"repro/internal/stats"
)

// DefaultBins is the per-feature PSI bin count used when none is given.
// Ten quantile bins is the conventional PSI setup: coarse enough that a
// modest serving window fills every bin, fine enough to see tail shifts.
const DefaultBins = 10

// DefaultReferenceRows is the reference-sample size a fit-time profile
// export uses when none is given: large enough for stable nearest-
// neighbour consistency estimates, small enough to keep profiles cheap
// to ship to every replica.
const DefaultReferenceRows = 256

// Baseline holds the fit-time per-feature statistics a Monitor compares
// live traffic against: quantile bin edges with their expected
// proportions (for PSI) and first/second moments (for σ-unit mean-shift
// reporting).
type Baseline struct {
	// Dims is the feature count; all per-feature slices have this length.
	Dims int `json:"dims"`
	// Rows is the number of training rows the baseline was built from.
	Rows int `json:"rows"`
	// Edges[j] are the interior quantile bin edges for feature j
	// (possibly fewer than Bins−1 for low-cardinality features).
	Edges [][]float64 `json:"edges"`
	// Expect[j] are the expected proportions per bin for feature j,
	// len(Edges[j])+1 values.
	Expect [][]float64 `json:"expect"`
	// Mean and Std are the per-feature training moments.
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// NewBaseline profiles the rows of x into a Baseline with the given PSI
// bin count (DefaultBins when bins <= 0).
func NewBaseline(x *mat.Dense, bins int) *Baseline {
	if bins <= 0 {
		bins = DefaultBins
	}
	m, n := x.Dims()
	b := &Baseline{
		Dims:   n,
		Rows:   m,
		Edges:  make([][]float64, n),
		Expect: make([][]float64, n),
		Mean:   make([]float64, n),
		Std:    make([]float64, n),
	}
	col := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			col[i] = x.At(i, j)
		}
		b.Edges[j] = stats.QuantileEdges(col, bins)
		b.Expect[j] = stats.Proportions(col, b.Edges[j])
		b.Mean[j] = stats.Mean(col)
		b.Std[j] = stats.StdDev(col)
	}
	return b
}

func (b *Baseline) validate() error {
	if b.Dims <= 0 {
		return fmt.Errorf("drift: baseline dims %d", b.Dims)
	}
	if len(b.Edges) != b.Dims || len(b.Expect) != b.Dims ||
		len(b.Mean) != b.Dims || len(b.Std) != b.Dims {
		return fmt.Errorf("drift: baseline per-feature slices do not match dims %d", b.Dims)
	}
	for j := range b.Expect {
		if len(b.Expect[j]) != len(b.Edges[j])+1 {
			return fmt.Errorf("drift: feature %d has %d expected proportions for %d edges",
				j, len(b.Expect[j]), len(b.Edges[j]))
		}
	}
	return nil
}

// Profile is the fit-time export consumed by the serving tier: the drift
// baseline plus a seeded reference sample of training rows used by the
// live consistency estimator (each version's kernel transforms the same
// reference rows, making per-version consistency directly comparable).
type Profile struct {
	// Seed is the sampling seed the reference rows were drawn with;
	// recorded so a profile regeneration is reproducible.
	Seed int64 `json:"seed"`
	// Baseline is the per-feature drift baseline.
	Baseline *Baseline `json:"baseline"`
	// Reference holds the sampled training rows, row-major.
	Reference [][]float64 `json:"reference"`
}

// NewProfile builds a Profile from training data: a Baseline over all
// rows plus up to refRows reference rows drawn by seeded sampling
// without replacement (all rows, in order, when refRows >= m).
func NewProfile(x *mat.Dense, bins, refRows int, seed int64) *Profile {
	m, _ := x.Dims()
	p := &Profile{Seed: seed, Baseline: NewBaseline(x, bins)}
	if refRows <= 0 || refRows >= m {
		p.Reference = make([][]float64, m)
		for i := 0; i < m; i++ {
			p.Reference[i] = append([]float64(nil), x.Row(i)...)
		}
		return p
	}
	// Seeded partial Fisher–Yates: the first refRows entries of a
	// shuffled index permutation, then sorted-by-construction order is
	// irrelevant to the estimator, so keep draw order.
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	p.Reference = make([][]float64, refRows)
	for i := 0; i < refRows; i++ {
		j := i + rng.Intn(m-i)
		idx[i], idx[j] = idx[j], idx[i]
		p.Reference[i] = append([]float64(nil), x.Row(idx[i])...)
	}
	return p
}

// ReferenceMatrix returns the reference rows as a Dense matrix.
func (p *Profile) ReferenceMatrix() *mat.Dense {
	return mat.FromRows(p.Reference)
}

func (p *Profile) validate() error {
	if p.Baseline == nil {
		return fmt.Errorf("drift: profile has no baseline")
	}
	if err := p.Baseline.validate(); err != nil {
		return err
	}
	for i, row := range p.Reference {
		if len(row) != p.Baseline.Dims {
			return fmt.Errorf("drift: reference row %d has %d dims, baseline %d",
				i, len(row), p.Baseline.Dims)
		}
	}
	return nil
}

// Encode writes the profile as JSON.
func (p *Profile) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

// DecodeProfile reads and validates a JSON profile.
func DecodeProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("drift: decode profile: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// SaveProfile publishes the profile at path with
// checkpoint.WriteFileAtomic, staged in path+".tmp": a failed encode or
// a crash mid-write leaves the previous file at path as it was.
func SaveProfile(path string, p *Profile) error {
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(checkpoint.OSFS{}, path+".tmp", path, buf.Bytes())
}

// LoadProfile reads a profile from path.
func LoadProfile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeProfile(f)
}
