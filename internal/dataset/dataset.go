// Package dataset provides the data substrate of the reproduction: a
// one-hot feature encoder with unit-variance normalisation (Sec. V-B), a
// seeded three-way splitter, seeded synthetic generators standing in
// for the five real-world datasets of Sec. V-A plus the Sec. IV synthetic
// mixture study, and LoadCSV for user data. LoadCSV parses and validates
// no cell itself: it collects rows through internal/ingest's row
// validator, the same one the streaming ingest uses.
//
// The real datasets (ProPublica COMPAS, UCI Census/Adult, UCI German
// Credit, InsideAirbnb, the Xing crawl) cannot be shipped; each generator
// reproduces the statistical properties the experiments exercise — record
// and feature counts of the same order, the paper's per-group base rates,
// and protected attributes that leak through correlated features. The
// substitutions are documented in DESIGN.md.
package dataset

import (
	"fmt"

	"repro/internal/mat"
)

// Task describes which downstream task a dataset serves.
type Task int

const (
	// Classification datasets carry a binary outcome label.
	Classification Task = iota
	// Ranking datasets carry a ground-truth relevance score and queries.
	Ranking
)

// Query is one ranking query: a named pool of candidate record indices.
type Query struct {
	Name string
	Rows []int
}

// Dataset is an encoded, standardised dataset ready for representation
// learning and downstream models.
type Dataset struct {
	// Name identifies the dataset in reports ("compas", "xing", ...).
	Name string
	// Task selects classification or ranking.
	Task Task
	// X is the M×N encoded feature matrix (one-hot unfolded, unit
	// variance). Protected attribute columns are included, as in the
	// paper's Full Data setting.
	X *mat.Dense
	// Label holds the binary outcome for classification datasets.
	Label []bool
	// Score holds the ground-truth relevance for ranking datasets.
	Score []float64
	// Protected flags each record's protected-group membership.
	Protected []bool
	// ProtectedCols lists the encoded column indices of protected
	// attributes (inputs to masking and to iFair-b).
	ProtectedCols []int
	// FeatureNames labels the encoded columns.
	FeatureNames []string
	// Queries lists the ranking queries (empty for classification).
	Queries []Query
}

// Rows returns the number of records.
func (d *Dataset) Rows() int { return d.X.Rows() }

// Cols returns the encoded dimensionality.
func (d *Dataset) Cols() int { return d.X.Cols() }

// BaseRates returns the fraction of positive labels within the protected
// group and its complement — the "base-rate" columns of Table II. It
// panics for ranking datasets, which have no labels.
func (d *Dataset) BaseRates() (protected, unprotected float64) {
	if d.Task != Classification {
		panic(fmt.Sprintf("dataset %q: base rates undefined for ranking task", d.Name))
	}
	var posP, nP, posU, nU float64
	for i, l := range d.Label {
		if d.Protected[i] {
			nP++
			if l {
				posP++
			}
		} else {
			nU++
			if l {
				posU++
			}
		}
	}
	if nP > 0 {
		protected = posP / nP
	}
	if nU > 0 {
		unprotected = posU / nU
	}
	return protected, unprotected
}

// MaskedX returns a copy of X with every protected column zeroed — the
// paper's Masked Data baseline. (Columns are zeroed rather than dropped so
// every representation has identical dimensionality, keeping downstream
// models and the yNN metric comparable.)
func (d *Dataset) MaskedX() *mat.Dense {
	out := d.X.Clone()
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for _, c := range d.ProtectedCols {
			row[c] = 0
		}
	}
	return out
}

// NonProtectedCols returns the encoded column indices not listed as
// protected.
func (d *Dataset) NonProtectedCols() []int {
	isProt := make(map[int]bool, len(d.ProtectedCols))
	for _, c := range d.ProtectedCols {
		isProt[c] = true
	}
	out := make([]int, 0, d.Cols())
	for j := 0; j < d.Cols(); j++ {
		if !isProt[j] {
			out = append(out, j)
		}
	}
	return out
}

// NonProtectedX returns a matrix containing only the non-protected columns
// of X — the x* view used to compute ground-truth neighbour sets for yNN.
func (d *Dataset) NonProtectedX() *mat.Dense {
	cols := d.NonProtectedCols()
	out := mat.NewDense(d.Rows(), len(cols))
	for i := 0; i < d.Rows(); i++ {
		src := d.X.Row(i)
		dst := out.Row(i)
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return out
}

// Subset extracts the records at idx into a new dataset, remapping query
// row references (queries whose rows are not all present are dropped).
func (d *Dataset) Subset(idx []int) *Dataset {
	remap := make(map[int]int, len(idx))
	x := mat.NewDense(len(idx), d.Cols())
	out := &Dataset{
		Name:          d.Name,
		Task:          d.Task,
		X:             x,
		Protected:     make([]bool, len(idx)),
		ProtectedCols: append([]int(nil), d.ProtectedCols...),
		FeatureNames:  append([]string(nil), d.FeatureNames...),
	}
	if d.Label != nil {
		out.Label = make([]bool, len(idx))
	}
	if d.Score != nil {
		out.Score = make([]float64, len(idx))
	}
	for newI, oldI := range idx {
		copy(x.Row(newI), d.X.Row(oldI))
		out.Protected[newI] = d.Protected[oldI]
		if d.Label != nil {
			out.Label[newI] = d.Label[oldI]
		}
		if d.Score != nil {
			out.Score[newI] = d.Score[oldI]
		}
		remap[oldI] = newI
	}
	for _, q := range d.Queries {
		rows := make([]int, 0, len(q.Rows))
		complete := true
		for _, r := range q.Rows {
			nr, ok := remap[r]
			if !ok {
				complete = false
				break
			}
			rows = append(rows, nr)
		}
		if complete {
			out.Queries = append(out.Queries, Query{Name: q.Name, Rows: rows})
		}
	}
	return out
}

// Stats is a printable summary row matching Table II of the paper.
type Stats struct {
	Name                string
	Records, Dims       int
	BaseRateProtected   float64
	BaseRateUnprotected float64
	ProtectedShare      float64
	QueryCount          int
}

// Summary computes the Table II row for this dataset.
func (d *Dataset) Summary() Stats {
	s := Stats{
		Name:       d.Name,
		Records:    d.Rows(),
		Dims:       d.Cols(),
		QueryCount: len(d.Queries),
	}
	var nP float64
	for _, p := range d.Protected {
		if p {
			nP++
		}
	}
	if d.Rows() > 0 {
		s.ProtectedShare = nP / float64(d.Rows())
	}
	if d.Task == Classification {
		s.BaseRateProtected, s.BaseRateUnprotected = d.BaseRates()
	}
	return s
}
