package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/ingest"
	"repro/internal/mat"
	"repro/internal/stats"
)

// CSVSchema describes how to interpret a user-supplied CSV file with a
// header row. All feature columns must be numeric or boolean cells
// (one-hot encode categoricals upstream, or use the Encoder API), and
// every named column must name exactly one header column.
type CSVSchema struct {
	// Task selects classification or ranking.
	Task Task
	// Outcome names the outcome column: a boolean/0-1 label for
	// classification, a numeric score for ranking.
	Outcome string
	// Protected names the protected feature columns. A record belongs to
	// the protected group when its first protected column is ≥ 0.5
	// (before standardisation).
	Protected []string
	// Query optionally names a ranking-query identifier column.
	Query string
	// Name labels the resulting dataset.
	Name string
}

// LoadCSV reads a CSV with a header row into a Dataset, applying the
// same preprocessing as the built-in simulators: features are
// standardised to zero mean and unit variance. Rows are validated and
// encoded by internal/ingest's row validator, so numeric and boolean
// cells parse exactly as in the streaming ingest; the first defect fails
// the load with its 1-based CSV line.
func LoadCSV(r io.Reader, schema CSVSchema) (*Dataset, error) {
	if schema.Outcome == "" {
		return nil, fmt.Errorf("dataset: CSVSchema.Outcome must name the outcome column")
	}
	cr := csv.NewReader(r)
	// Arity is validated per row, so ragged rows fail with a
	// row-numbered message instead of the csv package's ErrFieldCount.
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("dataset: need a header row and at least one data row")
	}
	header := records[0]

	// Feature columns: everything except outcome and query, in header
	// order (protected features stay in, as in the paper's Full Data).
	prot := make(map[string]bool, len(schema.Protected)) // name → seen as a feature
	for _, p := range schema.Protected {
		prot[p] = false
	}
	spec := ingest.Schema{
		Features:     []ingest.Column{}, // non-nil: explicit mode, never inferred
		Outcome:      schema.Outcome,
		OutcomeScore: schema.Task != Classification,
	}
	queryCol := -1
	for i, h := range header {
		name := strings.TrimSpace(h)
		switch {
		case schema.Query != "" && name == schema.Query:
			if queryCol >= 0 {
				return nil, fmt.Errorf("dataset: query column %q is ambiguous: it names more than one header column", name)
			}
			queryCol = i
		case name == schema.Outcome:
		default:
			_, isProt := prot[name]
			if isProt {
				prot[name] = true
			}
			spec.Features = append(spec.Features, ingest.Column{Name: name, Protected: isProt})
		}
	}
	if schema.Query != "" && queryCol < 0 {
		return nil, fmt.Errorf("dataset: query column %q not found", schema.Query)
	}
	for _, p := range schema.Protected {
		if !prot[p] {
			return nil, fmt.Errorf("dataset: protected column %q is not a feature column", p)
		}
	}
	lay, err := spec.Resolve(header)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}

	m := len(records) - 1
	ds := &Dataset{
		Name:          schema.Name,
		Task:          schema.Task,
		Protected:     make([]bool, m),
		ProtectedCols: lay.ProtectedCols(),
		FeatureNames:  lay.Names(),
	}
	if ds.Name == "" {
		ds.Name = "csv"
	}
	if schema.Task == Classification {
		ds.Label = make([]bool, m)
	} else {
		ds.Score = make([]float64, m)
	}
	rows := make([][]float64, m)
	queryRows := map[string][]int{}
	var queryOrder []string
	for i, rec := range records[1:] {
		rows[i] = make([]float64, lay.Cols())
		label, score, protected, err := lay.EncodeRow(rec, rows[i])
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", i+2, err)
		}
		ds.Protected[i] = protected
		if ds.Label != nil {
			ds.Label[i] = label
		} else {
			ds.Score[i] = score
		}
		if queryCol >= 0 {
			q := strings.TrimSpace(rec[queryCol])
			if _, seen := queryRows[q]; !seen {
				queryOrder = append(queryOrder, q)
			}
			queryRows[q] = append(queryRows[q], i)
		}
	}
	stats.Standardize(rows)
	ds.X = mat.FromRows(rows)
	for _, q := range queryOrder {
		ds.Queries = append(ds.Queries, Query{Name: q, Rows: queryRows[q]})
	}
	return ds, nil
}
