package ingest

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
)

// Column declares one raw numeric CSV attribute by its header name,
// which must name exactly one header column. A cell may also be a
// boolean literal (true/false, yes/no, t/f, y/n, 1/0), encoded as 0/1, so
// CSVs exported by cmd/datagen load without edits — through the streaming
// ingest and the in-memory loaders alike, since all of them validate rows
// with Layout.EncodeRow.
type Column struct {
	Name      string
	Protected bool
}

// Schema describes the expected CSV layout. Two modes:
//
//   - Explicit: Features lists the feature columns in header order. Each
//     must name exactly one header column; undeclared columns count
//     toward the row arity but are neither validated nor encoded.
//   - Inferred: Features is nil. Every header column becomes a numeric
//     feature (boolish cells accepted as 0/1); ProtectedIndex names
//     protected columns by zero-based header position.
//
// Outcome optionally names one column to extract as the per-record
// outcome instead of a feature: a boolean label by default, a numeric
// score when OutcomeScore is set.
type Schema struct {
	// Features declares the columns (explicit mode); nil infers an
	// all-numeric schema from the header row.
	Features []Column
	// ProtectedIndex lists zero-based protected header positions
	// (inferred mode only; ignored when Features is set).
	ProtectedIndex []int
	// Outcome names the outcome column ("" = no outcome; every column
	// is a feature).
	Outcome string
	// OutcomeScore parses the outcome as a float64 score instead of a
	// boolean label.
	OutcomeScore bool
}

// colSrc maps one encoded output column back to its header position.
type colSrc struct {
	col  int    // header position
	name string // encoded column name
	prot bool
}

// Layout is a Schema resolved against a concrete header row: the encoded
// column sources, the outcome position and the expected row arity. Its
// EncodeRow is the module's one CSV cell parser and validator: the
// streaming ingest and the in-memory loaders (dataset.LoadCSV, ifair
// -input) all collect their rows through it.
type Layout struct {
	srcs       []colSrc
	names      []string
	protCols   []int // encoded protected column indices
	outcomeCol int   // header position, -1 when absent
	arity      int   // expected cells per row (the header width)
	hasLabel   bool
	hasScore   bool
}

// Resolve binds the schema to a header row (names compared
// whitespace-trimmed), validating that the outcome and every declared
// feature name exactly one header column (explicit mode) or indexing the
// header as numeric features (inferred mode).
func (s *Schema) Resolve(header []string) (*Layout, error) {
	l := &Layout{outcomeCol: -1, arity: len(header)}
	trimmed := make([]string, len(header))
	idx := make(map[string]int, len(header)) // -1 marks a repeated name
	for i, h := range header {
		trimmed[i] = strings.TrimSpace(h)
		if _, dup := idx[trimmed[i]]; dup {
			idx[trimmed[i]] = -1
		} else {
			idx[trimmed[i]] = i
		}
	}
	find := func(kind, name string) (int, error) {
		c, ok := idx[name]
		if !ok {
			return 0, fmt.Errorf("%s column %q not found in header", kind, name)
		}
		if c < 0 {
			return 0, fmt.Errorf("%s column %q is ambiguous: it names more than one header column", kind, name)
		}
		return c, nil
	}
	if s.Outcome != "" {
		c, err := find("outcome", s.Outcome)
		if err != nil {
			return nil, err
		}
		l.outcomeCol = c
		l.hasLabel = !s.OutcomeScore
		l.hasScore = s.OutcomeScore
	}

	if s.Features == nil {
		// Inferred mode: every non-outcome column is a numeric feature.
		isProt := map[int]bool{}
		for _, p := range s.ProtectedIndex {
			if p < 0 || p >= len(header) {
				return nil, fmt.Errorf("protected index %d out of range for %d columns", p, len(header))
			}
			if p == l.outcomeCol {
				return nil, fmt.Errorf("protected index %d is the outcome column", p)
			}
			isProt[p] = true
		}
		for i, name := range trimmed {
			if i == l.outcomeCol {
				continue
			}
			if isProt[i] {
				l.protCols = append(l.protCols, len(l.srcs))
			}
			l.srcs = append(l.srcs, colSrc{col: i, name: name, prot: isProt[i]})
			l.names = append(l.names, name)
		}
		if len(l.srcs) == 0 {
			return nil, fmt.Errorf("no feature columns remain")
		}
		return l, nil
	}

	// Explicit mode: every declared feature must exist in the header.
	for _, spec := range s.Features {
		c, err := find("feature", spec.Name)
		if err != nil {
			return nil, err
		}
		if c == l.outcomeCol {
			return nil, fmt.Errorf("feature column %q is also the outcome", spec.Name)
		}
		if spec.Protected {
			l.protCols = append(l.protCols, len(l.srcs))
		}
		l.srcs = append(l.srcs, colSrc{col: c, name: spec.Name, prot: spec.Protected})
		l.names = append(l.names, spec.Name)
	}
	if len(l.srcs) == 0 {
		return nil, fmt.Errorf("schema declares no feature columns")
	}
	return l, nil
}

// Cols returns the encoded output width.
func (l *Layout) Cols() int { return len(l.srcs) }

// Names returns the encoded column names. The slice is shared and must not be modified.
func (l *Layout) Names() []string { return l.names }

// ProtectedCols returns the encoded protected column indices, ascending.
// The slice is shared and must not be modified.
func (l *Layout) ProtectedCols() []int { return l.protCols }

// EncodeRow validates one raw CSV record against the layout and encodes
// it into dst (len == Cols()). A non-nil error describes why the row must
// be rejected: wrong arity, an unparseable cell or a non-finite value;
// cells are checked in column declaration order. protected reports whether the first
// protected column is ≥ 0.5. dst is only meaningful on success.
func (l *Layout) EncodeRow(rec []string, dst []float64) (label bool, score float64, protected bool, err error) {
	if len(rec) != l.arity {
		return false, 0, false, fmt.Errorf("has %d cells, header has %d", len(rec), l.arity)
	}
	for j, src := range l.srcs {
		cell := strings.TrimSpace(rec[src.col])
		v, verr := parseCell(cell)
		if verr != nil {
			return false, 0, false, fmt.Errorf("column %d (%s): %v", src.col, src.name, verr)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false, 0, false, fmt.Errorf("column %d (%s): non-finite value %q", src.col, src.name, cell)
		}
		dst[j] = v
	}
	if firstProt := l.firstProtected(); firstProt >= 0 {
		protected = dst[firstProt] >= 0.5
	}
	if l.outcomeCol >= 0 {
		cell := strings.TrimSpace(rec[l.outcomeCol])
		if l.hasScore {
			v, verr := strconv.ParseFloat(cell, 64)
			if verr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return false, 0, false, fmt.Errorf("outcome: not a finite score: %q", cell)
			}
			score = v
		} else {
			b, berr := parseBoolish(cell)
			if berr != nil {
				return false, 0, false, fmt.Errorf("outcome: %v", berr)
			}
			label = b
		}
	}
	return label, score, protected, nil
}

// firstProtected returns the first encoded protected column, -1 if none.
func (l *Layout) firstProtected() int {
	if len(l.protCols) == 0 {
		return -1
	}
	return l.protCols[0]
}

// parseCell parses a numeric cell, accepting boolean literals as 0/1.
func parseCell(cell string) (float64, error) {
	v, err := strconv.ParseFloat(cell, 64)
	if err == nil {
		return v, nil
	}
	b, berr := parseBoolish(cell)
	if berr != nil {
		return 0, fmt.Errorf("cannot parse %q as a number", cell)
	}
	if b {
		return 1, nil
	}
	return 0, nil
}

// parseBoolish accepts true/false, t/f, 1/0 and yes/no (case-insensitive).
func parseBoolish(s string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "t", "1", "yes", "y":
		return true, nil
	case "false", "f", "0", "no", "n":
		return false, nil
	default:
		return false, fmt.Errorf("cannot parse %q as a boolean", s)
	}
}

// fingerprint hashes the resolved layout: the encoded column sources and
// outcome position. Two ingests may share a shard store only when their
// layouts match, so a resume against a store written under a different
// schema fails loudly instead of mixing encodings. The empty field
// between name and protected flag once held a categorical level; it
// stays so that the fingerprints of stores already on disk still match.
func (l *Layout) fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "arity=%d|outcome=%d|score=%t|", l.arity, l.outcomeCol, l.hasScore)
	for _, src := range l.srcs {
		fmt.Fprintf(&sb, "%d:%s::%t|", src.col, src.name, src.prot)
	}
	return fmt.Sprintf("%016x", checkpoint.Checksum([]byte(sb.String())))
}
