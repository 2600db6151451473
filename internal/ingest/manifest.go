package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/stats"
)

// ShardInfo is the manifest's record of one durable shard.
type ShardInfo struct {
	// Index is the shard's position, matching its file name.
	Index int `json:"index"`
	// Rows is the encoded row count of the shard.
	Rows int `json:"rows"`
	// CRC is the CRC-64/ECMA of the whole framed shard file, hex-encoded
	// (JSON numbers cannot carry 64 bits exactly).
	CRC string `json:"crc"`
}

// Manifest is the shard store's table of contents: the resolved schema
// identity, the durable shard list, and the cumulative counters and
// moments through the last durable shard. Like a shard it is wrapped in
// checkpoint.Frame (under its own magic) and published with
// checkpoint.WriteFileAtomic after every sealed shard, and it is the
// single commit point of the ingest: a shard not referenced here (or
// adoptable as the unique next orphan) does not exist.
type Manifest struct {
	// SchemaSum fingerprints the resolved layout (column sources and
	// outcome). A resume whose schema hashes differently is rejected.
	SchemaSum string `json:"schema_sum"`
	// Cols is the encoded feature width.
	Cols int `json:"cols"`
	// FeatureNames are the encoded column names.
	FeatureNames []string `json:"feature_names"`
	// ProtectedCols are the encoded protected column indices.
	ProtectedCols []int `json:"protected_cols"`
	// ShardRows is the configured rows-per-shard (the last shard may be
	// shorter).
	ShardRows int `json:"shard_rows"`
	// HasLabel / HasScore mirror the schema's outcome declaration.
	HasLabel bool `json:"has_label,omitempty"`
	HasScore bool `json:"has_score,omitempty"`
	// Shards lists the durable shards in order.
	Shards []ShardInfo `json:"shards"`
	// GoodRows, BadRows and InputRows are cumulative through the last
	// durable shard (matching that shard's own counters).
	GoodRows  uint64 `json:"good_rows"`
	BadRows   uint64 `json:"bad_rows"`
	InputRows uint64 `json:"input_rows"`
	// Moments is the cumulative per-column Welford state through the
	// last durable shard.
	Moments []stats.Welford `json:"moments"`
	// Complete marks an ingest that consumed its whole input. A stream
	// refuses to open an incomplete store unless explicitly allowed.
	Complete bool `json:"complete"`
}

// EncodeManifest frames the manifest as magic || length || JSON || CRC-64.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("ingest: encode manifest: %v", err)
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("ingest: encode manifest: %w", err)
	}
	return checkpoint.Frame(manifestMagic, payload), nil
}

// DecodeManifest verifies the frame and checksum and unmarshals the
// payload; every failure wraps ErrCorrupt.
func DecodeManifest(data []byte) (*Manifest, error) {
	payload, err := checkpoint.Unframe(data, manifestMagic)
	if err != nil {
		return nil, corruptf("manifest frame: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, corruptf("manifest payload is not valid JSON: %v", err)
	}
	if err := m.validate(); err != nil {
		return nil, corruptf("manifest inconsistent: %v", err)
	}
	return &m, nil
}

// validate rejects manifests that are well-formed JSON but not a coherent
// store description.
func (m *Manifest) validate() error {
	if m.Cols <= 0 {
		return fmt.Errorf("non-positive column count %d", m.Cols)
	}
	if len(m.FeatureNames) != m.Cols {
		return fmt.Errorf("%d feature names for %d columns", len(m.FeatureNames), m.Cols)
	}
	if m.ShardRows <= 0 {
		return fmt.Errorf("non-positive shard rows %d", m.ShardRows)
	}
	if m.HasLabel && m.HasScore {
		return fmt.Errorf("both label and score outcomes")
	}
	for _, c := range m.ProtectedCols {
		if c < 0 || c >= m.Cols {
			return fmt.Errorf("protected column %d out of range [0, %d)", c, m.Cols)
		}
	}
	var total uint64
	for i, si := range m.Shards {
		if si.Index != i {
			return fmt.Errorf("shard %d recorded at position %d", si.Index, i)
		}
		if si.Rows <= 0 || si.Rows > m.ShardRows {
			return fmt.Errorf("shard %d has %d rows, limit %d", i, si.Rows, m.ShardRows)
		}
		if i < len(m.Shards)-1 && si.Rows != m.ShardRows {
			return fmt.Errorf("non-final shard %d has %d rows, want %d", i, si.Rows, m.ShardRows)
		}
		if _, err := strconv.ParseUint(si.CRC, 16, 64); err != nil {
			return fmt.Errorf("shard %d has unparseable CRC %q", i, si.CRC)
		}
		total += uint64(si.Rows)
	}
	if total != m.GoodRows {
		return fmt.Errorf("shards hold %d rows, counters say %d good rows", total, m.GoodRows)
	}
	if m.InputRows != m.GoodRows+m.BadRows {
		return fmt.Errorf("counters inconsistent: input %d != good %d + bad %d", m.InputRows, m.GoodRows, m.BadRows)
	}
	if len(m.Moments) != m.Cols {
		return fmt.Errorf("%d moment columns for %d columns", len(m.Moments), m.Cols)
	}
	for j, w := range m.Moments {
		if w.N != int64(m.GoodRows) {
			return fmt.Errorf("moment column %d has count %d, want %d", j, w.N, m.GoodRows)
		}
		if math.IsNaN(w.M) || math.IsInf(w.M, 0) || math.IsNaN(w.S) || math.IsInf(w.S, 0) || w.S < 0 {
			return fmt.Errorf("moment column %d is non-finite or negative", j)
		}
	}
	return nil
}
