package ingest

import (
	"fmt"
	"path/filepath"
	"strconv"

	"repro/internal/checkpoint"
)

// Stream reads a completed shard store one shard at a time. Only the
// shard currently being visited is resident, so a sweep over m rows
// holds O(ShardRows·Cols) encoded data regardless of m. Every shard is
// CRC-verified and counter-chained on read — a corrupt file surfaces as
// ErrCorrupt at the caller, never as silent garbage in training.
type Stream struct {
	dir  string
	fsys checkpoint.FS
	man  *Manifest
}

// OpenStream opens the shard store at dir (fsys nil selects the real
// filesystem). It fails if the manifest is missing, corrupt, or marks an
// ingest that never completed — training on a partial store would
// silently drop the tail of the dataset.
func OpenStream(dir string, fsys checkpoint.FS) (*Stream, error) {
	if fsys == nil {
		fsys = checkpoint.OSFS{}
	}
	raw, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("ingest: open stream %s: %w", dir, err)
	}
	man, err := DecodeManifest(raw)
	if err != nil {
		return nil, err
	}
	if !man.Complete {
		return nil, fmt.Errorf("ingest: store %s is incomplete (%d shard(s), %d row(s)); finish or resume the ingest first", dir, len(man.Shards), man.GoodRows)
	}
	return &Stream{dir: dir, fsys: fsys, man: man}, nil
}

// Rows returns the total validated row count across all shards.
func (st *Stream) Rows() int { return int(st.man.GoodRows) }

// Cols returns the encoded feature width.
func (st *Stream) Cols() int { return st.man.Cols }

// FeatureNames returns the encoded column names.
func (st *Stream) FeatureNames() []string {
	return append([]string(nil), st.man.FeatureNames...)
}

// ProtectedCols returns the encoded protected column indices.
func (st *Stream) ProtectedCols() []int {
	return append([]int(nil), st.man.ProtectedCols...)
}

// MeanStd returns per-column means and standard deviations from the
// streaming moments, with the stats.Standardize convention (population
// std; stats.ApplyStandardize divides zero-variance columns by 1).
func (st *Stream) MeanStd() (means, stds []float64) {
	means = make([]float64, st.man.Cols)
	stds = make([]float64, st.man.Cols)
	for j, w := range st.man.Moments {
		means[j] = w.Mean()
		stds[j] = w.StdDev()
	}
	return means, stds
}

// Shard reads, verifies and decodes shard i. The file checksum is
// checked against the manifest and the counters against the neighbour
// entries, so a stale or swapped file is rejected even if internally
// consistent.
func (st *Stream) Shard(i int) (*Shard, error) {
	if i < 0 || i >= len(st.man.Shards) {
		return nil, fmt.Errorf("ingest: shard %d out of range [0, %d)", i, len(st.man.Shards))
	}
	si := st.man.Shards[i]
	raw, err := st.fsys.ReadFile(filepath.Join(st.dir, shardName(i)))
	if err != nil {
		return nil, corruptf("shard %d unreadable: %v", i, err)
	}
	want, perr := strconv.ParseUint(si.CRC, 16, 64)
	if perr != nil || checkpoint.Checksum(raw) != want {
		return nil, corruptf("shard %d file checksum does not match manifest", i)
	}
	sh, err := DecodeShard(raw)
	if err != nil {
		return nil, err
	}
	if sh.Index != i || sh.Cols != st.man.Cols || sh.Rows() != si.Rows {
		return nil, corruptf("shard %d has wrong identity (index %d, cols %d, rows %d)", i, sh.Index, sh.Cols, sh.Rows())
	}
	return sh, nil
}

// Sweep visits every row in order, one shard resident at a time. The row
// slice aliases the shard buffer and is only valid within the callback.
func (st *Stream) Sweep(fn func(row int, x []float64) error) error {
	rowBase := 0
	for i := range st.man.Shards {
		sh, err := st.Shard(i)
		if err != nil {
			return err
		}
		for r := 0; r < sh.Rows(); r++ {
			if err := fn(rowBase+r, sh.Data[r*sh.Cols:(r+1)*sh.Cols]); err != nil {
				return err
			}
		}
		rowBase += sh.Rows()
	}
	return nil
}
