package ingest

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/stats"
)

// DefaultShardRows is the rows-per-shard used when Config leaves it zero:
// small enough that a shard (the resident unit of every downstream sweep)
// stays a few hundred KB at typical widths, large enough that manifest
// rewrites are rare.
const DefaultShardRows = 4096

const (
	manifestName   = "manifest.ifm"
	quarantineName = "quarantine.log"
)

// shardName formats the file name of shard i.
func shardName(i int) string { return fmt.Sprintf("shard-%06d.shard", i) }

// parseShardName extracts the index from a shard file name.
func parseShardName(base string) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(base, "shard-%06d.shard", &i); err != nil || base != shardName(i) {
		return 0, false
	}
	return i, true
}

// RowObserver receives every validated encoded row, in input order,
// exactly once per logical row — including across a kill/resume, where
// rows recovered from durable shards are replayed before new input is
// consumed. drift.ProfileBuilder implements it so `-save-profile` is
// built in the same single pass as the shards.
type RowObserver interface {
	ObserveRow(row []float64)
}

// Config configures one ingest run.
type Config struct {
	// Dir is the shard-store directory; created if missing.
	Dir string
	// FS is the filesystem implementation. Nil selects checkpoint.OSFS;
	// tests inject internal/faultinject's failing FS.
	FS checkpoint.FS
	// Schema describes the CSV layout and validation rules.
	Schema Schema
	// ShardRows is the rows-per-shard (DefaultShardRows when <= 0).
	ShardRows int
	// MaxBadRows is the error budget: the run fails as soon as more than
	// this many rows have been quarantined. 0 means any bad row is fatal;
	// negative means unlimited (every bad row is quarantined and skipped).
	MaxBadRows int
	// Resume continues an interrupted ingest from the last durable shard
	// instead of failing on a non-empty store.
	Resume bool
	// Logf, when non-nil, receives human-readable notices: quarantined
	// rows, sealed shards, recovery decisions.
	Logf func(format string, args ...any)
	// Observer, when non-nil, sees every good encoded row once.
	Observer RowObserver

	// hookRow, when non-nil, runs before each input row is consumed
	// (1-based); hookSeal runs after shard idx becomes durable. Test-only
	// kill points for the crash-resume property sweep.
	hookRow  func(inputRow uint64)
	hookSeal func(shardIndex int)
}

// Result summarises a completed ingest.
type Result struct {
	// GoodRows / BadRows / InputRows are the final cumulative counts.
	GoodRows  uint64
	BadRows   uint64
	InputRows uint64
	// Shards is the number of durable shard files.
	Shards int
	// Resumed reports that a prior durable prefix was adopted; Skipped
	// is how many input rows it covered (consumed without re-validation).
	Resumed bool
	Skipped uint64
}

// BudgetError is returned when the quarantine budget is exhausted. The
// quarantine log (including the fatal row) is flushed before returning,
// so the reasons survive for postmortem.
type BudgetError struct {
	BadRows int
	Budget  int
	LastRow uint64
	Reason  string
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("ingest: error budget exhausted: %d bad row(s) exceed budget %d (row %d: %s)",
		e.BadRows, e.Budget, e.LastRow, e.Reason)
}

// runState carries one ingest run across recovery, the row loop and
// shard seals.
type runState struct {
	cfg  Config
	fsys checkpoint.FS
	lay  *Layout

	shardRows int
	manifest  *Manifest
	moments   []stats.Welford

	// Current (unsealed) shard buffers.
	data      []float64
	labels    []bool
	scores    []float64
	protected []bool

	// Cumulative counters including the unsealed buffer.
	goodRows  uint64
	badRows   uint64
	inputRows uint64

	// quarantine holds every quarantine line (bounded by the budget);
	// the log file is rewritten atomically at each seal so its durable
	// content always matches the durable counters.
	quarantine []string
}

// Run streams CSV from r into the shard store at cfg.Dir. The first
// record is the header; every later record is validated, quarantined or
// encoded, and good rows are sealed into CRC-framed shards of
// cfg.ShardRows rows each, with the manifest updated atomically after
// every seal. The run is killable at any point: re-running with
// cfg.Resume continues from the last durable shard and produces a store
// byte-identical to an uninterrupted run over the same input.
func Run(ctx context.Context, r io.Reader, cfg Config) (*Result, error) {
	if cfg.Dir == "" {
		return nil, errors.New("ingest: Config.Dir is required")
	}
	if cfg.FS == nil {
		cfg.FS = checkpoint.OSFS{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ShardRows <= 0 {
		cfg.ShardRows = DefaultShardRows
	}

	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // arity is validated per row, with row numbers
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("ingest: read header: %w", err)
	}
	lay, err := cfg.Schema.Resolve(header)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}

	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: create dir: %w", err)
	}

	st := &runState{
		cfg:       cfg,
		fsys:      cfg.FS,
		lay:       lay,
		shardRows: cfg.ShardRows,
		moments:   make([]stats.Welford, lay.Cols()),
		data:      make([]float64, 0, cfg.ShardRows*lay.Cols()),
		protected: make([]bool, 0, cfg.ShardRows),
		manifest: &Manifest{
			SchemaSum:     lay.fingerprint(),
			Cols:          lay.Cols(),
			FeatureNames:  append([]string(nil), lay.names...),
			ProtectedCols: append([]int(nil), lay.protCols...),
			ShardRows:     cfg.ShardRows,
			HasLabel:      lay.hasLabel,
			HasScore:      lay.hasScore,
			Moments:       make([]stats.Welford, lay.Cols()),
		},
	}
	if lay.hasLabel {
		st.labels = make([]bool, 0, cfg.ShardRows)
	}
	if lay.hasScore {
		st.scores = make([]float64, 0, cfg.ShardRows)
	}

	st.removeTempFiles()

	skip, complete, err := st.recover()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Resumed: skip > 0 || complete,
		Skipped: skip,
	}
	if complete {
		// The store already holds a finished ingest over this schema;
		// nothing to re-consume.
		res.GoodRows = st.manifest.GoodRows
		res.BadRows = st.manifest.BadRows
		res.InputRows = st.manifest.InputRows
		res.Shards = len(st.manifest.Shards)
		cfg.Logf("ingest: store already complete: %d shard(s), %d good row(s)", res.Shards, res.GoodRows)
		return res, nil
	}

	// Skip the input prefix already covered by durable shards. The rows
	// were validated by the prior run; only their count matters here
	// (parse-errored lines count one row each, exactly as they did then).
	for skipped := uint64(0); skipped < skip; skipped++ {
		if _, rerr := cr.Read(); rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return nil, fmt.Errorf("ingest: resume: input ends after %d row(s), durable prefix covers %d", skipped, skip)
			}
			var perr *csv.ParseError
			if !errors.As(rerr, &perr) {
				return nil, fmt.Errorf("ingest: resume skip: %w", rerr)
			}
		}
	}

	dst := make([]float64, lay.Cols())
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		if cfg.hookRow != nil {
			cfg.hookRow(st.inputRows + 1)
		}
		rec, rerr := cr.Read()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			var perr *csv.ParseError
			if !errors.As(rerr, &perr) {
				return nil, fmt.Errorf("ingest: read row %d: %w", st.inputRows+1, rerr)
			}
			// A malformed CSV line (bad quoting etc.) is a dirty row,
			// not a fatal stream error: quarantine it and continue.
			st.inputRows++
			if err := st.quarantineRow(st.inputRows, fmt.Sprintf("csv parse: %v", perr.Err)); err != nil {
				return nil, err
			}
			continue
		}
		st.inputRows++
		label, score, prot, verr := lay.EncodeRow(rec, dst)
		if verr != nil {
			if err := st.quarantineRow(st.inputRows, verr.Error()); err != nil {
				return nil, err
			}
			continue
		}
		st.goodRows++
		st.data = append(st.data, dst...)
		st.protected = append(st.protected, prot)
		if lay.hasLabel {
			st.labels = append(st.labels, label)
		}
		if lay.hasScore {
			st.scores = append(st.scores, score)
		}
		for j := range dst {
			st.moments[j].Add(dst[j])
		}
		if cfg.Observer != nil {
			cfg.Observer.ObserveRow(dst)
		}
		if len(st.protected) >= st.shardRows {
			if err := st.seal(); err != nil {
				return nil, err
			}
		}
	}
	if err := st.seal(); err != nil { // final partial shard, if any
		return nil, err
	}
	st.manifest.Complete = true
	// Rows quarantined after the last seal advance the counters past the
	// last shard's; the Complete manifest records the whole input.
	st.manifest.GoodRows = st.goodRows
	st.manifest.BadRows = st.badRows
	st.manifest.InputRows = st.inputRows
	copy(st.manifest.Moments, st.moments)
	if err := st.writeQuarantine(); err != nil {
		return nil, err
	}
	if err := st.writeManifest(); err != nil {
		return nil, err
	}

	res.GoodRows = st.goodRows
	res.BadRows = st.badRows
	res.InputRows = st.inputRows
	res.Shards = len(st.manifest.Shards)
	cfg.Logf("ingest: complete: %d shard(s), %d good row(s), %d quarantined of %d input",
		res.Shards, res.GoodRows, res.BadRows, res.InputRows)
	return res, nil
}

// quarantineRow records one bad row and enforces the error budget. The
// budget check happens after recording, so the fatal row's reason is in
// the flushed log.
func (st *runState) quarantineRow(row uint64, reason string) error {
	st.badRows++
	line := fmt.Sprintf("row %d: %s", row, reason)
	st.quarantine = append(st.quarantine, line)
	st.cfg.Logf("ingest: quarantined %s", line)
	if st.cfg.MaxBadRows >= 0 && st.badRows > uint64(st.cfg.MaxBadRows) {
		if err := st.writeQuarantine(); err != nil {
			st.cfg.Logf("ingest: flushing quarantine log failed: %v", err)
		}
		return &BudgetError{
			BadRows: int(st.badRows),
			Budget:  st.cfg.MaxBadRows,
			LastRow: row,
			Reason:  reason,
		}
	}
	return nil
}

// seal makes the buffered rows durable: encode the shard (carrying the
// cumulative counters and moments of everything ingested so far), write
// it atomically, then the quarantine log, then the manifest — in that
// order, so the manifest is the commit point and a kill at any
// intermediate step leaves either a cleanly resumable prefix or a
// deterministic orphan shard the resume adopts.
func (st *runState) seal() error {
	rows := len(st.protected)
	if rows == 0 {
		return nil
	}
	idx := len(st.manifest.Shards)
	sh := &Shard{
		Index:     idx,
		Cols:      st.lay.Cols(),
		Data:      st.data,
		Protected: st.protected,
		GoodRows:  st.goodRows,
		BadRows:   st.badRows,
		InputRows: st.inputRows,
		Moments:   st.moments,
	}
	if st.lay.hasLabel {
		sh.Labels = st.labels
	}
	if st.lay.hasScore {
		sh.Scores = st.scores
	}
	buf, err := EncodeShard(sh)
	if err != nil {
		return err
	}
	if err := st.writeFileAtomic(shardName(idx), buf); err != nil {
		return err
	}
	st.manifest.Shards = append(st.manifest.Shards, ShardInfo{
		Index: idx,
		Rows:  rows,
		CRC:   fmt.Sprintf("%016x", checkpoint.Checksum(buf)),
	})
	st.manifest.GoodRows = st.goodRows
	st.manifest.BadRows = st.badRows
	st.manifest.InputRows = st.inputRows
	copy(st.manifest.Moments, st.moments)
	if err := st.writeQuarantine(); err != nil {
		return err
	}
	if err := st.writeManifest(); err != nil {
		return err
	}
	st.cfg.Logf("ingest: shard %d sealed: %d row(s), %d good / %d bad of %d input",
		idx, rows, st.goodRows, st.badRows, st.inputRows)
	st.data = st.data[:0]
	st.protected = st.protected[:0]
	if st.labels != nil {
		st.labels = st.labels[:0]
	}
	if st.scores != nil {
		st.scores = st.scores[:0]
	}
	if st.cfg.hookSeal != nil {
		st.cfg.hookSeal(idx)
	}
	return nil
}

// writeManifest atomically replaces the manifest file.
func (st *runState) writeManifest() error {
	buf, err := EncodeManifest(st.manifest)
	if err != nil {
		return err
	}
	return st.writeFileAtomic(manifestName, buf)
}

// writeQuarantine atomically replaces the quarantine log with every
// recorded line. Lines are deterministic functions of the input, so the
// rewrite converges to the same bytes across kill/resume cycles.
func (st *runState) writeQuarantine() error {
	if len(st.quarantine) == 0 {
		return nil
	}
	var sb strings.Builder
	for _, line := range st.quarantine {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return st.writeFileAtomic(quarantineName, []byte(sb.String()))
}

// writeFileAtomic publishes data as base in the store directory through
// checkpoint.WriteFileAtomic, staging it in base+".tmp".
func (st *runState) writeFileAtomic(base string, data []byte) error {
	final := filepath.Join(st.cfg.Dir, base)
	if err := checkpoint.WriteFileAtomic(st.fsys, final+".tmp", final, data); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}

// removeTempFiles deletes stray *.tmp files left by a killed write.
func (st *runState) removeTempFiles() {
	entries, err := st.fsys.ReadDir(st.cfg.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			st.fsys.Remove(filepath.Join(st.cfg.Dir, e.Name()))
		}
	}
}

// recover inspects the store and, under Resume, rebuilds the run state
// from the longest valid durable prefix: manifest-listed shards are
// re-verified (CRC + counter chaining), a trailing orphan shard (written
// before the kill but not yet committed to the manifest) is adopted if
// and only if it chains correctly, and anything after the first invalid
// shard is deleted for deterministic re-encoding. Returns how many input
// rows the adopted prefix covers and whether the store is already
// complete.
func (st *runState) recover() (skip uint64, complete bool, err error) {
	raw, rerr := st.fsys.ReadFile(filepath.Join(st.cfg.Dir, manifestName))
	var man *Manifest
	switch {
	case rerr == nil:
		man, err = DecodeManifest(raw)
		if err != nil {
			if !st.cfg.Resume {
				return 0, false, fmt.Errorf("ingest: %s holds a corrupt manifest and Resume is off: %w", st.cfg.Dir, err)
			}
			// The manifest itself is untrusted; shards are self-describing,
			// so rebuild the table of contents from the files.
			st.cfg.Logf("ingest: manifest corrupt (%v); rebuilding from shard files", err)
			man = st.rebuildManifest()
		}
	case isNotExist(rerr):
		man = nil
	default:
		return 0, false, fmt.Errorf("ingest: read manifest: %w", rerr)
	}

	if man != nil && !st.cfg.Resume {
		return 0, false, fmt.Errorf("ingest: %s already holds a shard store (%d shard(s)); pass Resume to continue it or use a fresh directory", st.cfg.Dir, len(man.Shards))
	}
	if man == nil {
		if !st.cfg.Resume {
			// No manifest, but a killed first run may still have left
			// shard files; without Resume that is an occupied directory.
			if entries, derr := st.fsys.ReadDir(st.cfg.Dir); derr == nil {
				for _, e := range entries {
					if _, ok := parseShardName(e.Name()); ok {
						return 0, false, fmt.Errorf("ingest: %s holds shard files from an interrupted ingest; pass Resume to continue it or use a fresh directory", st.cfg.Dir)
					}
				}
			}
			return 0, false, nil
		}
		// Fresh store — but an interrupted first shard may have left an
		// orphan; adopt it exactly like a mid-run orphan.
		st.adoptOrphan()
		st.pruneTail(len(st.manifest.Shards))
		if len(st.manifest.Shards) > 0 {
			if err := st.writeManifest(); err != nil {
				return 0, false, err
			}
		}
		st.loadQuarantine()
		return st.inputRows, false, nil
	}

	if man.SchemaSum != st.manifest.SchemaSum {
		return 0, false, fmt.Errorf("ingest: cannot resume: store schema %s does not match this input's schema %s (delete %s or fix the schema)",
			man.SchemaSum, st.manifest.SchemaSum, st.cfg.Dir)
	}
	if man.ShardRows != st.shardRows {
		return 0, false, fmt.Errorf("ingest: cannot resume: store uses %d rows/shard, this run wants %d", man.ShardRows, st.shardRows)
	}

	// Re-verify the durable prefix shard by shard. DecodeShard already
	// rejects internal corruption; chaining ties each shard to its
	// predecessor so a valid-but-stale file cannot slip in.
	valid := 0
	for i, si := range man.Shards {
		sh, ok := st.verifyShard(i, si.CRC)
		if !ok {
			st.cfg.Logf("ingest: shard %d invalid; dropping it and everything after for re-encoding", i)
			break
		}
		st.adoptShard(sh, si.Rows)
		valid = i + 1
	}
	truncated := valid < len(man.Shards)
	st.manifest.Complete = man.Complete && !truncated
	if !truncated {
		// The manifest counters may run past the last shard's (rows
		// quarantined after the final seal of a completed ingest);
		// preserve them rather than regressing to the shard chain's.
		st.manifest.GoodRows = man.GoodRows
		st.manifest.BadRows = man.BadRows
		st.manifest.InputRows = man.InputRows
		copy(st.manifest.Moments, man.Moments)
		st.adoptOrphan()
	}
	st.pruneTail(len(st.manifest.Shards))
	if len(st.manifest.Shards) > 0 || truncated {
		if err := st.writeManifest(); err != nil {
			return 0, false, err
		}
	}
	st.loadQuarantine()
	if st.manifest.Complete {
		return st.inputRows, true, nil
	}
	return st.inputRows, false, nil
}

// verifyShard reads and decodes shard i, checking the file CRC against
// the manifest (when given) and the counter chain against the adopted
// prefix. Returns ok=false for anything that cannot be trusted.
func (st *runState) verifyShard(i int, wantCRC string) (*Shard, bool) {
	raw, err := st.fsys.ReadFile(filepath.Join(st.cfg.Dir, shardName(i)))
	if err != nil {
		st.cfg.Logf("ingest: shard %d unreadable: %v", i, err)
		return nil, false
	}
	if wantCRC != "" {
		want, perr := strconv.ParseUint(wantCRC, 16, 64)
		if perr != nil || checkpoint.Checksum(raw) != want {
			st.cfg.Logf("ingest: shard %d file checksum does not match manifest", i)
			return nil, false
		}
	}
	sh, err := DecodeShard(raw)
	if err != nil {
		st.cfg.Logf("ingest: shard %d corrupt: %v", i, err)
		return nil, false
	}
	if sh.Index != i || sh.Cols != st.lay.Cols() {
		st.cfg.Logf("ingest: shard %d has wrong identity (index %d, cols %d)", i, sh.Index, sh.Cols)
		return nil, false
	}
	rows := uint64(sh.Rows())
	if rows == 0 || rows > uint64(st.shardRows) {
		st.cfg.Logf("ingest: shard %d has %d rows, limit %d", i, rows, st.shardRows)
		return nil, false
	}
	if sh.GoodRows != st.goodRows+rows || sh.InputRows < st.inputRows || sh.BadRows < st.badRows {
		st.cfg.Logf("ingest: shard %d counters do not chain onto the prefix", i)
		return nil, false
	}
	if (sh.Labels != nil) != st.lay.hasLabel || (sh.Scores != nil) != st.lay.hasScore {
		st.cfg.Logf("ingest: shard %d outcome layout does not match the schema", i)
		return nil, false
	}
	return sh, true
}

// adoptShard folds a verified shard into the run state: counters,
// moments, manifest entry and observer replay.
func (st *runState) adoptShard(sh *Shard, rows int) {
	st.goodRows = sh.GoodRows
	st.badRows = sh.BadRows
	st.inputRows = sh.InputRows
	copy(st.moments, sh.Moments)
	raw, _ := st.fsys.ReadFile(filepath.Join(st.cfg.Dir, shardName(sh.Index)))
	st.manifest.Shards = append(st.manifest.Shards, ShardInfo{
		Index: sh.Index,
		Rows:  rows,
		CRC:   fmt.Sprintf("%016x", checkpoint.Checksum(raw)),
	})
	st.manifest.GoodRows = st.goodRows
	st.manifest.BadRows = st.badRows
	st.manifest.InputRows = st.inputRows
	copy(st.manifest.Moments, st.moments)
	if st.cfg.Observer != nil {
		for r := 0; r < sh.Rows(); r++ {
			st.cfg.Observer.ObserveRow(sh.Data[r*sh.Cols : (r+1)*sh.Cols])
		}
	}
}

// adoptOrphan looks for the unique next shard file a kill between
// shard-write and manifest-write can leave behind. If it decodes cleanly
// and chains onto the adopted prefix it becomes durable (the resume then
// continues after it); otherwise it is deleted and re-encoded from input.
func (st *runState) adoptOrphan() {
	i := len(st.manifest.Shards)
	if _, err := st.fsys.ReadFile(filepath.Join(st.cfg.Dir, shardName(i))); err != nil {
		return
	}
	sh, ok := st.verifyShard(i, "")
	if !ok {
		st.cfg.Logf("ingest: dropping unadoptable orphan shard %d", i)
		return
	}
	st.cfg.Logf("ingest: adopting orphan shard %d (%d rows)", i, sh.Rows())
	st.adoptShard(sh, sh.Rows())
}

// pruneTail deletes shard files at indexes >= n — remnants past the
// adopted prefix that will be deterministically re-encoded.
func (st *runState) pruneTail(n int) {
	entries, err := st.fsys.ReadDir(st.cfg.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if i, ok := parseShardName(e.Name()); ok && i >= n {
			st.fsys.Remove(filepath.Join(st.cfg.Dir, e.Name()))
		}
	}
}

// loadQuarantine restores the in-memory quarantine lines from the durable
// log, truncated to the durable BadRows count: lines past it belong to
// rows after the adopted prefix, which will be re-validated (and
// re-quarantined identically) from input.
func (st *runState) loadQuarantine() {
	raw, err := st.fsys.ReadFile(filepath.Join(st.cfg.Dir, quarantineName))
	if err != nil {
		return
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		lines = nil
	}
	if uint64(len(lines)) > st.badRows {
		lines = lines[:st.badRows]
	}
	st.quarantine = append(st.quarantine[:0], lines...)
}

// rebuildManifest reconstructs a table of contents from raw shard files
// when the manifest itself is unreadable: the longest prefix of shards
// that decode and chain from index 0. The caller re-verifies nothing —
// the rebuilt manifest is only a skeleton whose entries recover() adopts
// through the same verifyShard path.
func (st *runState) rebuildManifest() *Manifest {
	man := &Manifest{
		SchemaSum:     st.manifest.SchemaSum,
		Cols:          st.manifest.Cols,
		FeatureNames:  st.manifest.FeatureNames,
		ProtectedCols: st.manifest.ProtectedCols,
		ShardRows:     st.shardRows,
		HasLabel:      st.manifest.HasLabel,
		HasScore:      st.manifest.HasScore,
		Moments:       make([]stats.Welford, st.manifest.Cols),
	}
	var good uint64
	for i := 0; ; i++ {
		raw, err := st.fsys.ReadFile(filepath.Join(st.cfg.Dir, shardName(i)))
		if err != nil {
			break
		}
		sh, derr := DecodeShard(raw)
		if derr != nil || sh.Index != i || sh.GoodRows != good+uint64(sh.Rows()) {
			break
		}
		good = sh.GoodRows
		man.Shards = append(man.Shards, ShardInfo{Index: i, Rows: sh.Rows(), CRC: fmt.Sprintf("%016x", checkpoint.Checksum(raw))})
		man.GoodRows = sh.GoodRows
		man.BadRows = sh.BadRows
		man.InputRows = sh.InputRows
		copy(man.Moments, sh.Moments)
	}
	return man
}

// isNotExist matches fs.ErrNotExist through wrapping.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
