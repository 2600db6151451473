package checkpoint

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
)

// Config configures a Manager. Dir is required; everything else has a
// usable zero value.
type Config struct {
	// Dir is the snapshot directory; it is created if missing.
	Dir string
	// FS is the filesystem implementation. Nil selects OSFS; tests inject
	// internal/faultinject's failing FS here.
	FS FS
	// Strict makes Begin fail when a loaded snapshot does not match the
	// resuming run (instead of silently starting fresh). CLI -resume
	// sets it so a changed seed/data/options surfaces as an error.
	Strict bool
	// Logf, when non-nil, receives human-readable notices: corrupt
	// snapshots skipped at load, write failures, resume decisions.
	Logf func(format string, args ...any)
}

// Manager owns one training run's snapshot directory: it loads the latest
// good snapshot at Open, answers which restarts are already done, and
// durably records finished restarts. All methods are safe for concurrent
// use by parallel restarts.
type Manager struct {
	cfg Config
	fs  FS

	mu          sync.Mutex
	state       State    // resumable state (completed restarts)
	loaded      bool     // a prior good snapshot was decoded at Open
	corrupt     []string // snapshot files skipped as corrupt at Open
	seq         int      // last used snapshot sequence number
	writeErrors int
}

// snapshotName formats the rotating snapshot file name for seq.
func snapshotName(seq int) string { return fmt.Sprintf("snap-%08d.ckpt", seq) }

// parseSnapshotName extracts seq from a snapshot file name.
func parseSnapshotName(base string) (seq int, ok bool) {
	if _, err := fmt.Sscanf(base, "snap-%08d.ckpt", &seq); err != nil || base != snapshotName(seq) {
		return 0, false
	}
	return seq, true
}

// Open creates (if needed) the snapshot directory and loads the most
// recent good snapshot, skipping — and reporting through Logf — any file
// that fails Decode. A directory full of corrupt snapshots is not an
// error: the manager simply starts empty, exactly as if the run had never
// checkpointed.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("checkpoint: Config.Dir is required")
	}
	if cfg.FS == nil {
		cfg.FS = OSFS{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Manager{cfg: cfg, fs: cfg.FS}
	if err := m.fs.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	entries, err := m.fs.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSnapshotName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	if len(seqs) > 0 {
		m.seq = seqs[0] // never reuse a sequence number, even a corrupt one
	}
	for _, seq := range seqs {
		name := filepath.Join(cfg.Dir, snapshotName(seq))
		data, rerr := m.fs.ReadFile(name)
		var st *State
		if rerr == nil {
			st, rerr = Decode(data)
		}
		if rerr != nil {
			m.corrupt = append(m.corrupt, snapshotName(seq))
			cfg.Logf("skipping corrupt snapshot %s: %v", snapshotName(seq), rerr)
			continue
		}
		m.state = *st
		m.loaded = true
		cfg.Logf("loaded snapshot %s: %d of %d restart(s) complete", snapshotName(seq), len(st.Completed), st.Restarts)
		break
	}
	return m, nil
}

// Dir returns the snapshot directory.
func (m *Manager) Dir() string { return m.cfg.Dir }

// Loaded reports whether Open recovered a prior good snapshot.
func (m *Manager) Loaded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loaded
}

// CorruptFiles lists the snapshot files Open skipped as corrupt.
func (m *Manager) CorruptFiles() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.corrupt...)
}

// WriteErrors counts snapshot writes that failed since Open. Failed
// writes never fail training — the previous good snapshot stays in place
// — but a non-zero count means durability is degraded.
func (m *Manager) WriteErrors() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeErrors
}

// Logf forwards to the configured logger.
func (m *Manager) Logf(format string, args ...any) { m.cfg.Logf(format, args...) }

// Begin binds the manager to a training run. If a loaded snapshot matches
// (seed, restarts, fingerprint), its completed restarts become resumable
// and Begin reports resumed=true. On a mismatch the prior state is
// discarded — or, under Config.Strict, Begin fails so a run that cannot
// actually resume does not silently retrain from scratch.
func (m *Manager) Begin(seed int64, restarts int, fingerprint string) (resumed bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.loaded {
		s := &m.state
		if s.Seed == seed && s.Restarts == restarts && s.Fingerprint == fingerprint {
			m.cfg.Logf("resuming: %d of %d restart(s) already complete", len(s.Completed), restarts)
			return true, nil
		}
		detail := fmt.Sprintf("snapshot is for seed=%d restarts=%d fingerprint=%s, this run is seed=%d restarts=%d fingerprint=%s",
			s.Seed, s.Restarts, s.Fingerprint, seed, restarts, fingerprint)
		if m.cfg.Strict {
			return false, fmt.Errorf("checkpoint: cannot resume: %s (delete %s or drop -resume)", detail, m.cfg.Dir)
		}
		m.cfg.Logf("ignoring incompatible snapshot: %s", detail)
	}
	m.state = State{Seed: seed, Restarts: restarts, Fingerprint: fingerprint}
	m.loaded = false
	return false, nil
}

// Completed returns the durable record of restart r, if it finished in a
// resumed prior run (or earlier in this one).
func (m *Manager) Completed(r int) (Restart, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range m.state.Completed {
		if rec.Index == r {
			return rec, true
		}
	}
	return Restart{}, false
}

// CompletedCount returns how many restarts have durable records.
func (m *Manager) CompletedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.state.Completed)
}

// FinishRestart durably records a finished restart and writes a snapshot
// immediately, so completed work survives any later crash. A failed
// write degrades durability but never training: the error is logged and
// counted, and the previous snapshot remains the fallback until the next
// FinishRestart or Flush writes the record again.
func (m *Manager) FinishRestart(rec Restart) {
	m.mu.Lock()
	if rec.Failed {
		rec.Loss, rec.X = 0, nil // NaN losses cannot cross JSON
	}
	replaced := false
	for i := range m.state.Completed {
		if m.state.Completed[i].Index == rec.Index {
			m.state.Completed[i] = rec
			replaced = true
			break
		}
	}
	if !replaced {
		m.state.Completed = append(m.state.Completed, rec)
		sort.Slice(m.state.Completed, func(i, j int) bool {
			return m.state.Completed[i].Index < m.state.Completed[j].Index
		})
	}
	err := m.flushLocked()
	m.mu.Unlock()
	if err != nil {
		m.cfg.Logf("snapshot write failed (training continues): %v", err)
	}
}

// Flush writes a snapshot now — the final flush a SIGTERM handler issues
// before exiting, so a finished restart whose FinishRestart write failed
// still reaches disk.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushLocked()
}

// flushLocked writes one snapshot atomically: temp file, fsync, rename
// over the sequenced name, directory fsync, then prune. m.mu must be
// held. On any failure the temp file is removed best-effort and the
// previous snapshot files are untouched.
func (m *Manager) flushLocked() error {
	data, err := Encode(&m.state)
	if err != nil {
		m.writeErrors++
		return err
	}
	m.seq++
	final := filepath.Join(m.cfg.Dir, snapshotName(m.seq))
	tmp := final + ".tmp"
	if err := WriteFileAtomic(m.fs, tmp, final, data); err != nil {
		m.writeErrors++
		return fmt.Errorf("checkpoint: %w", err)
	}
	m.pruneLocked()
	return nil
}

// keepSnapshots is how many snapshot files are retained; older ones are
// pruned after each successful write. Two, so the newest snapshot being
// torn by a crash still leaves a good predecessor.
const keepSnapshots = 2

// pruneLocked removes snapshot files older than the keepSnapshots newest.
// Removal failures are ignored: stale files cost disk, not correctness.
func (m *Manager) pruneLocked() {
	entries, err := m.fs.ReadDir(m.cfg.Dir)
	if err != nil {
		return
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := parseSnapshotName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) <= keepSnapshots {
		return
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	for _, seq := range seqs[keepSnapshots:] {
		m.fs.Remove(filepath.Join(m.cfg.Dir, snapshotName(seq)))
	}
}
