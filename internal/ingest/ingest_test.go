package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/mat"
	"repro/internal/stats"
)

// testSchema is the schema used throughout: two numerics, one protected
// 0/1 group column, and a boolean label outcome.
func testSchema() Schema {
	return Schema{
		Features: []Column{
			{Name: "age"},
			{Name: "group", Protected: true},
			{Name: "income"},
		},
		Outcome: "label",
	}
}

// testCSV deterministically generates rows good rows with dirtyEvery-th
// rows replaced by a rotating palette of malformed rows (0 disables).
// Returns the CSV text and the expected number of bad rows.
func testCSV(rows int, dirtyEvery int) (string, int) {
	var sb strings.Builder
	sb.WriteString("age,group,income,label\n")
	bad := 0
	dirty := []string{
		"41,1\n",                  // wrong arity (short)
		"41,1,50000,true,extra\n", // wrong arity (long)
		"forty,1,50000,true\n",    // non-numeric cell
		"NaN,0,50000,false\n",     // NaN feature
		"41,1,+Inf,true\n",        // infinite feature
		"41,C,50000,true\n",       // non-numeric protected cell
		"41,0,50000,maybe\n",      // unparseable outcome
		"41,1\"0,50000,true\n",    // bare quote: CSV parse error
	}
	for i := 0; i < rows; i++ {
		if dirtyEvery > 0 && i%dirtyEvery == dirtyEvery-1 {
			sb.WriteString(dirty[bad%len(dirty)])
			bad++
			continue
		}
		g := "1"
		if i%3 == 0 {
			g = "0"
		}
		label := "false"
		if i%2 == 0 {
			label = "true"
		}
		fmt.Fprintf(&sb, "%d,%s,%0.2f,%s\n", 20+i%50, g, 1000.0+7.5*float64(i%97), label)
	}
	return sb.String(), bad
}

func runIngest(t *testing.T, dir, csv string, cfg Config) (*Result, error) {
	t.Helper()
	cfg.Dir = dir
	cfg.Schema = testSchema()
	if cfg.ShardRows == 0 {
		cfg.ShardRows = 16
	}
	return Run(context.Background(), strings.NewReader(csv), cfg)
}

func TestIngestClean(t *testing.T) {
	dir := t.TempDir()
	csv, _ := testCSV(100, 0)
	res, err := runIngest(t, dir, csv, Config{MaxBadRows: 0})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.GoodRows != 100 || res.BadRows != 0 || res.InputRows != 100 {
		t.Fatalf("counters: %+v", res)
	}
	if res.Shards != 7 { // ceil(100/16)
		t.Fatalf("shards = %d, want 7", res.Shards)
	}

	st, err := OpenStream(dir, nil)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	if st.Rows() != 100 || st.Cols() != 3 || len(st.man.Shards) != 7 {
		t.Fatalf("stream shape: rows %d cols %d shards %d", st.Rows(), st.Cols(), len(st.man.Shards))
	}
	if want := []string{"age", "group", "income"}; !sameStrings(st.FeatureNames(), want) {
		t.Fatalf("feature names = %v, want %v", st.FeatureNames(), want)
	}
	if got := st.ProtectedCols(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("protected cols = %v", got)
	}
	if !st.man.HasLabel || st.man.HasScore {
		t.Fatal("stream outcome layout wrong")
	}

	// Streaming moments must match a batch pass over the materialized data.
	x, labels, protected := materialize(t, st)
	if len(labels) != 100 || len(protected) != 100 {
		t.Fatalf("materialized outcome lengths: %d labels, %d protected", len(labels), len(protected))
	}
	means, stds := st.MeanStd()
	for j := 0; j < st.Cols(); j++ {
		col := make([]float64, 100)
		for i := 0; i < 100; i++ {
			col[i] = x.At(i, j)
		}
		if d := math.Abs(means[j] - stats.Mean(col)); d > 1e-12 {
			t.Errorf("col %d mean drift %g", j, d)
		}
		if d := math.Abs(stds[j] - stats.StdDev(col)); d > 1e-12 {
			t.Errorf("col %d std drift %g", j, d)
		}
	}
	// Protected flag must mirror the first protected column (group).
	for i := 0; i < 100; i++ {
		if protected[i] != (x.At(i, 1) >= 0.5) {
			t.Fatalf("row %d protected flag mismatch", i)
		}
	}
}

func TestIngestQuarantine(t *testing.T) {
	dir := t.TempDir()
	csv, bad := testCSV(120, 5)
	if bad == 0 {
		t.Fatal("test CSV generated no bad rows")
	}
	res, err := runIngest(t, dir, csv, Config{MaxBadRows: -1})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if int(res.BadRows) != bad {
		t.Fatalf("bad rows = %d, want %d", res.BadRows, bad)
	}
	if res.GoodRows != uint64(120-bad) || res.InputRows != 120 {
		t.Fatalf("counters: %+v", res)
	}

	raw, err := os.ReadFile(filepath.Join(dir, quarantineName))
	if err != nil {
		t.Fatalf("read quarantine: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != bad {
		t.Fatalf("quarantine has %d lines, want %d", len(lines), bad)
	}
	// Every line is row-numbered and the reasons cover the full palette.
	wantReasons := []string{"cells", "cannot parse", "non-finite", "outcome", "csv parse"}
	joined := strings.Join(lines, "\n")
	for _, r := range wantReasons {
		if !strings.Contains(joined, r) {
			t.Errorf("quarantine log mentions no %q:\n%s", r, joined)
		}
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "row ") {
			t.Errorf("quarantine line not row-numbered: %q", l)
		}
	}
}

func TestIngestErrorBudget(t *testing.T) {
	csv, bad := testCSV(120, 5)
	if bad < 3 {
		t.Fatal("need at least 3 bad rows")
	}

	// Budget below the dirt: fail fast with a BudgetError.
	dir := t.TempDir()
	_, err := runIngest(t, dir, csv, Config{MaxBadRows: 2})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want BudgetError", err)
	}
	if be.BadRows != 3 || be.Budget != 2 {
		t.Fatalf("budget error: %+v", be)
	}
	// The quarantine log (including the fatal row) must be on disk.
	raw, rerr := os.ReadFile(filepath.Join(dir, quarantineName))
	if rerr != nil {
		t.Fatalf("read quarantine after fail-fast: %v", rerr)
	}
	if n := strings.Count(string(raw), "\n"); n != 3 {
		t.Fatalf("quarantine has %d lines, want 3", n)
	}

	// Budget at the dirt: degrade gracefully and complete.
	dir2 := t.TempDir()
	res, err := runIngest(t, dir2, csv, Config{MaxBadRows: bad})
	if err != nil {
		t.Fatalf("ingest under budget: %v", err)
	}
	if int(res.BadRows) != bad {
		t.Fatalf("bad rows = %d, want %d", res.BadRows, bad)
	}

	// Zero tolerance on clean data still works.
	dir3 := t.TempDir()
	clean, _ := testCSV(40, 0)
	if _, err := runIngest(t, dir3, clean, Config{MaxBadRows: 0}); err != nil {
		t.Fatalf("clean ingest with zero budget: %v", err)
	}
}

func TestIngestRefusesOccupiedDir(t *testing.T) {
	dir := t.TempDir()
	csv, _ := testCSV(40, 0)
	if _, err := runIngest(t, dir, csv, Config{}); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if _, err := runIngest(t, dir, csv, Config{}); err == nil {
		t.Fatal("second ingest into the same dir without Resume succeeded")
	}
	// With Resume the complete store is adopted without re-reading input.
	res, err := runIngest(t, dir, csv, Config{Resume: true})
	if err != nil {
		t.Fatalf("resume of complete store: %v", err)
	}
	if !res.Resumed || res.GoodRows != 40 {
		t.Fatalf("resume result: %+v", res)
	}
}

func TestIngestSchemaMismatchOnResume(t *testing.T) {
	dir := t.TempDir()
	csv, _ := testCSV(40, 0)
	if _, err := runIngest(t, dir, csv, Config{}); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	other := Schema{Outcome: "label"} // inferred all-numeric: different layout
	_, err := Run(context.Background(), strings.NewReader(csv), Config{
		Dir: dir, Schema: other, ShardRows: 16, Resume: true,
	})
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("resume with different schema: %v", err)
	}
	// Different shard size is likewise rejected.
	_, err = runIngest(t, dir, csv, Config{Resume: true, ShardRows: 8})
	if err == nil || !strings.Contains(err.Error(), "rows/shard") {
		t.Fatalf("resume with different shard size: %v", err)
	}
}

func TestIngestInferredSchema(t *testing.T) {
	dir := t.TempDir()
	csv := "x,y,s\n1,2,0\n3,4,1\n5,6,0\n"
	res, err := Run(context.Background(), strings.NewReader(csv), Config{
		Dir:    dir,
		Schema: Schema{ProtectedIndex: []int{2}},
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.GoodRows != 3 {
		t.Fatalf("result: %+v", res)
	}
	st, err := OpenStream(dir, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if st.Cols() != 3 {
		t.Fatalf("cols = %d, want 3", st.Cols())
	}
	if got := st.ProtectedCols(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("protected cols = %v", got)
	}
	if st.man.HasLabel || st.man.HasScore {
		t.Fatal("no outcome was declared")
	}
}

// materialize decodes every shard of st into one matrix plus the per-row
// labels and protected flags.
func materialize(t *testing.T, st *Stream) (x *mat.Dense, labels, protected []bool) {
	t.Helper()
	x = mat.NewDense(st.Rows(), st.Cols())
	row := 0
	for i := range st.man.Shards {
		sh, err := st.Shard(i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for r := 0; r < sh.Rows(); r++ {
			copy(x.Row(row), sh.Data[r*sh.Cols:(r+1)*sh.Cols])
			row++
		}
		labels = append(labels, sh.Labels...)
		protected = append(protected, sh.Protected...)
	}
	return x, labels, protected
}

// recordingObserver captures every observed row for replay-equivalence
// assertions.
type recordingObserver struct{ rows [][]float64 }

func (o *recordingObserver) ObserveRow(row []float64) {
	o.rows = append(o.rows, append([]float64(nil), row...))
}

// storeBytes snapshots every durable file of a store for byte comparison.
func storeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read store dir: %v", err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

func diffStores(a, b map[string]string) string {
	var sb strings.Builder
	for name := range a {
		if _, ok := b[name]; !ok {
			fmt.Fprintf(&sb, "missing %s; ", name)
		}
	}
	for name := range b {
		av, ok := a[name]
		if !ok {
			fmt.Fprintf(&sb, "extra %s; ", name)
			continue
		}
		if av != b[name] {
			fmt.Fprintf(&sb, "%s differs (%d vs %d bytes); ", name, len(av), len(b[name]))
		}
	}
	return sb.String()
}

// errKilled is the sentinel the in-process kill hooks cancel with.
var errKilled = errors.New("test: killed")

// TestIngestKillResumeSweep is the tentpole property test: an ingest
// killed at any input row, or failed by an injected filesystem fault at
// any write operation, then resumed, produces a store — every shard,
// the manifest and the quarantine log — byte-identical to an
// uninterrupted run, and its observer sees the identical row sequence.
func TestIngestKillResumeSweep(t *testing.T) {
	const rows = 137
	csv, bad := testCSV(rows, 7)
	if bad == 0 {
		t.Fatal("sweep CSV has no dirty rows")
	}
	cfg := Config{MaxBadRows: -1, ShardRows: 16}

	// Reference: uninterrupted run.
	refDir := t.TempDir()
	refObs := &recordingObserver{}
	refCfg := cfg
	refCfg.Dir, refCfg.Schema, refCfg.Observer = refDir, testSchema(), refObs
	refRes, err := Run(context.Background(), strings.NewReader(csv), refCfg)
	if err != nil {
		t.Fatalf("reference ingest: %v", err)
	}
	want := storeBytes(t, refDir)

	checkResume := func(t *testing.T, dir string) {
		obs := &recordingObserver{}
		rcfg := cfg
		rcfg.Dir, rcfg.Schema, rcfg.Observer, rcfg.Resume = dir, testSchema(), obs, true
		res, err := Run(context.Background(), strings.NewReader(csv), rcfg)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if res.GoodRows != refRes.GoodRows || res.BadRows != refRes.BadRows || res.InputRows != refRes.InputRows {
			t.Fatalf("resumed counters %+v, want %+v", res, refRes)
		}
		if d := diffStores(want, storeBytes(t, dir)); d != "" {
			t.Fatalf("store differs from uninterrupted run: %s", d)
		}
		if len(obs.rows) != len(refObs.rows) {
			t.Fatalf("observer saw %d rows, want %d", len(obs.rows), len(refObs.rows))
		}
		for i := range obs.rows {
			for j := range obs.rows[i] {
				if obs.rows[i][j] != refObs.rows[i][j] {
					t.Fatalf("observer row %d differs", i)
				}
			}
		}
	}

	// Row-level kill points: cancel before consuming input row k.
	killRows := []int{1, 2, 15, 16, 17, 31, 33, 64, 96, 100, 135, 136, 137}
	if os.Getenv("IFAIR_TEST_INGEST") != "" {
		killRows = killRows[:0]
		for k := 1; k <= rows; k++ {
			killRows = append(killRows, k)
		}
	}
	for _, k := range killRows {
		k := k
		t.Run(fmt.Sprintf("kill_row_%d", k), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			kcfg := cfg
			kcfg.Dir, kcfg.Schema = dir, testSchema()
			kcfg.hookRow = func(row uint64) {
				if row >= uint64(k) {
					cancel(errKilled)
				}
			}
			_, err := Run(ctx, strings.NewReader(csv), kcfg)
			if err == nil {
				t.Fatal("killed run returned no error")
			}
			checkResume(t, dir)
		})
	}

	// Shard-boundary kill points: cancel right after shard s seals.
	for s := 0; s < refRes.Shards; s++ {
		s := s
		t.Run(fmt.Sprintf("kill_after_seal_%d", s), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			kcfg := cfg
			kcfg.Dir, kcfg.Schema = dir, testSchema()
			kcfg.hookSeal = func(idx int) {
				if idx >= s {
					cancel(errKilled)
				}
			}
			_, err := Run(ctx, strings.NewReader(csv), kcfg)
			if err == nil {
				// A kill after the final seal lands when the run is already
				// effectively done — it must then have produced the complete
				// correct store.
				if s != refRes.Shards-1 {
					t.Fatal("killed run returned no error")
				}
				if d := diffStores(want, storeBytes(t, dir)); d != "" {
					t.Fatalf("completed run differs: %s", d)
				}
				return
			}
			checkResume(t, dir)
		})
	}

	// Filesystem fault points: fail the Nth write-path operation (create /
	// write / short-write-ENOSPC / sync / rename), for a deterministic
	// schedule of Ns, then resume on a healthy filesystem.
	type faultArm struct {
		name string
		arm  func(*faultinject.FS, int)
	}
	arms := []faultArm{
		{"create", func(f *faultinject.FS, n int) { f.CreateFault = faultinject.NewFuse(n) }},
		{"write", func(f *faultinject.FS, n int) { f.WriteFault = faultinject.NewFuse(n) }},
		{"enospc_sticky", func(f *faultinject.FS, n int) { f.ShortWrite = faultinject.NewStickyFuse(n) }},
		{"sync", func(f *faultinject.FS, n int) { f.SyncFault = faultinject.NewFuse(n) }},
		{"rename", func(f *faultinject.FS, n int) { f.RenameFault = faultinject.NewFuse(n) }},
	}
	points := 4
	if os.Getenv("IFAIR_TEST_INGEST") != "" {
		points = 12
	}
	for _, arm := range arms {
		for _, n := range faultinject.Schedule(0x1F41, points, 24) {
			arm, n := arm, n
			t.Run(fmt.Sprintf("fault_%s_%d", arm.name, n), func(t *testing.T) {
				dir := t.TempDir()
				ffs := &faultinject.FS{}
				arm.arm(ffs, n)
				kcfg := cfg
				kcfg.Dir, kcfg.Schema, kcfg.FS = dir, testSchema(), ffs
				_, err := Run(context.Background(), strings.NewReader(csv), kcfg)
				if err == nil {
					// The fault landed on an operation this input never
					// reached (schedule overshoots short runs) — the run
					// must then be a complete, correct store already.
					if d := diffStores(want, storeBytes(t, dir)); d != "" {
						t.Fatalf("unfaulted run differs: %s", d)
					}
					return
				}
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("run failed with a non-injected error: %v", err)
				}
				checkResume(t, dir)
			})
		}
	}
}

// TestIngestCorruptShardRecovery corrupts durable shards between runs:
// resume must detect the damage, drop the corrupt suffix and re-encode
// it, converging to the uninterrupted store — never training data is
// silently lost or altered.
func TestIngestCorruptShardRecovery(t *testing.T) {
	const rows = 90
	csv, _ := testCSV(rows, 9)
	cfg := Config{MaxBadRows: -1, ShardRows: 16}

	refDir := t.TempDir()
	refCfg := cfg
	refCfg.Dir, refCfg.Schema = refDir, testSchema()
	if _, err := Run(context.Background(), strings.NewReader(csv), refCfg); err != nil {
		t.Fatalf("reference ingest: %v", err)
	}
	want := storeBytes(t, refDir)
	nShards := 0
	for name := range want {
		if _, ok := parseShardName(name); ok {
			nShards++
		}
	}
	if nShards < 3 {
		t.Fatalf("need >= 3 shards, got %d", nShards)
	}

	corruptions := []struct {
		name string
		mod  func([]byte) []byte
	}{
		{"bitflip", func(b []byte) []byte { return faultinject.FlipBit(b, len(b)*3) }},
		{"truncate", func(b []byte) []byte { return faultinject.Truncate(b, len(b)/2) }},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, c := range corruptions {
		for _, victim := range []int{0, 1, nShards - 1} {
			c, victim := c, victim
			t.Run(fmt.Sprintf("%s_shard_%d", c.name, victim), func(t *testing.T) {
				dir := t.TempDir()
				// Clone the complete reference store, then damage one shard.
				for name, data := range want {
					if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				path := filepath.Join(dir, shardName(victim))
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, c.mod(raw), 0o644); err != nil {
					t.Fatal(err)
				}

				// The stream must refuse the damaged shard as ErrCorrupt.
				st, err := OpenStream(dir, nil)
				if err != nil {
					t.Fatalf("open stream: %v", err)
				}
				if _, err := st.Shard(victim); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("stream read of damaged shard: %v, want ErrCorrupt", err)
				}
				if err := st.Sweep(func(int, []float64) error { return nil }); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("sweep over damaged store: %v, want ErrCorrupt", err)
				}

				// Resume re-encodes the damaged suffix back to reference bytes.
				rcfg := cfg
				rcfg.Dir, rcfg.Schema, rcfg.Resume = dir, testSchema(), true
				if _, err := Run(context.Background(), strings.NewReader(csv), rcfg); err != nil {
					t.Fatalf("healing resume: %v", err)
				}
				if d := diffStores(want, storeBytes(t, dir)); d != "" {
					t.Fatalf("healed store differs: %s", d)
				}
			})
		}
	}

	// A corrupt manifest heals too (rebuilt from the self-describing shards).
	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		for name, data := range want {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, manifestName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, faultinject.FlipBit(raw, 99), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStream(dir, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open with corrupt manifest: %v, want ErrCorrupt", err)
		}
		rcfg := cfg
		rcfg.Dir, rcfg.Schema, rcfg.Resume = dir, testSchema(), true
		if _, err := Run(context.Background(), strings.NewReader(csv), rcfg); err != nil {
			t.Fatalf("healing resume: %v", err)
		}
		if d := diffStores(want, storeBytes(t, dir)); d != "" {
			t.Fatalf("healed store differs: %s", d)
		}
	})
}

func TestIngestRejectsHeaderProblems(t *testing.T) {
	cases := map[string]string{
		"missing feature":  "age,income,label\n1,2,true\n",
		"missing outcome":  "age,group,income\n1,1,2\n",
		"repeated feature": "age,group,age,income,label\n1,1,1,2,true\n",
		"repeated outcome": "age,group,income,label,label\n1,1,2,true,true\n",
	}
	for name, csv := range cases {
		if _, err := runIngest(t, t.TempDir(), csv, Config{}); err == nil {
			t.Errorf("%s: ingest accepted a bad header", name)
		}
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
