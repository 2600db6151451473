package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/ifair"
	"repro/internal/ingest"
	"repro/internal/knn"
	"repro/internal/optimize"
)

const (
	trainRows = 10000 // CSV input rows per op
	dirtyRate = 0.02  // share of rows given a defect
)

// trainInputs is the seeded dirty CSV and how many of its rows the
// ingest must accept and quarantine.
type trainInputs struct {
	csv       []byte
	good, bad uint64
}

// makeTrainCSV renders the synthetic mixture (X1, X2, protected A, label)
// and gives a seeded share of its rows one of the defects cmd/datagen
// -dirty-rate produces.
func makeTrainCSV(seed int64, rows int) (*trainInputs, error) {
	ds := dataset.SyntheticMixture(dataset.VariantRandom, rows, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x64697274))
	in := &trainInputs{}
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	if err := cw.Write([]string{"X1", "X2", "A", "label"}); err != nil {
		return nil, err
	}
	const outcome = 3 // column index of label
	cells := make([]string, 0, outcome+2)
	for i := 0; i < rows; i++ {
		cells = cells[:0]
		for _, v := range ds.X.Row(i) {
			cells = append(cells, strconv.FormatFloat(v, 'g', 8, 64))
		}
		cells = append(cells, strconv.FormatBool(ds.Label[i]))
		if rng.Float64() < dirtyRate {
			switch rng.Intn(6) {
			case 0: // a cell dropped
				cells = cells[:outcome]
			case 1: // a stray extra cell
				cells = append(cells, "extra")
			case 2:
				cells[rng.Intn(outcome)] = "garbage"
			case 3:
				cells[rng.Intn(outcome)] = "NaN"
			case 4:
				cells[rng.Intn(outcome)] = "+Inf"
			case 5: // outcome neither boolean nor numeric
				cells[outcome] = "maybe"
			}
			in.bad++
		} else {
			in.good++
		}
		if err := cw.Write(cells); err != nil {
			return nil, err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, err
	}
	in.csv = b.Bytes()
	return in, nil
}

var trainSchema = ingest.Schema{ProtectedIndex: []int{2}, Outcome: "label"}

// trainOptions is the `ifair -fairness neighbor -batch …` configuration.
func trainOptions(seed int64) ifair.Options {
	return ifair.Options{
		K: 8, Lambda: 1, Mu: 1,
		Init:        ifair.InitMaskedProtected,
		Fairness:    ifair.NeighborFairness,
		PairSamples: 8, NeighborK: 16,
		BatchSize: 1024, Epochs: 4, LearnRate: 0.01,
		Workers: clients,
		Seed:    seed,
	}
}

// trainRun executes ops: ingest the CSV into a fresh store, fit from the
// store, build the drift profile — the `ifair -ingest … -save-profile`
// flow.
type trainRun struct {
	in   *trainInputs
	opts ifair.Options
	dir  string
	ops  int
	loss *float64 // the first good op's loss; every op must reproduce it
}

// opLayers are one traced op's per-layer times.
type opLayers struct {
	op, ingest, open, fit, build time.Duration
	observe                      time.Duration
	fsIngest, fsOpen, fsFit      fsTimes
	epochs                       []time.Duration
	evals                        int
	inputRows, badRows           uint64
}

// op runs one op and returns its duration and the input rows the ingest
// reported. With tr set, the layers are timed and recorded as spans.
func (t *trainRun) op(tr *tracer) (time.Duration, uint64, *opLayers, error) {
	dir := filepath.Join(t.dir, "op-"+strconv.Itoa(t.ops))
	t.ops++
	defer os.RemoveAll(dir)

	ctx := context.Background()
	pb := drift.NewProfileBuilder(0, 0, t.opts.Seed)
	opts := t.opts
	var (
		fsys checkpoint.FS
		obs  ingest.RowObserver = pb
		lay  *opLayers
		tfs  *timedFS
		tobs *timedObserver
		et   *epochTrace
		ids  [5]int64 // op, ingest.run, ingest.open, ifair.fit, drift.build
	)
	if tr != nil {
		lay = &opLayers{}
		for i := range ids {
			ids[i] = tr.newID()
		}
		tfs = &timedFS{tr: tr, op: ids[0]}
		tobs = &timedObserver{inner: pb}
		et = &epochTrace{tr: tr, op: ids[0], parent: ids[3], lay: lay}
		fsys, obs, opts.Trace = tfs, tobs, et
	}

	// Each layer call is its own span; the op span around them also
	// covers the glue between calls, which the ledger reports.
	var (
		ing     *ingest.Result
		st      *ingest.Stream
		model   *ifair.Model
		prof    *drift.Profile
		err     error
		stamps  [4][2]time.Time
		fsAfter [4]fsTimes
	)
	call := func(i int, fn func()) bool {
		tfs.setParent(ids[i+1])
		stamps[i][0] = time.Now()
		fn()
		stamps[i][1] = time.Now()
		fsAfter[i] = tfs.snapshot()
		return err == nil
	}
	opStart := time.Now()
	ok := call(0, func() {
		ing, err = ingest.Run(ctx, bytes.NewReader(t.in.csv), ingest.Config{
			Dir: dir, FS: fsys, Schema: trainSchema, MaxBadRows: -1, Observer: obs,
		})
	}) && call(1, func() { st, err = ingest.OpenStream(dir, fsys) }) &&
		call(2, func() {
			opts.Protected = st.ProtectedCols()
			model, _, err = ifair.FitStreamContext(ctx, st, opts)
		}) &&
		call(3, func() {
			means, stds := st.MeanStd()
			prof, err = pb.Build(means, stds)
		})
	opEnd := time.Now()
	if !ok {
		return 0, 0, nil, err
	}

	if tr != nil {
		tr.add(ids[0], 0, ids[0], "op", opStart, opEnd)
		for i, name := range []string{"ingest.run", "ingest.open", "ifair.fit", "drift.build"} {
			tr.add(ids[i+1], ids[0], ids[0], name, stamps[i][0], stamps[i][1])
		}
		dur := func(i int) time.Duration { return stamps[i][1].Sub(stamps[i][0]) }
		*lay = opLayers{
			op: opEnd.Sub(opStart), ingest: dur(0), open: dur(1), fit: dur(2), build: dur(3),
			observe:  tobs.total,
			fsIngest: fsAfter[0], fsOpen: fsAfter[1].minus(fsAfter[0]), fsFit: fsAfter[2].minus(fsAfter[1]),
			epochs: lay.epochs, evals: lay.evals,
			inputRows: ing.InputRows, badRows: ing.BadRows,
		}
	}

	// Output checks: the counts the generator knows, a valid model whose
	// loss every op reproduces bit for bit, a usable drift profile.
	switch {
	case ing.GoodRows != t.in.good || ing.BadRows != t.in.bad || ing.InputRows != t.in.good+t.in.bad:
		err = fmt.Errorf("ingest counted %d good, %d bad, %d input rows; generator made %d good, %d bad",
			ing.GoodRows, ing.BadRows, ing.InputRows, t.in.good, t.in.bad)
	case st.Rows() != int(t.in.good):
		err = fmt.Errorf("store holds %d rows, want %d", st.Rows(), t.in.good)
	case model.Validate() != nil:
		err = fmt.Errorf("fitted model invalid: %w", model.Validate())
	case math.IsNaN(model.Loss) || math.IsInf(model.Loss, 0):
		err = fmt.Errorf("fitted loss %v is not finite", model.Loss)
	case t.loss != nil && math.Float64bits(model.Loss) != math.Float64bits(*t.loss):
		err = fmt.Errorf("fitted loss %v differs from the first op's %v", model.Loss, *t.loss)
	case len(prof.Reference) == 0:
		err = errors.New("drift profile has no reference rows")
	}
	if err != nil {
		return 0, 0, nil, err
	}
	if t.loss == nil {
		t.loss = &model.Loss
	}
	return opEnd.Sub(opStart), ing.InputRows, lay, nil
}

// loop runs ops back to back for d (at least one); elapsed is the time
// spent in ops. Traced ops append their layer times to lays.
func (t *trainRun) loop(d time.Duration, tr *tracer, lays *[]*opLayers) loopResult {
	var out loopResult
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		dur, n, lay, err := t.op(tr)
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", t.ops, err)
			continue
		}
		out.elapsed += dur
		out.lat = append(out.lat, dur)
		out.rows += n
		if lay != nil {
			*lays = append(*lays, lay)
		}
	}
	return out
}

func runTrain(cfg runConfig) (*result, error) {
	in, err := makeTrainCSV(cfg.seed, trainRows)
	if err != nil {
		return nil, err
	}
	t := &trainRun{in: in, opts: trainOptions(cfg.seed), dir: cfg.workDir}
	res := newResult()
	cal := newCalibrator()

	// Set-up is one untimed warm-up op, repeated; setup_s is the median.
	setups := make([]time.Duration, setupRepeats)
	for i := range setups {
		setups[i], err = timedSetup(cal, func() error {
			_, _, _, err := t.op(nil)
			return err
		})
		res.Attempted++
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}

	if cfg.trace {
		return res, traceTrain(cfg, cal, t, res)
	}
	runtime.GC()
	w := sliced(cal, cfg.duration, func(d time.Duration) loopResult { return t.loop(d, nil, nil) }, nil)
	res.add(w)
	return res, setEndToEnd(res, setups, w)
}

// ---- traced run ----

// trainLedgerMargin is how much of an op, in percent, may lie outside
// every layer span.
const trainLedgerMargin = 1.0

// traceTrain runs ops untraced and traced, alternating (their difference
// is the tracing overhead), reports the traced ops' layer medians, then
// times the fit's inner layers on their own from a store of the same
// input.
func traceTrain(cfg runConfig, cal *calibrator, t *trainRun, res *result) error {
	tr := newTracer(1 << 12)
	var lays []*opLayers
	done := 0 // lays[:done] are scaled to reference speed
	plain, traced := alternate(cal, 2*cfg.duration/3, func(d time.Duration, tr *tracer) loopResult {
		return t.loop(d, tr, &lays)
	}, tr, func(speed float64) {
		for _, l := range lays[done:] {
			l.scale(speed)
		}
		done = len(lays)
	})
	res.add(plain)
	res.add(traced)
	if len(lays) == 0 || len(plain.lat) == 0 {
		return errors.New("no op succeeded")
	}
	res.set("trace.overhead_ms", "ms", ms(quantile(traced.lat, 0.5)-quantile(plain.lat, 0.5)))

	med := func(f func(l *opLayers) float64) float64 {
		vals := make([]float64, len(lays))
		for i, l := range lays {
			vals[i] = f(l)
		}
		return medianF(vals)
	}
	sec := func(f func(l *opLayers) time.Duration) float64 {
		return med(func(l *opLayers) float64 { return f(l).Seconds() })
	}
	var epochs []time.Duration
	for _, l := range lays {
		epochs = append(epochs, l.epochs...)
	}
	fsAll := func(l *opLayers) fsTimes { return l.fsIngest.plus(l.fsOpen).plus(l.fsFit) }
	ingestSelf := func(l *opLayers) time.Duration { return l.ingest - l.fsIngest.total() - l.observe }
	preEpoch := func(l *opLayers) time.Duration { return l.fit - sum(l.epochs) }
	res.set("ingest.run_s", "s", sec(func(l *opLayers) time.Duration { return l.ingest }))
	res.set("ingest.input_rows", "rows", med(func(l *opLayers) float64 { return float64(l.inputRows) }))
	res.set("ingest.quarantined_rows", "rows", med(func(l *opLayers) float64 { return float64(l.badRows) }))
	res.set("ingest.self_s", "s", sec(ingestSelf))
	res.set("checkpoint.write_s", "s", sec(func(l *opLayers) time.Duration { return fsAll(l).write }))
	res.set("checkpoint.sync_s", "s", sec(func(l *opLayers) time.Duration { return fsAll(l).sync }))
	res.set("checkpoint.rename_s", "s", sec(func(l *opLayers) time.Duration { return fsAll(l).rename }))
	res.set("checkpoint.read_s", "s", sec(func(l *opLayers) time.Duration { return fsAll(l).read }))
	res.set("checkpoint.syncs", "count", med(func(l *opLayers) float64 { return float64(fsAll(l).syncs) }))
	res.set("drift.observe_s", "s", sec(func(l *opLayers) time.Duration { return l.observe }))
	res.set("drift.build_s", "s", sec(func(l *opLayers) time.Duration { return l.build }))
	res.set("ifair.fit_s", "s", sec(func(l *opLayers) time.Duration { return l.fit }))
	res.set("ifair.pre_epoch_s", "s", sec(preEpoch))
	res.set("optimize.epoch_s", "s", medianDur(epochs).Seconds())
	res.set("optimize.evals", "count", med(func(l *opLayers) float64 { return float64(l.evals) }))

	// Ledger: the self times of all layers in an op sum to the durations
	// of its four top-level spans; the residual is op time no span covers.
	residual := med(func(l *opLayers) float64 {
		return 100 * float64(l.op-l.ingest-l.open-l.fit-l.build) / float64(l.op)
	})
	res.set("ledger.residual_pct", "%", residual)
	verdict := "within"
	if math.Abs(residual) > trainLedgerMargin {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(os.Stderr, "ledger: op time no span covers is %.4f%% (%s the ±%.0f%% margin)\n", residual, verdict, trainLedgerMargin)

	if err := probeFit(cfg, cal, t, tr, res); err != nil {
		return err
	}
	return tr.write(cfg.spanPath)
}

// probeFit times the layers inside the fit's pre-epoch phase on their
// own: the shard sweep, the incremental kd-tree build and the
// all-neighbours query, repeated for d/3 and reported as medians.
func probeFit(cfg runConfig, cal *calibrator, t *trainRun, tr *tracer, res *result) error {
	dir := filepath.Join(t.dir, "probe")
	defer os.RemoveAll(dir)
	if _, err := ingest.Run(context.Background(), bytes.NewReader(t.in.csv), ingest.Config{
		Dir: dir, Schema: trainSchema, MaxBadRows: -1,
	}); err != nil {
		return err
	}
	st, err := ingest.OpenStream(dir, nil)
	if err != nil {
		return err
	}
	// The standardised non-protected projection FitStream indexes.
	means, stds := st.MeanStd()
	prot := map[int]bool{}
	for _, p := range st.ProtectedCols() {
		prot[p] = true
	}
	var idx []int
	for j := 0; j < st.Cols(); j++ {
		if !prot[j] {
			idx = append(idx, j)
		}
	}
	proj := make([]float64, 0, st.Rows()*len(idx))
	if err := st.Sweep(func(_ int, x []float64) error {
		for _, j := range idx {
			sd := stds[j]
			if sd == 0 {
				sd = 1
			}
			proj = append(proj, (x[j]-means[j])/sd)
		}
		return nil
	}); err != nil {
		return err
	}
	rows, w := st.Rows(), len(idx)

	var tree *knn.KDTree
	probes := []struct {
		name string
		fn   func() error
	}{
		{"ingest.sweep", func() error {
			s, err := ingest.OpenStream(dir, nil)
			if err != nil {
				return err
			}
			n := 0
			if err := s.Sweep(func(int, []float64) error { n++; return nil }); err != nil {
				return err
			}
			if n != int(t.in.good) {
				return fmt.Errorf("sweep visited %d rows, want %d", n, t.in.good)
			}
			return nil
		}},
		{"knn.build", func() error {
			b := knn.NewBuilder(rows, w)
			for r := 0; r < rows; r++ {
				b.Append(proj[r*w : (r+1)*w])
			}
			tree = b.Build()
			return nil
		}},
		{"knn.all_neighbors", func() error {
			neigh := tree.AllNeighborsWorkers(t.opts.NeighborK, t.opts.Workers)
			if len(neigh) != rows || len(neigh[0]) != t.opts.NeighborK {
				return fmt.Errorf("all-neighbours returned %d lists", len(neigh))
			}
			return nil
		}},
	}
	times := make([][]time.Duration, len(probes))
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < cfg.duration/3; round++ {
		speed := cal.speed()
		took := make([]time.Duration, len(probes))
		for i, p := range probes {
			t0 := time.Now()
			err := p.fn()
			t1 := time.Now()
			res.Attempted++
			if err != nil {
				res.Failed++
				res.Correct = false
				return fmt.Errorf("%s: %w", p.name, err)
			}
			took[i] = t1.Sub(t0)
			tr.add(0, 0, 0, p.name, t0, t1)
		}
		speed = (speed + cal.speed()) / 2
		for i, d := range took {
			times[i] = append(times[i], scaled(d, speed))
		}
	}
	for i, p := range probes {
		res.set(p.name+"_s", "s", medianDur(times[i]).Seconds())
	}
	return nil
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// ---- layer wrappers ----

// fsTimes is time spent in the checkpoint.FS layer, by kind of call.
type fsTimes struct {
	write, sync, rename, read time.Duration
	syncs                     int
}

func (a fsTimes) plus(b fsTimes) fsTimes {
	return fsTimes{a.write + b.write, a.sync + b.sync, a.rename + b.rename, a.read + b.read, a.syncs + b.syncs}
}

func (a fsTimes) minus(b fsTimes) fsTimes {
	return fsTimes{a.write - b.write, a.sync - b.sync, a.rename - b.rename, a.read - b.read, a.syncs - b.syncs}
}

func (a fsTimes) total() time.Duration { return a.write + a.sync + a.rename + a.read }

func (a fsTimes) scale(f float64) fsTimes {
	return fsTimes{scaled(a.write, f), scaled(a.sync, f), scaled(a.rename, f), scaled(a.read, f), a.syncs}
}

// scale converts the op's times to reference speed.
func (l *opLayers) scale(f float64) {
	for _, d := range []*time.Duration{&l.op, &l.ingest, &l.open, &l.fit, &l.build, &l.observe} {
		*d = scaled(*d, f)
	}
	for i := range l.epochs {
		l.epochs[i] = scaled(l.epochs[i], f)
	}
	l.fsIngest, l.fsOpen, l.fsFit = l.fsIngest.scale(f), l.fsOpen.scale(f), l.fsFit.scale(f)
}

// timedFS is checkpoint.OSFS with every call timed and recorded as a
// span under the current parent. Create, Write, Close, MkdirAll and
// Remove count as writes; Sync and SyncDir as syncs.
type timedFS struct {
	tr     *tracer
	op     int64
	parent int64
	t      fsTimes
}

func (f *timedFS) setParent(id int64) {
	if f != nil {
		f.parent = id
	}
}

func (f *timedFS) snapshot() fsTimes {
	if f == nil {
		return fsTimes{}
	}
	return f.t
}

func (f *timedFS) record(name string, d *time.Duration, start time.Time) {
	end := time.Now()
	*d += end.Sub(start)
	f.tr.add(0, f.parent, f.op, name, start, end)
}

func (f *timedFS) MkdirAll(dir string, perm fs.FileMode) error {
	t := time.Now()
	err := checkpoint.OSFS{}.MkdirAll(dir, perm)
	f.record("checkpoint.write", &f.t.write, t)
	return err
}

func (f *timedFS) Create(name string) (checkpoint.File, error) {
	t := time.Now()
	file, err := checkpoint.OSFS{}.Create(name)
	f.record("checkpoint.write", &f.t.write, t)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	t := time.Now()
	err := checkpoint.OSFS{}.Rename(oldpath, newpath)
	f.record("checkpoint.rename", &f.t.rename, t)
	return err
}

func (f *timedFS) Remove(name string) error {
	t := time.Now()
	err := checkpoint.OSFS{}.Remove(name)
	f.record("checkpoint.write", &f.t.write, t)
	return err
}

func (f *timedFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	t := time.Now()
	ents, err := checkpoint.OSFS{}.ReadDir(dir)
	f.record("checkpoint.read", &f.t.read, t)
	return ents, err
}

func (f *timedFS) ReadFile(name string) ([]byte, error) {
	t := time.Now()
	b, err := checkpoint.OSFS{}.ReadFile(name)
	f.record("checkpoint.read", &f.t.read, t)
	return b, err
}

func (f *timedFS) SyncDir(dir string) error {
	t := time.Now()
	err := checkpoint.OSFS{}.SyncDir(dir)
	f.t.syncs++
	f.record("checkpoint.sync", &f.t.sync, t)
	return err
}

type timedFile struct {
	checkpoint.File
	fs *timedFS
}

func (w *timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := w.File.Write(p)
	w.fs.record("checkpoint.write", &w.fs.t.write, t)
	return n, err
}

func (w *timedFile) Sync() error {
	t := time.Now()
	err := w.File.Sync()
	w.fs.t.syncs++
	w.fs.record("checkpoint.sync", &w.fs.t.sync, t)
	return err
}

func (w *timedFile) Close() error {
	t := time.Now()
	err := w.File.Close()
	w.fs.record("checkpoint.write", &w.fs.t.write, t)
	return err
}

// timedObserver times drift.ProfileBuilder's per-row hook. A span
// per row would cost more than the row, so only the total is kept.
type timedObserver struct {
	inner ingest.RowObserver
	total time.Duration
}

func (o *timedObserver) ObserveRow(row []float64) {
	t := time.Now()
	o.inner.ObserveRow(row)
	o.total += time.Since(t)
}

// epochTrace turns the optimizer's per-epoch events into epoch spans;
// the first runs from the restart's start.
type epochTrace struct {
	tr         *tracer
	op, parent int64
	mark       time.Time
	lay        *opLayers
}

func (e *epochTrace) RestartStart(int) { e.mark = time.Now() }

func (e *epochTrace) Iteration(_ int, it optimize.Iteration) {
	now := time.Now()
	e.lay.epochs = append(e.lay.epochs, now.Sub(e.mark))
	e.lay.evals = it.Evals
	e.tr.add(0, e.parent, e.op, "optimize.epoch", e.mark, now)
	e.mark = now
}

func (e *epochTrace) RestartEnd(int, optimize.Result, error) {}
