// Command perfbench is the repository benchmark. Each run drives one
// workload in a closed loop from inside this process, checks every output
// against an oracle computed at set-up, and prints its metrics. With
// --trace 0 it reports the end-to-end metrics of BENCHMARK.json, measured
// with tracing off; with --trace 1 it reports the per-layer metrics from a
// traced run, plus the tracing overhead and the ledger residual.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human-readable report goes
// to standard error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything a run writes: temporary stores, model files
// and span dumps. It is relative to the working directory, the root of
// the checkout.
const buildDir = ".bench_build"

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	workDir  string // private scratch directory, removed at exit
	spanPath string // where a traced run writes its spans
}

var workloads = map[string]func(runConfig) (*result, error){
	"serve-batch": func(c runConfig) (*result, error) { return runServe(c, serveBatch) },
	"serve-row":   func(c runConfig) (*result, error) { return runServe(c, serveRow) },
	"train":       runTrain,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: serve-batch, serve-row or train")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-batch|serve-row|train --seed N --seconds S --trace 0|1")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work := filepath.Join(buildDir, "tmp", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workDir:  work,
		spanPath: filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)),
	}
	res, err := fn(cfg)
	if err == nil {
		err = spec.conform(res, cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// benchSpec is the part of BENCHMARK.json the program checks itself
// against: the metric names and units each kind of run must print.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// conform restricts res to the metrics the spec lists for this kind of
// run, in the spec's units. An end-to-end metric must have been measured.
// A per-layer metric of a layer the workload never calls reads 0.
func (s *benchSpec) conform(res *result, trace bool) error {
	want := s.EndToEnd
	if trace {
		want = s.PerLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok && !trace:
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		case !ok:
			got = metric{Unit: m.Unit}
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, spec says %s", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		out[m.Name] = got
	}
	res.Metrics = out
	return nil
}

func report(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// ---- process counters ----

// usage is a snapshot of the process-wide counters the end-to-end
// metrics difference over the measured window.
type usage struct {
	mallocs uint64
	cpu     time.Duration // user + system
}

func sampleUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return usage{mallocs: ms.Mallocs, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// loopResult is what a closed loop completed. Inside sliced, its times
// are scaled to reference speed.
type loopResult struct {
	elapsed           time.Duration
	lat               []time.Duration // successful calls only
	attempted, failed int64
	rows              uint64        // rows the program reported completing
	mallocs           uint64        // process-wide heap allocations
	cpu               time.Duration // process user + system CPU
	slices            []sliceStat
}

// sliceStat is one slice of a sliced loop, times at reference speed.
type sliceStat struct {
	speed        float64 // host speed around the slice
	rows         uint64
	elapsed, cpu time.Duration
}

func (a *loopResult) merge(b loopResult) {
	a.elapsed += b.elapsed
	a.lat = append(a.lat, b.lat...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.rows += b.rows
	a.mallocs += b.mallocs
	a.cpu += b.cpu
	a.slices = append(a.slices, b.slices...)
}

func (r *result) add(l loopResult) {
	r.Attempted += l.attempted
	r.Failed += l.failed
	if l.failed > 0 {
		r.Correct = false
	}
}

// sliceLen is how long the workload runs between two timings of the
// reference work.
const sliceLen = 500 * time.Millisecond

// sliced calls run(sliceLen) back to back until d has passed (at least
// once) or a slice makes no calls, timing the reference work before the
// first slice and after every slice. Each slice's times, CPU included,
// are scaled by the mean host speed measured around it; onSlice, when
// set, gets that speed too.
func sliced(cal *calibrator, d time.Duration, run func(time.Duration) loopResult, onSlice func(speed float64)) loopResult {
	var out loopResult
	speed := cal.speed()
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		before := sampleUsage()
		l := run(min(sliceLen, d))
		after := sampleUsage()
		if l.attempted == 0 {
			break
		}
		next := cal.speed()
		f := (speed + next) / 2
		speed = next
		for i := range l.lat {
			l.lat[i] = scaled(l.lat[i], f)
		}
		l.elapsed = scaled(l.elapsed, f)
		l.mallocs = after.mallocs - before.mallocs
		l.cpu = scaled(after.cpu-before.cpu, f)
		l.slices = []sliceStat{{speed: f, rows: l.rows, elapsed: l.elapsed, cpu: l.cpu}}
		out.merge(l)
		if onSlice != nil {
			onSlice(f)
		}
	}
	return out
}

// alternate measures run untraced and traced in alternating stretches,
// d in total, so a change in host speed affects both alike; the
// difference between the two is the tracing overhead. onTraced is passed
// to sliced for the traced stretches.
func alternate(cal *calibrator, d time.Duration, run func(d time.Duration, tr *tracer) loopResult, tr *tracer, onTraced func(speed float64)) (plain, traced loopResult) {
	const stretches = 4
	each := d / (2 * stretches)
	for i := 0; i < stretches; i++ {
		plain.merge(sliced(cal, each, func(s time.Duration) loopResult { return run(s, nil) }, nil))
		traced.merge(sliced(cal, each, func(s time.Duration) loopResult { return run(s, tr) }, onTraced))
	}
	return plain, traced
}

// setEndToEnd fills the metrics every workload reports with tracing off.
func setEndToEnd(res *result, setups []time.Duration, w loopResult) error {
	if w.rows == 0 || len(w.lat) == 0 {
		return errors.New("measured window completed no rows")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("peak rss: %w", err)
	}
	// Rates are medians over the slices, so a burst of host noise shorter
	// than a slice moves them by one sample.
	var rates, cpus, speeds []float64
	for _, s := range w.slices {
		if s.rows > 0 {
			rates = append(rates, float64(s.rows)/s.elapsed.Seconds())
			cpus = append(cpus, ms(s.cpu)/(float64(s.rows)/1000))
		}
		speeds = append(speeds, s.speed)
	}
	res.set("setup_s", "s", medianDur(setups).Seconds())
	res.set("throughput_rows_s", "rows/s", medianF(rates))
	res.set("latency_p50_ms", "ms", ms(quantile(w.lat, 0.50)))
	tail := tailQuantile(len(w.lat))
	res.set("latency_tail_ms", "ms", ms(quantile(w.lat, tail)))
	res.set("allocs_per_row", "allocs", float64(w.mallocs)/float64(w.rows))
	res.set("cpu_ms_per_krow", "ms", medianF(cpus))
	res.set("peak_rss_mb", "MB", rss)
	fmt.Fprintf(os.Stderr, "window: %d samples (tail = p%.4g), %d rows in %d slices, %v at reference speed; host speed median %.3f (min %.3f, max %.3f); setups %v\n",
		len(w.lat), 100*tail, w.rows, len(w.slices), w.elapsed.Round(time.Millisecond),
		medianF(speeds), slices.Min(speeds), slices.Max(speeds), setups)
	return nil
}

// tailQuantile is the highest quantile, at most p99 and at least the
// median, with ten samples beyond it among n.
func tailQuantile(n int) float64 {
	return max(0.5, min(0.99, float64(n-10)/float64(n)))
}

// timedSetup runs setup and returns its duration at reference speed.
func timedSetup(cal *calibrator, setup func() error) (time.Duration, error) {
	before := cal.speed()
	t0 := time.Now()
	err := setup()
	d := time.Since(t0)
	return scaled(d, (before+cal.speed())/2), err
}

// ---- statistics ----

// quantile returns the nearest-rank q-quantile of ds (ds is sorted in
// place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(i, 0)]
}

func medianDur(ds []time.Duration) time.Duration {
	return quantile(append([]time.Duration(nil), ds...), 0.5)
}

// medianF returns the (lower) median of vs, sorting it in place.
func medianF(vs []float64) float64 {
	sort.Float64s(vs)
	return vs[(len(vs)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ---- closed loop ----

// closedLoop calls fn(client, round) on `clients` goroutines; each waits
// for its call to return before making the next. The loop stops after
// `rounds` rounds (when rounds > 0) or once d has passed (when d > 0),
// whichever comes first. After d has passed every client still finishes
// each round some client has started, so all clients make the same
// number of calls: a micro-batcher that flushes on size never waits for a
// partner that will not come. It returns the wall time from start to the
// last return.
func closedLoop(clients, rounds int, d time.Duration, fn func(client, round int)) time.Duration {
	var (
		mu         sync.Mutex
		last       = -1 // last round to run once the time is up; -1 = not yet
		maxStarted = -1
		wg         sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				mu.Lock()
				if (rounds > 0 && r >= rounds) || (last >= 0 && r > last) {
					mu.Unlock()
					return
				}
				maxStarted = max(maxStarted, r)
				mu.Unlock()
				fn(c, r)
				if d > 0 && time.Since(start) >= d {
					mu.Lock()
					if last < 0 {
						last = maxStarted
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
