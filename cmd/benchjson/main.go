// Command benchjson converts `go test -bench` text output, read from
// stdin, into a JSON array so benchmark results can be archived and
// diffed across commits.
//
// Usage:
//
//	go test -bench=FitParallelRestarts -benchmem . | benchjson -out BENCH_fit.json
//
// Each benchmark line becomes one object carrying the benchmark name, GOMAXPROCS
// suffix, iteration count, ns/op, and any extra metrics (B/op, allocs/op,
// custom b.ReportMetric units).
//
// With -compare <baseline.json>, benchjson instead gates metric
// regressions: for every benchmark present in both the baseline and the
// fresh stdin run, each metric named by -gate (default allocs/op) must
// not exceed the archived value by more than -slack-pct percent.
// allocs/op headroom is rounded up to whole allocations, so a 0-alloc
// baseline stays exactly 0; continuous metrics such as final_loss get
// plain proportional slack. Only upward drift is flagged — a lower loss
// or allocation count is an improvement, not a regression. Offenders
// print to stderr and exit 1.
//
//	go test -bench='ServerTransform$' -benchmem . | benchjson -compare BENCH_serve.json
//	go test -bench=FitLarge -benchmem . | benchjson -compare BENCH_fit.json -gate allocs/op,final_loss
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name without the -N GOMAXPROCS suffix,
	// e.g. "BenchmarkFitParallelRestarts/Workers=4".
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 if absent).
	Procs int `json:"procs"`
	// Iterations is the b.N the measurement ran with.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op measurement.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every further "<value> <unit>" pair on the line,
	// keyed by unit: B/op, allocs/op and custom ReportMetric units.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("out", "", "output JSON path (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to gate metrics against (exit 1 on regression)")
	slackPct := flag.Float64("slack-pct", 25, "allowed headroom over the baseline, in percent (with -compare)")
	gate := flag.String("gate", "allocs/op", "comma-separated metrics to gate with -compare (e.g. allocs/op,final_loss)")
	flag.Parse()

	results, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *compare != "" {
		metrics := strings.Split(*gate, ",")
		regressions, err := compareMetrics(*compare, results, *slackPct, metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		if len(regressions) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s within baseline %s for %d benchmark(s)\n", *gate, *compare, len(results))
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *out)
	}
}

// parse extracts benchmark lines from go-test output, ignoring everything
// else (status lines, PASS/ok footers, build noise).
func parse(sc *bufio.Scanner) ([]Result, error) {
	var results []Result
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shortest valid line: name, iterations, value, unit.
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Procs: 1, Iterations: iters}
		if i := strings.LastIndex(r.Name, "-"); i > 0 {
			if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
				r.Name, r.Procs = r.Name[:i], p
			}
		}
		// The rest of the line is "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				r.NsPerOp = v
				continue
			}
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// compareMetrics checks the named metrics of every fresh result that
// also appears in the baseline file. For allocs/op the limit is
// baseline + ceil(baseline × slackPct/100): proportional headroom
// absorbs pool jitter on non-zero baselines while a 0-alloc baseline is
// gated exactly. Continuous metrics (final_loss, B/op, …) get plain
// proportional slack. Only upward drift counts: a drop is an
// improvement. Benchmarks or metrics absent from either side are
// ignored, so the gate never blocks new or renamed benchmarks.
func compareMetrics(baselinePath string, fresh []Result, slackPct float64, metrics []string) ([]string, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var baseline []Result
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, fmt.Errorf("%s: %w", baselinePath, err)
	}
	base := make(map[string]map[string]float64)
	for _, r := range baseline {
		base[r.Name] = r.Metrics
	}
	var regressions []string
	for _, r := range fresh {
		baseMetrics, ok := base[r.Name]
		if !ok {
			continue
		}
		for _, metric := range metrics {
			metric = strings.TrimSpace(metric)
			want, ok := baseMetrics[metric]
			if !ok {
				continue
			}
			got, ok := r.Metrics[metric]
			if !ok {
				continue
			}
			var limit float64
			if metric == "allocs/op" {
				limit = want + math.Ceil(want*slackPct/100)
			} else {
				limit = want + math.Abs(want)*slackPct/100
			}
			if got > limit {
				regressions = append(regressions,
					fmt.Sprintf("%s: %g %s, baseline %g (limit %g)", r.Name, got, metric, want, limit))
			}
		}
	}
	return regressions, nil
}
