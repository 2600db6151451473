package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkFitParallelRestarts/Workers=1-8         	       2	 512345678 ns/op	         0.1234 final_loss	 1024 B/op	      12 allocs/op
BenchmarkFitParallelRestarts/Workers=4-8         	       8	 131072000 ns/op	         0.1234 final_loss
BenchmarkTransform    	    1000	   1048576 ns/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	results, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	r := results[0]
	if r.Name != "BenchmarkFitParallelRestarts/Workers=1" || r.Procs != 8 {
		t.Fatalf("name/procs = %q/%d", r.Name, r.Procs)
	}
	if r.Iterations != 2 || r.NsPerOp != 512345678 {
		t.Fatalf("iterations/ns = %d/%v", r.Iterations, r.NsPerOp)
	}
	if r.Metrics["final_loss"] != 0.1234 || r.Metrics["B/op"] != 1024 || r.Metrics["allocs/op"] != 12 {
		t.Fatalf("metrics = %v", r.Metrics)
	}
	if got := results[2]; got.Name != "BenchmarkTransform" || got.Procs != 1 || got.Metrics != nil {
		t.Fatalf("plain line parsed as %+v", got)
	}
}

func TestParseSkipsNonBenchLines(t *testing.T) {
	results, err := parse(bufio.NewScanner(strings.NewReader("PASS\nok repro 1s\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("parsed %d results from noise", len(results))
	}
}

func TestCompareAllocs(t *testing.T) {
	baseline := `[
		{"name": "BenchmarkServerTransform", "procs": 8, "iterations": 100, "ns_per_op": 33000,
		 "metrics": {"allocs/op": 0, "B/op": 3}},
		{"name": "BenchmarkMicroBatcher", "procs": 8, "iterations": 100, "ns_per_op": 1100000,
		 "metrics": {"allocs/op": 10, "B/op": 589}}
	]`
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, allocs float64) Result {
		return Result{Name: name, Metrics: map[string]float64{"allocs/op": allocs}}
	}

	// Within slack: a zero baseline must stay exactly zero, a non-zero
	// one gets proportional headroom (10 + ceil(10*25%) = 13).
	ok := []Result{mk("BenchmarkServerTransform", 0), mk("BenchmarkMicroBatcher", 13)}
	regs, err := compareMetrics(path, ok, 25, []string{"allocs/op"})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	// Over slack: both must be flagged.
	bad := []Result{mk("BenchmarkServerTransform", 1), mk("BenchmarkMicroBatcher", 14)}
	regs, err = compareMetrics(path, bad, 25, []string{"allocs/op"})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want 2", regs)
	}

	// Benchmarks absent from the baseline are never gated.
	regs, err = compareMetrics(path, []Result{mk("BenchmarkBrandNew", 999)}, 25, []string{"allocs/op"})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("new benchmark gated: %v", regs)
	}
}

func TestCompareMetricsGatesFinalLoss(t *testing.T) {
	baseline := `[
		{"name": "BenchmarkFitLarge/m=100k", "procs": 8, "iterations": 1, "ns_per_op": 1,
		 "metrics": {"allocs/op": 100, "final_loss": 674000}}
	]`
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(loss, allocs float64) []Result {
		return []Result{{Name: "BenchmarkFitLarge/m=100k",
			Metrics: map[string]float64{"allocs/op": allocs, "final_loss": loss}}}
	}
	gates := []string{"allocs/op", "final_loss"}

	// Within proportional slack (674000 × 1.05 = 707700); a lower loss is
	// never a regression.
	for _, loss := range []float64{674000, 707000, 1} {
		regs, err := compareMetrics(path, mk(loss, 100), 5, gates)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("loss %g flagged: %v", loss, regs)
		}
	}

	// Loss drift beyond slack is flagged even with allocs flat.
	regs, err := compareMetrics(path, mk(710000, 100), 5, gates)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "final_loss") {
		t.Fatalf("regressions = %v, want one final_loss entry", regs)
	}

	// Both metrics over: both flagged.
	regs, err = compareMetrics(path, mk(710000, 200), 5, gates)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want 2", regs)
	}

	// An un-gated metric never fires.
	regs, err = compareMetrics(path, mk(9e9, 100), 5, []string{"allocs/op"})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("ungated metric flagged: %v", regs)
	}
}
