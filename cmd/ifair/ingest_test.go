package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// writeDirtyCSV emits a numeric CSV with a seeded sprinkle of defective
// rows — the input for the ingest chaos soak.
func writeDirtyCSV(t *testing.T, path string, rows int) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	var sb strings.Builder
	sb.WriteString("a,b,c,d\n")
	for i := 0; i < rows; i++ {
		if i%41 == 40 {
			switch i % 3 {
			case 0:
				sb.WriteString("1,2,3\n") // short
			case 1:
				sb.WriteString("garbage,2,3,4\n")
			default:
				sb.WriteString("NaN,2,3,4\n")
			}
			continue
		}
		fmt.Fprintf(&sb, "%.9f,%.9f,%.9f,%.9f\n",
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readStore loads every file of a shard store keyed by base name.
func readStore(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read store %s: %v", dir, err)
	}
	store := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		store[e.Name()] = b
	}
	return store
}

func diffStores(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	var names []string
	for n := range want {
		names = append(names, n)
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		w, g := want[n], got[n]
		switch {
		case w == nil:
			t.Errorf("store has unexpected file %s", n)
		case g == nil:
			t.Errorf("store is missing file %s", n)
		case !bytes.Equal(w, g):
			t.Errorf("store file %s differs (%d vs %d bytes)", n, len(w), len(g))
		}
	}
}

// TestInputAcceptsDatagenCSV: -input reads a CSV shaped like a
// cmd/datagen export — boolean label and group cells, padded header names
// — and writes the same output header as -input -ingest, because both
// validate rows with the same internal/ingest validator.
func TestInputAcceptsDatagenCSV(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "syn.csv")
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	sb.WriteString(" x1 ,x2,prot,label, protected_group\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%.6f,%.6f,%d,%t,%t\n",
			rng.NormFloat64(), rng.NormFloat64(), i%2, rng.Intn(2) == 0, i%2 == 1)
	}
	if err := os.WriteFile(input, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	header := func(extra ...string) string {
		t.Helper()
		out := filepath.Join(dir, fmt.Sprintf("out%d.csv", len(extra)))
		args := append([]string{"-input", input, "-protected", "2",
			"-k", "2", "-restarts", "1", "-maxiter", "5", "-out", out}, extra...)
		cmd, stderr := runCLI(t, args...)
		if err := cmd.Run(); err != nil {
			t.Fatalf("ifair %v: %v\nstderr:\n%s", extra, err, stderr)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return strings.SplitN(string(b), "\n", 2)[0]
	}
	plain := header()
	if want := "x1,x2,prot,label,protected_group"; plain != want {
		t.Fatalf("-input header = %q, want %q", plain, want)
	}
	if ingested := header("-ingest", filepath.Join(dir, "store")); ingested != plain {
		t.Fatalf("-input -ingest header = %q, -input header = %q", ingested, plain)
	}
}

// TestSIGTERMIngestResume is the end-to-end ingest chaos soak: a real
// ifair process is SIGTERMed mid-ingest (after a chosen number of shard
// seals), rerun with -resume-ingest, and the final shard store, trained
// model and drift profile must be byte-identical to an uninterrupted
// run's. IFAIR_TEST_INGEST=1 widens the sweep to several kill points and
// a double-kill run.
func TestSIGTERMIngestResume(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "dirty.csv")
	writeDirtyCSV(t, input, 4000)

	args := func(store, model, profile string) []string {
		return []string{
			"-input", input, "-protected", "3",
			"-ingest", store, "-shard-rows", "64", "-max-bad-rows", "-1",
			"-fairness", "neighbor", "-k", "3", "-restarts", "1",
			"-maxiter", "25", "-seed", "9",
			"-save", model, "-save-profile", profile,
			"-out", filepath.Join(dir, "out.csv"),
		}
	}

	// Uninterrupted reference run.
	refStore := filepath.Join(dir, "store-ref")
	refModel := filepath.Join(dir, "ref.json")
	refProfile := filepath.Join(dir, "ref.profile")
	cmd, stderr := runCLI(t, args(refStore, refModel, refProfile)...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("reference run: %v\nstderr:\n%s", err, stderr)
	}
	if strings.Contains(stderr.String(), "resumed") {
		t.Fatalf("uninterrupted run reports a resume:\n%s", stderr)
	}
	ref := readStore(t, refStore)
	refModelBytes, err := os.ReadFile(refModel)
	if err != nil {
		t.Fatal(err)
	}
	refProfileBytes, err := os.ReadFile(refProfile)
	if err != nil {
		t.Fatal(err)
	}

	killPoints := []int{2}
	if os.Getenv("IFAIR_TEST_INGEST") == "1" {
		killPoints = []int{1, 3, 10, 30}
	}

	for _, seals := range killPoints {
		t.Run(fmt.Sprintf("kill_after_%d_seals", seals), func(t *testing.T) {
			store := filepath.Join(dir, fmt.Sprintf("store-%d", seals))
			model := filepath.Join(dir, fmt.Sprintf("model-%d.json", seals))
			profile := filepath.Join(dir, fmt.Sprintf("profile-%d.profile", seals))

			killMidIngest(t, args(store, model, profile), seals)
			if os.Getenv("IFAIR_TEST_INGEST") == "1" && seals > 1 {
				// Double kill: interrupt the resume too, at an earlier
				// point of what remains.
				killMidIngest(t, append(args(store, model, profile), "-resume-ingest"), 1)
			}

			resumeArgs := append(args(store, model, profile), "-resume-ingest")
			cmd, stderr := runCLI(t, resumeArgs...)
			if err := cmd.Run(); err != nil {
				t.Fatalf("resumed run: %v\nstderr:\n%s", err, stderr)
			}
			// The killed run sealed at least `seals` shards of 64 rows
			// before the signal; the summary line reports their prefix.
			m := regexp.MustCompile(`ingest: \d+ good row.*; resumed a durable prefix of (\d+) input row\(s\)\n`).FindStringSubmatch(stderr.String())
			if m == nil {
				t.Fatalf("no resume summary line\nstderr:\n%s", stderr)
			}
			skipped, _ := strconv.Atoi(m[1])
			if skipped < 64*seals || skipped > 4000 {
				t.Fatalf("resume summary reports %d skipped input rows after %d seals of 64", skipped, seals)
			}
			diffStores(t, ref, readStore(t, store))
			gotModel, err := os.ReadFile(model)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refModelBytes, gotModel) {
				t.Fatal("resumed model differs from uninterrupted reference")
			}
			gotProfile, err := os.ReadFile(profile)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refProfileBytes, gotProfile) {
				t.Fatal("resumed drift profile differs from uninterrupted reference")
			}
		})
	}
}

// killMidIngest starts the CLI and SIGTERMs it after `seals` "sealed"
// lines appear on stderr. If the run finishes before the signal lands
// that is fine — the resume then verifies a complete store instead.
func killMidIngest(t *testing.T, cliArgs []string, seals int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], cliArgs...)
	cmd.Env = append(os.Environ(), "IFAIR_CLI_MAIN=1")
	progress, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sawSeals := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(progress)
		n := 0
		for sc.Scan() {
			if strings.Contains(sc.Text(), "sealed") {
				if n++; n == seals {
					close(sawSeals)
				}
			}
		}
	}()
	select {
	case <-sawSeals:
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("never saw %d seal notices before the timeout", seals)
	}
	if err := cmd.Wait(); err == nil {
		t.Logf("run finished before SIGTERM landed after %d seals", seals)
	}
}
