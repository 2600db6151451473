package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary impersonate the real CLI: when re-executed
// with IFAIR_CLI_MAIN=1 it runs main() instead of the tests, so the
// SIGTERM test below can kill a genuine ifair process — real signal
// handler, real checkpoint flush, real exit — without needing a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("IFAIR_CLI_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTrainingCSV emits a small numeric CSV with a header row.
func writeTrainingCSV(t *testing.T, path string) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write([]string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		row := make([]string, 4)
		for j := range row {
			row[j] = strconv.FormatFloat(rng.NormFloat64(), 'g', 17, 64)
		}
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runCLI re-executes the test binary as the ifair CLI with the given
// arguments and returns the finished command and its stderr.
func runCLI(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "IFAIR_CLI_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	return cmd, &stderr
}

// TestSIGTERMCheckpointResume is the end-to-end crash-safety test with a
// real process and a real signal: start training with -checkpoint on one
// restart worker, SIGTERM it once restart 0 has finished and restart 1
// has started, rerun the identical command, and the resumed run must
// replay restart 0 from the checkpoint and save a model byte-identical to
// the model of a run that was never interrupted.
func TestSIGTERMCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "train.csv")
	writeTrainingCSV(t, input)

	baseArgs := func(modelPath, ckptDir string) []string {
		return []string{
			"-input", input, "-protected", "3",
			"-k", "3", "-restarts", "3", "-maxiter", "60", "-seed", "9",
			"-restart-workers", "1",
			"-save", modelPath, "-checkpoint", ckptDir,
			"-out", filepath.Join(dir, "out.csv"),
		}
	}

	// Uninterrupted reference run (its own checkpoint dir).
	refModel := filepath.Join(dir, "ref.json")
	cmd, stderr := runCLI(t, baseArgs(refModel, filepath.Join(dir, "ckpt-ref"))...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("reference run: %v\nstderr:\n%s", err, stderr)
	}
	ref, err := os.ReadFile(refModel)
	if err != nil {
		t.Fatalf("reference model: %v", err)
	}

	// Interrupted run: -progress gives us the signal-worthy moment. With
	// one restart worker, "restart 1: started" is printed only after
	// restart 0 finished and its snapshot was written.
	ckptDir := filepath.Join(dir, "ckpt")
	killedModel := filepath.Join(dir, "killed.json")
	args := append(baseArgs(killedModel, ckptDir), "-progress")
	cmd, _ = runCLI(t, args...)
	cmd.Stderr = nil // read stderr through a pipe instead
	progress, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sawRestart1 := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(progress)
		seen := false
		for sc.Scan() {
			if !seen && sc.Text() == "restart 1: started" {
				seen = true
				close(sawRestart1)
			}
		}
	}()
	select {
	case <-sawRestart1:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("never saw restart 1 start before the timeout")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if err == nil {
		// The run finished before the signal landed; the checkpoint dir
		// then holds a complete state and the resume below still must
		// reproduce the reference model.
		t.Log("run completed before SIGTERM landed; checking resume of a complete checkpoint")
	} else if cmd.ProcessState.ExitCode() != 1 {
		t.Fatalf("killed run: %v (exit %d)", err, cmd.ProcessState.ExitCode())
	}
	if _, err := os.Stat(killedModel); err == nil && cmd.ProcessState.ExitCode() == 1 {
		t.Fatal("killed run saved a model despite failing")
	}
	names, _ := filepath.Glob(filepath.Join(ckptDir, "snap-*.ckpt"))
	if len(names) == 0 {
		t.Fatal("killed run left no checkpoint snapshots")
	}

	// Resume with the identical command (plus -resume: the checkpoint must
	// match, or the run should fail loudly).
	resumedModel := filepath.Join(dir, "resumed.json")
	args = append(baseArgs(resumedModel, ckptDir), "-resume")
	cmd, stderr = runCLI(t, args...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("resumed run: %v\nstderr:\n%s", err, stderr)
	}
	resumed, err := os.ReadFile(resumedModel)
	if err != nil {
		t.Fatalf("resumed model: %v", err)
	}
	if !strings.Contains(stderr.String(), "restart 0: resumed from checkpoint") {
		t.Fatalf("resumed run did not replay restart 0 from the checkpoint\nstderr:\n%s", stderr)
	}
	if !bytes.Equal(ref, resumed) {
		t.Fatalf("resumed model differs from uninterrupted reference\nref:     %d bytes\nresumed: %d bytes", len(ref), len(resumed))
	}
}

// TestResumeRejectsForeignCheckpoint pins the -resume contract: resuming
// against a checkpoint recorded for different options must fail, not
// silently retrain.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "train.csv")
	writeTrainingCSV(t, input)
	ckptDir := filepath.Join(dir, "ckpt")

	cmd, stderr := runCLI(t,
		"-input", input, "-protected", "3", "-k", "3", "-restarts", "2",
		"-maxiter", "30", "-seed", "9", "-checkpoint", ckptDir,
		"-out", filepath.Join(dir, "out.csv"))
	if err := cmd.Run(); err != nil {
		t.Fatalf("first run: %v\nstderr:\n%s", err, stderr)
	}

	// Different seed, same checkpoint dir, -resume: must fail.
	cmd, stderr = runCLI(t,
		"-input", input, "-protected", "3", "-k", "3", "-restarts", "2",
		"-maxiter", "30", "-seed", "10", "-checkpoint", ckptDir, "-resume",
		"-out", filepath.Join(dir, "out.csv"))
	if err := cmd.Run(); err == nil {
		t.Fatalf("resume with mismatched seed succeeded\nstderr:\n%s", stderr)
	}
	if !strings.Contains(stderr.String(), "snapshot") {
		t.Fatalf("mismatch error does not mention the snapshot:\n%s", stderr)
	}
}
