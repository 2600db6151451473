package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfileRowsBelowOneRejected: -profile-rows < 1 is a flag error on
// both training paths. The in-memory profile would otherwise keep every
// training row as its reference sample while the -ingest builder fell
// back to drift.DefaultReferenceRows, so one flag value meant two
// different profiles.
func TestProfileRowsBelowOneRejected(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "train.csv")
	writeTrainingCSV(t, input)
	for _, rows := range []string{"0", "-1"} {
		for _, extra := range [][]string{nil, {"-ingest", filepath.Join(dir, "store"+rows)}} {
			prof := filepath.Join(dir, "p"+rows+".profile")
			args := append([]string{"-input", input, "-protected", "3", "-k", "2",
				"-restarts", "1", "-maxiter", "5", "-out", filepath.Join(dir, "out.csv"),
				"-save-profile", prof, "-profile-rows", rows}, extra...)
			cmd, stderr := runCLI(t, args...)
			if err := cmd.Run(); err == nil {
				t.Fatalf("-profile-rows %s %v succeeded\nstderr:\n%s", rows, extra, stderr)
			}
			if !strings.Contains(stderr.String(), "-profile-rows") {
				t.Fatalf("-profile-rows %s %v: error does not name the flag:\n%s", rows, extra, stderr)
			}
			if _, err := os.Stat(prof); !os.IsNotExist(err) {
				t.Fatalf("-profile-rows %s %v: a profile was written (stat err %v)", rows, extra, err)
			}
		}
	}
}
