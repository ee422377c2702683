package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailedRunStillWritesProfileAndTelemetry: a run that fails — here a
// restart from a checkpoint that does not exist — exits non-zero through
// run's return value, not through the process, so the CPU profile is
// stopped and closed (a complete gzip stream) and the telemetry table is
// on stderr: a failed run is when both are wanted.
func TestFailedRunStillWritesProfileAndTelemetry(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scenario", "sinker", "-small", "-workers", "1",
		"-restart-from", "/nonexistent", "-telemetry", "-cpuprofile", prof}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr:\n%s", code, &stderr)
	}
	for _, want := range []string{"# Telemetry breakdown", "par.calls", "# Telemetry (JSON)", "ptatin-run: restart:", "/nonexistent"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, &stderr)
		}
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzip stream: %v", err)
	}
	if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
		t.Fatalf("profile does not decode to the end: %d bytes, %v", len(raw), err)
	}
}

// TestUsageErrors: a missing -scenario and an unknown flag are exit 2, -h
// exit 0, none of them reaching a solve.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2}, {[]string{"-bogus"}, 2}, {[]string{"-h"}, 0},
		{[]string{"-scenario", "sinker", "-small", "-op", "auto"}, 1},
	} {
		if code := run(tc.args, io.Discard, io.Discard); code != tc.code {
			t.Errorf("run(%q) = %d, want %d", tc.args, code, tc.code)
		}
	}
}
