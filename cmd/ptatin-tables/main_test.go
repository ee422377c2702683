package main

import (
	"bytes"
	"io"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// TestIterationCounts pins, through run, the iteration columns of the
// tables that the five binaries this one replaced printed at the commit
// that folded them (PR 20) — every solve here is Model.LinearStokes, so a
// count that moves is the time loop's solver moving.
func TestIterationCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		args []string
		its  string // one capture group: an iteration count, per row
		want []int
	}{
		{[]string{"table4", "-m", "8"}, `(?m)^(?:GMG|SA)\S*\s+(\d+)\s`, []int{29, 23, 29, 29, 21}},
		{[]string{"table2", "-grids", "8", "-cores", "1"}, `(?m)^8\s+1\s+\S+\s+(\d+)\s`, []int{29, 29, 29}},
		{[]string{"fig2", "-m", "8"}, `iterations=(\d+)`, []int{13, 29, 149}},
		{[]string{"table2", "-ranks", "2x1x1", "-grids", "8"}, `(?m)^8\s+2x1x1\s+(\d+)\s`, []int{29}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d\n%s", tc.args, code, &stderr)
		}
		var got []int
		for _, m := range regexp.MustCompile(tc.its).FindAllStringSubmatch(stdout.String()+stderr.String(), -1) {
			n, _ := strconv.Atoi(m[1])
			got = append(got, n)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q: iterations %v, want %v\n%s", tc.args, got, tc.want, &stdout)
		}
	}
}

// TestUsage: no command and an unknown one are exit 2, as are an unknown
// flag (the removed -pipelined among them); -h is exit 0 at both levels.
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2}, {[]string{"table9"}, 2}, {[]string{"-h"}, 0},
		{[]string{"table4", "-bogus"}, 2},
		{[]string{"table4", "-pipelined"}, 2}, {[]string{"sweep", "-pipelined"}, 2},
		{[]string{"inspect"}, 2},
		{[]string{"inspect", "/nonexistent"}, 1},
	} {
		if code := run(tc.args, io.Discard, io.Discard); code != tc.code {
			t.Errorf("run(%q) = %d, want %d", tc.args, code, tc.code)
		}
	}
	// Every command's flag set builds (a shared flag is registered by name).
	for _, cmd := range commands {
		if code := run([]string{cmd.name, "-h"}, io.Discard, io.Discard); code != 0 {
			t.Errorf("%s -h: exit %d", cmd.name, code)
		}
	}
}
