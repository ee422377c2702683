package cli

import (
	"flag"
	"runtime"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := ParseInts(" 8, 12 ,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 8 || got[1] != 12 || got[2] != 16 {
		t.Fatalf("got %v", got)
	}
	for _, bad := range []string{"", "8,,16", "8,two"} {
		if _, err := ParseInts(bad); err == nil {
			t.Errorf("ParseInts(%q) accepted", bad)
		}
	}
}

func TestParseRanks(t *testing.T) {
	px, py, pz, err := ParseRanks("2x2x1")
	if err != nil {
		t.Fatal(err)
	}
	if px != 2 || py != 2 || pz != 1 {
		t.Fatalf("got %dx%dx%d", px, py, pz)
	}
	for _, bad := range []string{"", "2x2", "2x2x2x2", "2x0x1", "axbxc", "-1x2x2"} {
		if _, _, _, err := ParseRanks(bad); err == nil {
			t.Errorf("ParseRanks(%q) accepted", bad)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("positive passthrough")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Fatal("normalization must yield >= 1")
	}
	ns := WorkersList([]int{1, 0, 4})
	if ns[0] != 1 || ns[1] < 1 || ns[2] != 4 {
		t.Fatalf("got %v", ns)
	}
}

// TestParseWorkersPerRank: -workers 0 shares the CPUs among the ranks of
// -ranks, max(1, NumCPU/ranks) each; a given count is every rank's; a
// malformed rank grid leaves 0 at NumCPU for the command to refuse.
func TestParseWorkersPerRank(t *testing.T) {
	ncpu := runtime.NumCPU()
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-workers", "0", "-ranks", "2x1x1"}, max(1, ncpu/2)},
		{[]string{"-ranks", "2x2x2"}, max(1, ncpu/8)},
		{[]string{"-ranks", "1x1x1"}, ncpu},
		{[]string{"-workers", "3", "-ranks", "2x1x1"}, 3},
		{[]string{"-workers", "0"}, ncpu},
		{[]string{"-ranks", "2x"}, ncpu},
	} {
		var f Flags
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f.Register(fs, "workers", "ranks")
		if err := f.Parse(fs, c.args); err != nil {
			t.Fatal(err)
		}
		if f.Workers != c.want {
			t.Errorf("%v: workers %d, want %d", c.args, f.Workers, c.want)
		}
	}
}
