// Package cli is what the two cmd/ binaries share: the flags both define
// (Flags — each name registered here once, so it means the same and
// defaults the same in ptatin-run and ptatin-tables), the -cpuprofile and
// -telemetry life cycle (Flags.Start), and the small parsers behind the
// list-valued flags: comma-separated integers (grid and core sweeps),
// resolutions, rank grids of the form "PxxPyxPz", worker counts.
package cli

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/par"
	"ptatin3d/internal/telemetry"
)

// Flags holds the values of the shared flags.
type Flags struct {
	Workers     int
	Op          string
	Precision   string
	Telemetry   bool
	CPUProfile  string
	Steps       int
	Res         string
	Ranks       string
	Pipelined   bool
	RestartFrom string
}

// Register defines the named shared flags on fs: a command registers the
// ones it honours and so refuses the others.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "workers":
			fs.IntVar(&f.Workers, name, 0, "worker goroutines (0 = runtime.NumCPU())")
		case "op":
			fs.StringVar(&f.Op, name, "", "fine-level operator representation (mfc|mf|mfref|asm|galerkin; default: the spec's, else mfc)")
		case "precision":
			fs.StringVar(&f.Precision, name, "", "V-cycle preconditioner precision (f64|f32); the outer Krylov method always iterates in f64")
		case "telemetry":
			fs.BoolVar(&f.Telemetry, name, false, "emit the telemetry table + JSON on stderr when the command ends")
		case "cpuprofile":
			fs.StringVar(&f.CPUProfile, name, "", "write a CPU profile to this file")
		case "steps":
			fs.IntVar(&f.Steps, name, 1, "time steps to advance")
		case "res":
			fs.StringVar(&f.Res, name, "", "resolution as mx,my,mz (or a single m for m,m,m); default: the scenario's")
		case "ranks":
			fs.StringVar(&f.Ranks, name, "", "simulated rank grid PxxPyxPz, e.g. 2x2x1 (ptatin-run: empty or 1x1x1 = the shared-memory backend)")
		case "pipelined":
			fs.BoolVar(&f.Pipelined, name, false, "pipelined (batched-reduction) Krylov on the rank-distributed solve")
		case "restart-from":
			fs.StringVar(&f.RestartFrom, name, "", "restore model state from this checkpoint first")
		default:
			panic("cli: no shared flag " + name)
		}
	}
}

// Parse parses args into fs and normalises -workers.
func (f *Flags) Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	f.Workers = Workers(f.Workers)
	return nil
}

// Start begins what -cpuprofile and -telemetry ask for. It returns the
// run's registry (nil without -telemetry) and the function that ends both:
// the profile is stopped and its file closed, the registry written to w as
// a table and as JSON. A command defers it before doing anything that can
// fail, because a failed run is when both are wanted.
func (f *Flags) Start(w io.Writer) (*telemetry.Registry, func(), error) {
	stopProfile := func() {}
	if f.CPUProfile != "" {
		stop, err := telemetry.StartCPUProfile(f.CPUProfile)
		if err != nil {
			return nil, nil, err
		}
		stopProfile = stop
	}
	if !f.Telemetry {
		return nil, stopProfile, nil
	}
	reg := telemetry.New()
	par.SetTelemetry(reg.Root().Child("par"))
	fem.SetTelemetry(reg.Root().Child("fem"))
	return reg, func() {
		stopProfile()
		par.SetTelemetry(nil)
		fem.SetTelemetry(nil)
		fmt.Fprintln(w, "\n# Telemetry breakdown")
		reg.WriteTable(w)
		fmt.Fprintln(w, "\n# Telemetry (JSON)")
		if err := reg.WriteJSON(w); err != nil {
			fmt.Fprintln(w, "telemetry:", err)
		}
	}, nil
}

// ParseRes parses a -res value: "m" or "mx,my,mz".
func ParseRes(s string) ([3]int, error) {
	dims, err := ParseInts(s)
	if err != nil {
		return [3]int{}, err
	}
	switch len(dims) {
	case 1:
		return [3]int{dims[0], dims[0], dims[0]}, nil
	case 3:
		return [3]int{dims[0], dims[1], dims[2]}, nil
	}
	return [3]int{}, fmt.Errorf("-res wants m or mx,my,mz, got %q", s)
}

// ParseInts parses a comma-separated integer list like "8,12,16".
// Blanks around entries are ignored; an empty string is an error.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad int list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseRanks parses a rank-grid spec of the form "PxxPyxPz" (e.g.
// "2x2x1"): three positive integers separated by 'x'.
func ParseRanks(s string) (px, py, pz int, err error) {
	parts := strings.Split(strings.TrimSpace(s), "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad rank grid %q: want PxxPyxPz, e.g. 2x2x1", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return 0, 0, 0, fmt.Errorf("bad rank grid %q: part %q is not a positive integer", s, p)
		}
		dims[i] = v
	}
	return dims[0], dims[1], dims[2], nil
}

// Workers normalizes a -workers flag value: non-positive means "use
// every CPU".
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// WorkersList normalizes a core-sweep list in place (0 entries become
// runtime.NumCPU()) and returns it.
func WorkersList(ns []int) []int {
	for i, n := range ns {
		ns[i] = Workers(n)
	}
	return ns
}
