// Command ptatin-tables regenerates the paper's tables and figures, one
// subcommand each (time stepping itself is ptatin-run):
//
//	ptatin-tables table1 [-m 16] [-reps 5]          # Table I: operator cost against the roofline
//	ptatin-tables table2 [-grids 8,12,16] [-cores 1,2,4] [-op mf]
//	ptatin-tables table2 -ranks 2x2x1 -grids 8      # the same solve, rank-distributed
//	ptatin-tables sweep -pipelined [-sweep-max-ranks 8]
//	ptatin-tables table4 [-m 8] [-deta 100]         # preconditioner shoot-out
//	ptatin-tables fig1 [-m 8] [-outdir .]           # sinker solve + streamlines VTK
//	ptatin-tables fig2 [-m 8]                       # Δη robustness, CSV on stdout
//	ptatin-tables fig3 -steps 5 [-weak 0.05] [-oblique]
//	ptatin-tables recover [-ranks 2x2x1] [-drops 4] # fault injection demo
//	ptatin-tables inspect FILE                      # checkpoint summary
//
// Every Stokes solve here is Model.LinearStokes on a compiled scenario:
// the solver the time loop builds for that model, with the one or two
// configuration fields the table varies edited in.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/la"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// commands lists the subcommands in the paper's order.
var commands = []struct {
	name, summary string
	run           func(c *ctx) error
}{
	{"table1", "Table I: per-element flop and byte counts, machine balance, roofline and measured operator times", table1},
	{"table2", "Tables II/III: iterations and time-to-solution over grids × cores; with -ranks, rank-distributed", table2},
	{"sweep", "weak and strong scaling of the rank-distributed solve over 1..512 simulated ranks", sweep},
	{"table4", "Table IV: GMG-i, GMG-ii, SA-i, SAML-i, SAML-ii on one sinker solve", table4},
	{"fig1", "Figure 1: one sinker solve, written as grid, points and streamlines VTK", fig1},
	{"fig2", "Figure 2: per-iteration residual histories at Δη = 1, 1e2, 1e4 (CSV)", fig2},
	{"fig3", "Figures 3 and 4: rift time steps, then the lithology and damage-zone snapshot VTK", fig3},
	{"recover", "faults injected into the solver's halo apply, result checked against the sequential operator", recoverDemo},
	{"inspect", "decode the checkpoint FILE and summarise it", inspect},
}

// errUsage marks a failure the flag package has already reported.
var errUsage = errors.New("usage")

// ctx is what a subcommand runs in: its flag set (to which it adds its own
// flags and the shared ones it honours), its arguments and its streams.
type ctx struct {
	cli.Flags
	fs             *flag.FlagSet
	args           []string
	stdout, stderr io.Writer
	// reg is the run's telemetry registry once begin has run (nil without
	// -telemetry).
	reg *telemetry.Registry
}

// begin parses the arguments and starts -cpuprofile and -telemetry; the
// subcommand defers the returned function, which ends them.
func (c *ctx) begin() (func(), error) {
	if err := c.Parse(c.fs, c.args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errUsage
	}
	reg, done, err := c.Start(c.stderr)
	c.reg = reg
	return done, err
}

// run is main without the process: 0, 1 for a failed command, 2 for a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	usage := func() {
		fmt.Fprintln(stderr, "usage: ptatin-tables COMMAND [flags]   (COMMAND -h lists its flags)")
		for _, cmd := range commands {
			fmt.Fprintf(stderr, "  %-8s %s\n", cmd.name, cmd.summary)
		}
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	if args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage()
		return 0
	}
	for _, cmd := range commands {
		if cmd.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("ptatin-tables "+cmd.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		err := cmd.run(&ctx{fs: fs, args: args[1:], stdout: stdout, stderr: stderr})
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, errUsage):
			return 2
		}
		fmt.Fprintf(stderr, "ptatin-tables %s: %v\n", cmd.name, err)
		return 1
	}
	fmt.Fprintf(stderr, "ptatin-tables: no command %q\n", args[0])
	usage()
	return 2
}

// buildCommit names the commit the binary was built from, as `go build`
// stamped it ("+modified" when the tree had uncommitted changes); "unknown"
// under `go run` or outside a checkout. A results/ file carries it in its
// header, so that it can be told apart from the code that has changed since.
func buildCommit() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value[:min(12, len(kv.Value))]
			case "vcs.modified":
				if kv.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return rev + modified
}

// sinkerFlags defines the named §IV-A sinker parameters as flags on the
// command's set and returns the options they fill.
func (c *ctx) sinkerFlags(names ...string) *scenario.SinkerOptions {
	o := scenario.DefaultSinkerOptions()
	for _, name := range names {
		switch name {
		case "m":
			c.fs.IntVar(&o.M, name, o.M, "elements per direction (paper: 64)")
		case "deta":
			c.fs.Float64Var(&o.DeltaEta, name, o.DeltaEta, "viscosity contrast")
		case "nc":
			c.fs.IntVar(&o.Nc, name, o.Nc, "number of spheres")
		case "rc":
			c.fs.Float64Var(&o.Rc, name, o.Rc, "sphere radius")
		default:
			panic("ptatin-tables: no sinker flag " + name)
		}
	}
	return &o
}

// outdirFlag defines -outdir.
func (c *ctx) outdirFlag() *string {
	return c.fs.String("outdir", ".", "output directory")
}

// sinkerSolver compiles the sinker for o at the given width and returns
// its Stokes solver, built by the model's own recipe with edit applied to
// the configuration, and the load vector.
func sinkerSolver(o scenario.SinkerOptions, workers int, edit func(*stokes.Config)) (*stokes.Solver, la.Vec, error) {
	m, err := scenario.Compile(scenario.Sinker(o), workers)
	if err != nil {
		return nil, nil, err
	}
	return m.LinearStokes(edit)
}
