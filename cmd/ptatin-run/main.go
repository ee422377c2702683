// Command ptatin-run is the one time-stepping driver: it resolves a
// scenario by registered name or JSON spec file, compiles it into a
// model, installs the requested Stokes backend (shared-memory or
// rank-distributed over the simulated fabric), and advances the time
// loop with per-step reporting, checkpoint/restart and optional JSON
// bench records.
//
//	ptatin-run -list                                  # registered scenarios
//	ptatin-run -scenario sinker -steps 3
//	ptatin-run -scenario rift -ranks 2x1x2 -steps 5
//	ptatin-run -scenario my-spec.json -op asm -json run.json
//	ptatin-run -smoke                                 # 2-step smoke of every
//	                                                  # scenario, both backends
//
// What the paper's option structs varied is a spec edit: print the spec
// (-print-spec), change the value, run the file. For the sinker, Δη is
// 1/lithologies[0].eta0 and the spheres are geometry[0] (count, radius,
// seed); for the rift, the lower-crust viscosity is lithologies[1].eta0
// and oblique shortening a "velocity" condition on zmin/zmax.
// ptatin-tables holds the paper's tables and figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/driver"
	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed flags of one invocation.
type options struct {
	cli.Flags
	name                            string
	list, printSpec, smoke          bool
	small                           bool
	ppe, coarseRoots, restartWindow int
	ckptEvery                       int
	ckptPath, jsonOut               string
}

// run is main without the process: it parses args, does the work and
// returns the exit code — 0, 1 for a failed run, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("ptatin-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.name, "scenario", "", "registered scenario name or path to a JSON spec file")
	fs.BoolVar(&o.list, "list", false, "list registered scenarios and exit")
	fs.BoolVar(&o.printSpec, "print-spec", false, "print the resolved spec as JSON and exit (a template for custom spec files)")
	fs.BoolVar(&o.smoke, "smoke", false, "compile every registered scenario at small resolution and run 2 steps on both backends")
	fs.BoolVar(&o.small, "small", false, "use the scenario's small smoke-test resolution")
	fs.IntVar(&o.ppe, "ppe", 0, "material points per element per direction (0 = spec value)")
	fs.IntVar(&o.coarseRoots, "coarse-roots", 0, "coarse-grid agglomeration roots on the distributed backend (0 and 1 are the same layout: everything to rank 0)")
	fs.IntVar(&o.restartWindow, "restart", 0, "FGMRES restart window override (0 = spec/default; high viscosity contrast wants >=200)")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "write a checkpoint every N steps (0 disables)")
	fs.StringVar(&o.ckptPath, "checkpoint", "ptatin.chkpt", "checkpoint file path")
	fs.StringVar(&o.jsonOut, "json", "", "write the end-to-end run record as JSON to this file (- for stdout)")
	o.Register(fs, "workers", "op", "precision", "telemetry", "cpuprofile",
		"steps", "res", "ranks", "pipelined", "restart-from")
	if err := o.Parse(fs, args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !o.list && !o.smoke && o.name == "" {
		fmt.Fprintln(stderr, "ptatin-run: -scenario required (try -list)")
		return 2
	}
	if err := o.drive(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "ptatin-run:", err)
		return 1
	}
	return 0
}

// drive does what the flags ask for. Every failure comes back as an error,
// after the profile and the telemetry of the part that ran are written.
func (o *options) drive(stdout, stderr io.Writer) error {
	if o.list {
		for _, n := range scenario.Names() {
			s, _ := scenario.Get(n)
			fmt.Fprintf(stdout, "%-16s %s\n", n, s.Description)
		}
		return nil
	}
	var spec scenario.Spec
	if !o.smoke {
		var err error
		if spec, err = o.spec(); err != nil {
			return err
		}
		if o.printSpec {
			b, err := json.MarshalIndent(spec, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(b))
			return nil
		}
	}

	reg, done, err := o.Start(stderr)
	if err != nil {
		return err
	}
	defer done()
	if o.smoke {
		return driver.Smoke(o.Workers, stdout)
	}

	backend, err := driver.Backend(o.Ranks, o.Pipelined, o.coarseRoots)
	if err != nil {
		return err
	}
	m, err := scenario.Compile(spec, o.Workers)
	if err != nil {
		return err
	}
	m.Telemetry = reg.Root().Child("model")
	ov := driver.Overrides{Op: o.Op, Precision: o.Precision, Restart: o.restartWindow}
	if err := ov.Apply(m); err != nil {
		return err
	}
	m.Backend = backend
	if db, ok := m.Backend.(*model.DistributedBackend); ok {
		fmt.Fprintf(stdout, "# scenario %s: distributed backend over %d simulated ranks\n", spec.Name, db.Ranks())
	}

	cfg := driver.Config{
		Steps:           o.Steps,
		CheckpointEvery: o.ckptEvery,
		CheckpointPath:  o.ckptPath,
		RestartFrom:     o.RestartFrom,
		Scenario:        spec.Name,
		Out:             stdout,
	}
	var jsonFile *os.File
	if o.jsonOut == "-" {
		cfg.JSONOut = stdout
	} else if o.jsonOut != "" {
		if jsonFile, err = os.Create(o.jsonOut); err != nil {
			return err
		}
		defer jsonFile.Close()
		cfg.JSONOut = jsonFile
	}
	if err := driver.Run(m, cfg); err != nil {
		return err
	}
	if jsonFile != nil {
		if err := jsonFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# wrote run record to %s\n", o.jsonOut)
	}
	return nil
}

// spec resolves -scenario and applies the resolution and point-count flags.
func (o *options) spec() (scenario.Spec, error) {
	spec, err := scenario.Resolve(o.name)
	if err != nil {
		return spec, err
	}
	if o.small {
		spec.Resolution = spec.SmallResolution()
	}
	if o.Res != "" {
		if spec.Resolution, err = cli.ParseRes(o.Res); err != nil {
			return spec, err
		}
		spec.Solver.Levels = 0 // re-derive the hierarchy depth
	}
	if o.ppe > 0 {
		spec.PPE = o.ppe
	}
	return spec, nil
}
