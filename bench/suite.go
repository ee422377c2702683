package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
)

// series is one metric's values over a record's run sets.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// workloadRecord holds one workload's untraced and traced runs.
type workloadRecord struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Attempted and Failed count steps, one entry per child run
	// (untraced and traced alternate).
	Attempted []int             `json:"steps_attempted"`
	Failed    []int             `json:"steps_failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// record is the versioned output of running every workload.
type record struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seconds   int              `json:"seconds"`
	Reps      int              `json:"reps"`
	Runs      int              `json:"runs"`
	Workloads []workloadRecord `json:"workloads"`
}

// runChild re-executes the harness for one workload, so that peak memory
// and cold caches are that workload's own. The child's output passes
// through; its last line is the result.
func runChild(w workload, o runOptions, force bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-reps", strconv.Itoa(o.reps),
	}
	if force {
		args = append(args, "-force")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("workload %s: %w", w.name, err)
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("workload %s: last output line is not a result: %w", w.name, err)
	}
	return res, nil
}

func (wr *workloadRecord) add(res result, into map[string]series) {
	wr.Attempted = append(wr.Attempted, res.Attempted)
	wr.Failed = append(wr.Failed, res.Failed)
	for name, v := range res.Metrics {
		s := into[name]
		s.Unit = v.Unit
		s.Values = append(s.Values, v.Value)
		into[name] = s
	}
}

// runSuite runs every listed workload untraced and then traced, runs
// times over, and writes one record.
func runSuite(runs int, out string, force bool, o runOptions) error {
	host := measureHost(o.seed, true)
	host.print()
	// Hand the STREAM arrays (3 x 4x the last-level cache) back before any
	// child runs.
	debug.FreeOSMemory()
	rec := record{Schema: schemaVersion, Host: host, Seconds: o.seconds, Reps: o.reps, Runs: runs}
	failed := 0
	for _, w := range workloads {
		if !w.listed {
			continue
		}
		wr := workloadRecord{Name: w.name, Why: w.why, EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		for i := 0; i < runs; i++ {
			for _, traced := range []bool{false, true} {
				o.traced = traced
				res, err := runChild(w, o, force)
				if err != nil {
					return err
				}
				into := wr.EndToEnd
				if traced {
					into = wr.PerLayer
				}
				wr.add(res, into)
				failed += res.Failed
			}
		}
		// The traced run's step spans add up to its wall-clock run time;
		// over its host.slowdown and next to the untraced run_s they show
		// the tracing overhead as a measured difference, which on a 15 s
		// run is mostly run-to-run noise.
		tracedRun := (median(wr.PerLayer["krylov.solve_s"].Values) + median(wr.PerLayer["model.step_self_s"].Values)) /
			median(wr.PerLayer["host.slowdown"].Values)
		untraced := median(wr.EndToEnd["run_s"].Values)
		fmt.Printf("%s: run_s traced %.4f, untraced %.4f: difference %+.2f%% (trace.overhead_frac, from the span count, %.2g)\n",
			w.name, tracedRun, untraced, 100*(tracedRun/untraced-1), median(wr.PerLayer["trace.overhead_frac"].Values))
		rec.Workloads = append(rec.Workloads, wr)
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s); %d failed steps\n", out, schemaVersion, failed)
	if failed > 0 {
		return fmt.Errorf("%d steps failed", failed)
	}
	return nil
}
