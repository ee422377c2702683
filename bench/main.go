// Command bench is the repository's one benchmark: five fixed workloads
// over the scenario time loop, four end-to-end metrics measured with
// tracing off, and a traced run of the same workloads that attributes
// the time to each layer (package) of the program. BENCHMARK.json at the
// repository root names it; README.md in this directory defines every
// workload and metric.
//
//	bash bench/run.sh                                  # every workload, untraced then traced, one record
//	bash bench/run.sh -workload sinker16 -trace 1      # one workload in this process
//	bash bench/run.sh -compare a.json b.json           # regression table, exit 1 on a regression
//
// A workload run prints every metric by name with its unit and ends
// with one JSON line: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "run this workload in this process (empty: run every workload, each in a child process)")
	seed := flag.Int64("seed", defaultSeed, "input seed: offsets the sphere-placement or damage seed of the generated spec")
	seconds := flag.Int("seconds", defaultSeconds, "measurement budget; scales each workload's timed step count from its count at the default")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from spans and replays")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this JSON file")
	reps := flag.Int("reps", 5, "repetitions of each layer replay (the median is reported)")
	updateRef := flag.Bool("update-ref", false, "rewrite the workload's correctness reference instead of comparing against it")
	refDir := flag.String("ref-dir", "bench/ref", "directory -update-ref writes to")
	force := flag.Bool("force", false, "run on a degraded host (fewer CPUs than the benchmark's 2 workers)")
	compare := flag.Bool("compare", false, "compare two records given as arguments: a.json b.json")
	manifestPath := flag.String("manifest", "BENCHMARK.json", "the manifest -compare takes its bounds from")
	runs := flag.Int("runs", 1, "run sets per record when running every workload")
	out := flag.String("out", "bench_record.json", "where running every workload writes its record")
	flag.Parse()

	if err := run(*name, *compare, *manifestPath, *runs, *out, *force, runOptions{
		seed: *seed, seconds: *seconds, traced: *trace != 0, reps: *reps,
		traceOut: *traceOut, updateRef: *updateRef, refDir: *refDir,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, compare bool, manifestPath string, runs int, out string, force bool, o runOptions) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two record files, got %d arguments", flag.NArg())
		}
		return compareRecords(flag.Arg(0), flag.Arg(1), manifestPath)
	}
	if o.seconds < 1 || o.reps < 1 || runs < 1 {
		return fmt.Errorf("-seconds, -reps and -runs must be at least 1")
	}
	if runtime.NumCPU() < benchWorkers && !force {
		return fmt.Errorf("host.degraded: %d CPU(s), the benchmark is defined at %d workers; rerun with -force to measure anyway",
			runtime.NumCPU(), benchWorkers)
	}
	runtime.GOMAXPROCS(benchWorkers)
	if name == "" {
		return runSuite(runs, out, force, o)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
