package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"ptatin3d/internal/la"
)

// The checked-in references are compiled into the harness, so a run
// needs no path to find them; -update-ref rewrites the files in -ref-dir
// and the next build picks them up.
//
//go:embed ref
var refFS embed.FS

// refSamples is roughly how many velocity entries a reference keeps.
const refSamples = 512

// reference pins a workload's outputs at the default seed and step
// count: the final velocity (norm and a strided sample) and the point
// count are compared on every such run; the per-step Krylov iteration
// counts are kept to show drift, not to fail a run (a change may trade
// one more iteration for a cheaper iteration).
type reference struct {
	Schema    string    `json:"schema"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Steps     int       `json:"timed_steps"`
	Points    int       `json:"points"`
	VelNorm   float64   `json:"vel_l2"`
	Stride    int       `json:"sample_stride"`
	VelSample []float64 `json:"vel_sample"`
	KrylovIts []int     `json:"krylov_its_per_step"`
}

func makeReference(name string, seed int64, steps, points int, u la.Vec, its []int) reference {
	stride := max(1, len(u)/refSamples)
	ref := reference{
		Schema: schemaVersion, Workload: name, Seed: seed, Steps: steps,
		Points: points, VelNorm: u.Norm2(), Stride: stride, KrylovIts: its,
	}
	for i := 0; i < len(u); i += stride {
		ref.VelSample = append(ref.VelSample, u[i])
	}
	return ref
}

func loadReference(name string) (reference, error) {
	var ref reference
	data, err := refFS.ReadFile("ref/" + name + ".json")
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("ref/%s.json: %w", name, err)
	}
	return ref, nil
}

func (ref reference) save(dir string) error {
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ref.Workload+".json"), append(data, '\n'), 0o644)
}

// compare returns one line per quantity of got that is outside tol of
// the reference, naming the offending quantity.
func (ref reference) compare(got reference, tol float64) []string {
	var bad []string
	if got.Points != ref.Points {
		bad = append(bad, fmt.Sprintf("point count %d, reference %d", got.Points, ref.Points))
	}
	if d := math.Abs(got.VelNorm-ref.VelNorm) / ref.VelNorm; !(d <= tol) {
		bad = append(bad, fmt.Sprintf("final velocity L2 norm %.9g, reference %.9g (relative difference %.3g > %g)",
			got.VelNorm, ref.VelNorm, d, tol))
	}
	if len(got.VelSample) != len(ref.VelSample) {
		bad = append(bad, fmt.Sprintf("velocity sample has %d entries, reference %d", len(got.VelSample), len(ref.VelSample)))
		return bad
	}
	var num, den float64
	for i, r := range ref.VelSample {
		d := got.VelSample[i] - r
		num += d * d
		den += r * r
	}
	if d := math.Sqrt(num / den); !(d <= tol) {
		bad = append(bad, fmt.Sprintf("final velocity sample differs from the reference by %.3g in relative L2 (> %g)", d, tol))
	}
	return bad
}
