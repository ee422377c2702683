package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

func loadRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != schemaVersion {
		return rec, fmt.Errorf("%s: schema %q, this harness reads %q", path, rec.Schema, schemaVersion)
	}
	return rec, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives. Fewer than two values have no spread.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	quartile := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

// allBelow reports whether every value of b is below every value of a.
func allBelow(b, a []float64) bool {
	return slices.Max(b) < slices.Min(a)
}

// compareRecords prints, per workload and metric, the medians of record
// a (the parent) and b (the change), the change relative to a, and for
// the end-to-end metrics the bound and a verdict: regressed when b's
// median is worse by more than the bound, unresolved when either side's
// run-to-run spread is wider than the bound (unless every run of b reads
// better than every run of a), ok otherwise. Count metrics of the traced
// run repeat exactly on one commit, so they are marked same or differs.
// It returns an error when any metric regressed.
func compareRecords(pathA, pathB, manifestPath string) error {
	a, err := loadRecord(pathA)
	if err != nil {
		return err
	}
	b, err := loadRecord(pathB)
	if err != nil {
		return err
	}
	mf, err := loadManifest(manifestPath)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range mf.EndToEnd {
		if m.Better != "lower" {
			return fmt.Errorf("%s: metric %s is better %q; this harness compares lower-is-better metrics", manifestPath, m.Name, m.Better)
		}
		bounds[m.Name] = m.Bound
	}
	byName := map[string]workloadRecord{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}

	regressed := 0
	fmt.Printf("%-12s %-34s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a median", "b median", "delta", "bound", "spread", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, d := range endToEndMetrics {
			va, vb := wa.EndToEnd[d.name].Values, wb.EndToEnd[d.name].Values
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("workload %s: metric %s is missing from a record", wa.Name, d.name)
			}
			bound, ok := bounds[d.name]
			if !ok {
				return fmt.Errorf("%s has no bound for %s", manifestPath, d.name)
			}
			ma, mb := median(va), median(vb)
			delta := mb/ma - 1
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > bound && !allBelow(vb, va):
				verdict = "unresolved"
			case delta > bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-12s %-34s %14.6g %14.6g %+8.2f%% %6.0f%% %7.2f%%  %s\n",
				wa.Name, d.name, ma, mb, 100*delta, 100*bound, 100*sp, verdict)
		}
		for _, d := range perLayerMetrics {
			ma, mb := median(wa.PerLayer[d.name].Values), median(wb.PerLayer[d.name].Values)
			if ma == 0 && mb == 0 {
				continue
			}
			verdict := "-"
			if d.unit == "count" {
				verdict = "same"
				if ma != mb {
					verdict = "differs"
				}
			}
			fmt.Printf("%-12s %-34s %14.6g %14.6g %+8.2f%% %7s %8s  %s\n",
				wa.Name, d.name, ma, mb, 100*(mb/ma-1), "", "", verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
