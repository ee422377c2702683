package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"ptatin3d/internal/perfmodel"
)

// benchWorkers is the load the benchmark is defined at: GOMAXPROCS =
// workers = 2 (nproc is 2 on the reference host; the distributed
// workload runs 2 ranks x 1 worker).
const benchWorkers = 2

// hostInfo is the record's host block: what the numbers were measured
// on, and the machine balance the roofline fractions are stated against.
type hostInfo struct {
	Schema     string `json:"schema"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	// Degraded is set when the host has fewer CPUs than the benchmark's
	// worker count; timings from such a host are not comparable.
	Degraded bool `json:"degraded"`

	LLCBytes  int64  `json:"llc_bytes"`
	LLCSource string `json:"llc_source"`
	// STREAM triad, single-threaded (the plain baseline every kernel's
	// roofline fraction is stated against), with the array size used.
	StreamGBs        float64 `json:"stream_gbs"`
	StreamArrayBytes int64   `json:"stream_array_bytes"`
	StreamGE4xLLC    bool    `json:"stream_array_ge_4x_llc"`
	GFlops           float64 `json:"gflops"`
}

// quickStreamElems sizes the in-run calibration of a traced workload:
// 64 MB per array. Touching three arrays of 4x this host's 260 MB LLC
// costs ~20 s in page faults alone, which no single run can afford; the
// record's host block (suite mode) pays it once.
const quickStreamElems = 1 << 23

// lastLevelCache reads the largest data or unified cache of cpu0 from
// sysfs; when that is unreadable it assumes 32 MiB and says so.
func lastLevelCache() (bytes int64, source string) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	bestLevel := 0
	for _, d := range dirs {
		typ := readTrim(filepath.Join(d, "type"))
		if typ != "Unified" && typ != "Data" {
			continue
		}
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || level <= bestLevel {
			continue
		}
		if sz, ok := parseSize(readTrim(filepath.Join(d, "size"))); ok {
			bestLevel, bytes = level, sz
			source = fmt.Sprintf("%s (L%d)", d, level)
		}
	}
	if bestLevel == 0 {
		return 32 << 20, "fallback: sysfs cache info unreadable, 32 MiB assumed"
	}
	return bytes, source
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses sysfs cache sizes such as "2048K" or "32M".
func parseSize(s string) (int64, bool) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n * mult, true
}

// commit returns the VCS revision the toolchain stamped into the binary,
// or "unknown" (the driver's checkout is not a git repository).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// measureHost fills the host block. full sizes the STREAM arrays at 4x
// the last-level cache (the bandwidth-measurement requirement); the
// quick form uses quickStreamElems and is flagged as below that size.
func measureHost(seed int64, full bool) hostInfo {
	h := hostInfo{
		Schema:     schemaVersion,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
	}
	h.Degraded = h.NProc < benchWorkers
	h.LLCBytes, h.LLCSource = lastLevelCache()
	elems := quickStreamElems
	if full {
		elems = int(4 * h.LLCBytes / 8)
		// The triad holds three arrays; keep them within half of the
		// memory that is free, and let the flag below say so.
		if kb, err := procKB("/proc/meminfo", "MemAvailable"); err == nil && 3*8*int64(elems) > kb<<10/2 {
			elems = int(kb << 10 / 2 / (3 * 8))
		}
	}
	h.StreamArrayBytes = int64(elems) * 8
	h.StreamGE4xLLC = h.StreamArrayBytes >= 4*h.LLCBytes
	h.StreamGBs = perfmodel.MeasureStream(elems, 3) / 1e9
	h.GFlops = perfmodel.MeasureFlops(1<<22, 3) / 1e9
	return h
}

func (h hostInfo) print() {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d degraded=%v\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Degraded)
	fmt.Printf("host: STREAM triad %.2f GB/s (1 thread, %d MB arrays; LLC %d MB from %s; arrays >= 4x LLC: %v), %.2f GF/s scalar\n",
		h.StreamGBs, h.StreamArrayBytes>>20, h.LLCBytes>>20, h.LLCSource, h.StreamGE4xLLC, h.GFlops)
}

// procKB reads one "Key:   123 kB" line of a /proc status file.
func procKB(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	kb, err := procKB("/proc/self/status", "VmHWM")
	return float64(kb) / 1024, err
}
