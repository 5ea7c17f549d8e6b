// Command benchdiff compares two committed BENCH_*.json benchmark
// snapshots and fails when the new one regresses beyond a noise band.
//
// Usage:
//
//	benchdiff [-threshold 0.15] [-history 'bench/BENCH_*.json'] [-force] OLD.json NEW.json
//
// The wall-clock comparison only makes sense on like hardware, so the
// snapshots' host fields (GOOS, GOARCH, CPU count) must match; -force
// compares anyway (deltas across machines are informational only, and
// the exit code then ignores timing regressions).
//
// -history points at accumulated snapshots from the same host. A
// benchmark with at least three history samples gets its own noise
// band, 3σ/µ of its observed ns/op (floored at 2%), in place of the
// flat -threshold ratio — quiet benchmarks tighten, noisy ones widen.
// Benchmarks with fewer samples keep the flat ratio.
//
// Exit codes: 0 no regression, 1 a benchmark slowed beyond its noise
// band, 2 usage/IO error or host mismatch without -force.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// snapshot mirrors the schema written by TestBenchSnapshot.
type snapshot struct {
	Date      string            `json:"date"`
	GoVersion string            `json:"go_version"`
	GOOS      string            `json:"goos"`
	GOARCH    string            `json:"goarch"`
	NumCPU    int               `json:"num_cpu"`
	Results   map[string]result `json:"results"`
}

type result struct {
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are nil for a snapshot written before
	// the schema carried them.
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.15, "relative slowdown tolerated as noise (0.15 = +15%); per-benchmark fallback when -history has too few samples")
	force := fs.Bool("force", false, "compare snapshots from different hosts (informational; timing regressions do not fail)")
	historyGlob := fs.String("history", "", "glob of accumulated same-host snapshots; ≥3 samples per benchmark derive its own noise band (3σ/µ) instead of the flat ratio")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold 0.15] [-force] OLD.json NEW.json")
		return 2
	}
	oldSnap, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newSnap, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	sameHost := oldSnap.GOOS == newSnap.GOOS && oldSnap.GOARCH == newSnap.GOARCH && oldSnap.NumCPU == newSnap.NumCPU
	if !sameHost {
		fmt.Fprintf(stderr, "benchdiff: host mismatch: %s/%s/%d CPU vs %s/%s/%d CPU\n",
			oldSnap.GOOS, oldSnap.GOARCH, oldSnap.NumCPU, newSnap.GOOS, newSnap.GOARCH, newSnap.NumCPU)
		if !*force {
			return 2
		}
	}

	bands := map[string]float64{}
	if *historyGlob != "" {
		history, err := loadHistory(*historyGlob, newSnap)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		bands = noiseBands(history)
		fmt.Fprintf(stdout, "noise bands from %d same-host history snapshots (%d benchmarks banded)\n",
			len(history), len(bands))
	}

	names := map[string]bool{}
	for n := range oldSnap.Results {
		names[n] = true
	}
	for n := range newSnap.Results {
		names[n] = true
	}
	order := make([]string, 0, len(names))
	for n := range names {
		order = append(order, n)
	}
	sort.Strings(order)

	fmt.Fprintf(stdout, "%-42s %12s %12s %8s\n", "benchmark", "old ms/op", "new ms/op", "delta")
	regressed := false
	for _, n := range order {
		o, haveOld := oldSnap.Results[n]
		nw, haveNew := newSnap.Results[n]
		switch {
		case !haveOld:
			fmt.Fprintf(stdout, "%-42s %12s %12.3f %8s\n", n, "—", nw.NsPerOp/1e6, "new")
			continue
		case !haveNew:
			fmt.Fprintf(stdout, "%-42s %12.3f %12s %8s\n", n, o.NsPerOp/1e6, "—", "gone")
			continue
		}
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = nw.NsPerOp/o.NsPerOp - 1
		}
		band, banded := bands[n]
		if !banded {
			band = *threshold
		}
		mark := ""
		if delta > band {
			mark = "  REGRESSION"
			if banded {
				mark = fmt.Sprintf("  REGRESSION (band ±%.1f%%)", band*100)
			}
			if sameHost {
				regressed = true
			}
		}
		fmt.Fprintf(stdout, "%-42s %12.3f %12.3f %+7.1f%%%s\n", n, o.NsPerOp/1e6, nw.NsPerOp/1e6, delta*100, mark)
		// Allocation counts are shown when both snapshots carry them;
		// they neither band nor gate the exit code.
		if o.AllocsPerOp != nil && nw.AllocsPerOp != nil {
			fmt.Fprintf(stdout, "  allocs/op: %d -> %d\n", *o.AllocsPerOp, *nw.AllocsPerOp)
		}
		if o.BytesPerOp != nil && nw.BytesPerOp != nil {
			fmt.Fprintf(stdout, "  B/op: %d -> %d\n", *o.BytesPerOp, *nw.BytesPerOp)
		}
		// Custom metrics are correctness counters (inventory sizes,
		// faulty fractions); any drift is worth a line even though it
		// does not gate the exit code.
		for _, m := range sortedKeys(o.Metrics, nw.Metrics) {
			ov, nv := o.Metrics[m], nw.Metrics[m]
			if ov != nv {
				fmt.Fprintf(stdout, "  metric %s: %g -> %g\n", m, ov, nv)
			}
		}
	}
	if regressed {
		fmt.Fprintln(stdout, "FAIL: at least one benchmark slowed beyond its noise band")
		return 1
	}
	fmt.Fprintln(stdout, "ok: no regression beyond the noise band")
	return 0
}

// minBand is the tightest per-benchmark noise band history can derive:
// below 2% the comparison chases scheduler jitter even on a benchmark
// whose samples happen to agree closely.
const minBand = 0.02

// loadHistory loads every snapshot matching the glob and keeps those
// from the same host as ref. Unreadable or non-snapshot files are
// errors — a half-read history would silently skew the bands.
func loadHistory(glob string, ref snapshot) ([]snapshot, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("bad -history glob: %w", err)
	}
	var out []snapshot
	for _, p := range paths {
		s, err := load(p)
		if err != nil {
			return nil, err
		}
		if s.GOOS == ref.GOOS && s.GOARCH == ref.GOARCH && s.NumCPU == ref.NumCPU {
			out = append(out, s)
		}
	}
	return out, nil
}

// noiseBands derives a per-benchmark relative noise band from history:
// for every benchmark with at least three samples, 3·σ/µ of its
// observed ns/op (sample standard deviation), floored at minBand.
// Benchmarks with fewer samples get no entry — callers fall back to
// the flat threshold.
func noiseBands(history []snapshot) map[string]float64 {
	samples := map[string][]float64{}
	for _, s := range history {
		for n, r := range s.Results {
			if r.NsPerOp > 0 {
				samples[n] = append(samples[n], r.NsPerOp)
			}
		}
	}
	bands := map[string]float64{}
	for n, xs := range samples {
		if len(xs) < 3 {
			continue
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		if mean <= 0 {
			continue
		}
		variance := 0.0
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(len(xs) - 1)
		band := 3 * math.Sqrt(variance) / mean
		if band < minBand {
			band = minBand
		}
		bands[n] = band
	}
	return bands
}

func load(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Results) == 0 {
		return s, fmt.Errorf("%s: no benchmark results (not a BENCH_*.json snapshot?)", path)
	}
	return s, nil
}

func sortedKeys(ms ...map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}
