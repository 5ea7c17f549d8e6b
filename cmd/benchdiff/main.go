// Command benchdiff gates a benchmark snapshot on the allocation counts
// of a committed baseline.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//
// Both files are snapshots written by TestBenchSnapshot. A benchmark
// fails when its allocs/op in NEW differs from OLD's by more than OLD/200
// (integer division) either way: counts below 200 must match exactly,
// and the 0.5% covers the run-to-run jitter of the pooled and served
// benchmarks. A count above the allowance is a regression; one below it
// means the code allocates less and OLD must be recorded again, so that
// the saving cannot be spent unnoticed later. A benchmark of OLD missing
// from NEW fails too. Allocation counts repeat from run to run and host
// to host only at one Go release (escape analysis changes between
// releases) and one GOMAXPROCS (the pools size themselves by it), so the
// two snapshots must agree on both. ns/op, B/op and custom metrics print
// as information only: wall-clock times move with the host and its
// load, and the benchmark/ module owns every time claim.
//
// Exit codes: 0 every count is within its allowance of OLD's, 1 a count
// is not or a benchmark is missing from NEW, 2 a usage or IO error, a
// snapshot without allocation counts, or a Go version or GOMAXPROCS
// mismatch.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// snapshot mirrors the fields benchdiff reads of the schema
// TestBenchSnapshot writes.
type snapshot struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Results    map[string]result `json:"results"`
}

type result struct {
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are nil for a snapshot written before
	// the schema carried them; load refuses such a snapshot.
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// allowance is how many allocations per op NEW's count may differ from
// OLD's, either way.
func allowance(old int64) int64 { return old / 200 }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff OLD.json NEW.json")
		return 2
	}
	oldSnap, err := load(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newSnap, err := load(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if oldSnap.GoVersion != newSnap.GoVersion || oldSnap.GOMAXPROCS != newSnap.GOMAXPROCS {
		fmt.Fprintf(stderr, "benchdiff: allocation counts compare only at one Go version and GOMAXPROCS: %s GOMAXPROCS=%d vs %s GOMAXPROCS=%d\n",
			oldSnap.GoVersion, oldSnap.GOMAXPROCS, newSnap.GoVersion, newSnap.GOMAXPROCS)
		return 2
	}

	fmt.Fprintf(stdout, "%-42s %12s %12s %8s\n", "benchmark", "old allocs", "new allocs", "allowed")
	failed := 0
	for _, n := range sortedKeys(oldSnap.Results, newSnap.Results) {
		o, haveOld := oldSnap.Results[n]
		nw, haveNew := newSnap.Results[n]
		switch {
		case !haveOld:
			fmt.Fprintf(stdout, "%-42s %12s %12d %8s\n", n, "—", *nw.AllocsPerOp, "new")
			continue
		case !haveNew:
			fmt.Fprintf(stdout, "%-42s %12d %12s %8s  MISSING\n", n, *o.AllocsPerOp, "—", "")
			failed++
			continue
		}
		allowed := allowance(*o.AllocsPerOp)
		mark := ""
		switch d := *nw.AllocsPerOp - *o.AllocsPerOp; {
		case d > allowed:
			mark = "  REGRESSION"
			failed++
		case d < -allowed:
			mark = "  BELOW OLD: record the baseline again"
			failed++
		}
		fmt.Fprintf(stdout, "%-42s %12d %12d %8s%s\n", n, *o.AllocsPerOp, *nw.AllocsPerOp, fmt.Sprintf("±%d", allowed), mark)
		fmt.Fprintf(stdout, "  ms/op: %.3f -> %.3f\n", o.NsPerOp/1e6, nw.NsPerOp/1e6)
		if o.BytesPerOp != nil && nw.BytesPerOp != nil {
			fmt.Fprintf(stdout, "  B/op: %d -> %d\n", *o.BytesPerOp, *nw.BytesPerOp)
		}
		// Custom metrics are correctness counters (inventory sizes,
		// faulty fractions); any drift is worth a line.
		for _, m := range sortedKeys(o.Metrics, nw.Metrics) {
			ov, nv := o.Metrics[m], nw.Metrics[m]
			if ov != nv {
				fmt.Fprintf(stdout, "  metric %s: %g -> %g\n", m, ov, nv)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "FAIL: %d benchmark(s) allocate more or less than OLD ± OLD/200 per op or are missing from NEW\n", failed)
		return 1
	}
	fmt.Fprintln(stdout, "ok: every allocation count within OLD ± OLD/200 per op")
	return 0
}

// load reads a snapshot and refuses one without results or without an
// allocation count for every benchmark.
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
	for n, r := range s.Results {
		if r.AllocsPerOp == nil {
			return s, fmt.Errorf("%s: %s has no allocation count (a snapshot written before the schema carried them)", path, n)
		}
	}
	return s, nil
}

// sortedKeys returns the union of the maps' keys in sorted order.
func sortedKeys[V any](ms ...map[string]V) []string {
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
