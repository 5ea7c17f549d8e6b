package partialfaults

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchSnapshot is the schema of the committed BENCH_*.json files: one
// record per tracked benchmark with the wall-clock cost, the heap
// allocations per op (testing.Benchmark always measures them) and the
// custom metrics it reports. Snapshots committed across PRs record the perf
// trajectory of the sweep pipeline; compare like with like — the files
// also record the host, and the repo's history spans machines.
type benchSnapshot struct {
	Date      string                 `json:"date"`
	GoVersion string                 `json:"go_version"`
	GOOS      string                 `json:"goos"`
	GOARCH    string                 `json:"goarch"`
	NumCPU    int                    `json:"num_cpu"`
	Results   map[string]benchResult `json:"results"`
}

type benchResult struct {
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// TestBenchSnapshot records a benchmark snapshot when BENCH_SNAPSHOT is
// set — to "1" for the date-stamped default filename, or to an explicit
// *.json path. The tracked set covers the performance layer's acceptance
// benchmarks (the Table 1 pipeline, the electrical plane sweeps naive
// versus pooled, the two per-operation unit costs, the bit-plane versus
// scalar march engines, and the analysis service under concurrent HTTP
// load). testing.Benchmark honours -benchtime, so CI smoke runs can
// pass -benchtime 1x.
func TestBenchSnapshot(t *testing.T) {
	dest := os.Getenv("BENCH_SNAPSHOT")
	if dest == "" {
		t.Skip("set BENCH_SNAPSHOT=1 (or a target *.json path) to record a benchmark snapshot")
	}
	if !strings.HasSuffix(dest, ".json") {
		dest = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	tracked := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkTable1PartialFaultInventory", BenchmarkTable1PartialFaultInventory},
		{"BenchmarkTracedPlaneSweep", BenchmarkTracedPlaneSweep},
		{"BenchmarkSpicePlaneSweepNaive", BenchmarkSpicePlaneSweepNaive},
		{"BenchmarkSpicePlaneSweepPooled", BenchmarkSpicePlaneSweepPooled},
		{"BenchmarkSpiceOperation", BenchmarkSpiceOperation},
		{"BenchmarkBehavOperation", BenchmarkBehavOperation},
		{"BenchmarkBitsimMarchPF", BenchmarkBitsimMarchPF},
		{"BenchmarkMemsimMarchPF", BenchmarkMemsimMarchPF},
		{"BenchmarkServeLoad", BenchmarkServeLoad},
		{"BenchmarkStressMatrix", BenchmarkStressMatrix},
	}
	snap := benchSnapshot{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Results:   map[string]benchResult{},
	}
	for _, tb := range tracked {
		r := testing.Benchmark(tb.fn)
		if r.N == 0 {
			t.Fatalf("%s did not run (a b.Fatal inside the benchmark aborts the snapshot)", tb.name)
		}
		snap.Results[tb.name] = benchResult{
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Metrics:     r.Extra,
		}
		t.Logf("%s: %d iter, %.3g ms/op, %d allocs/op", tb.name, r.N, float64(r.NsPerOp())/1e6, r.AllocsPerOp())
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dest, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", dest)
}
