package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnap(t *testing.T, name string, s snapshot) string {
	t.Helper()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func count(n int64) *int64 { return &n }

// baseSnap holds a serial benchmark at BenchmarkBitsimMarchPF's 22
// allocs/op and a pooled one at BenchmarkStressMatrix's 54 634.
func baseSnap() snapshot {
	return snapshot{
		GoVersion: "go1.24.0", GOMAXPROCS: 2,
		Results: map[string]result{
			"BenchmarkFast": {NsPerOp: 1e6, AllocsPerOp: count(22), BytesPerOp: count(4536)},
			"BenchmarkSlow": {NsPerOp: 5e8, AllocsPerOp: count(54634), BytesPerOp: count(9e6),
				Metrics: map[string]float64{"completed": 34}},
		},
	}
}

// withAllocs returns baseSnap with one benchmark's allocs/op replaced.
func withAllocs(name string, allocs int64) snapshot {
	s := baseSnap()
	r := s.Results[name]
	r.AllocsPerOp = count(allocs)
	s.Results[name] = r
	return s
}

func TestIdenticalSnapshotsPass(t *testing.T) {
	p := writeSnap(t, "a.json", baseSnap())
	var out, errOut strings.Builder
	if code := run([]string{p, p}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "every allocation count within") {
		t.Errorf("missing ok line:\n%s", out.String())
	}
}

// Below 200 allocs/op the allowance OLD/200 is zero: one allocation
// more or fewer on a 22-alloc benchmark fails.
func TestOneExtraAllocFails(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	for _, tc := range []struct {
		allocs int64
		want   string
	}{
		{23, "22           23       ±0  REGRESSION"},
		{21, "22           21       ±0  BELOW OLD: record the baseline again"},
	} {
		nw := writeSnap(t, "new.json", withAllocs("BenchmarkFast", tc.allocs))
		var out, errOut strings.Builder
		if code := run([]string{old, nw}, &out, &errOut); code != 1 {
			t.Fatalf("22 -> %d: exit = %d, want 1\n%s", tc.allocs, code, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("the BenchmarkFast line should read %q:\n%s", tc.want, out.String())
		}
	}
}

// On 54 634 allocs/op the allowance is 54 634/200 = 273 either way:
// ±273 passes, +274 fails as a regression and −274 as a count the
// baseline must record again.
func TestRegressionBeyondBandFails(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	for _, tc := range []struct {
		allocs int64
		want   int
		mark   string
	}{
		{54634 + 273, 0, ""},
		{54634 - 273, 0, ""},
		{54634 + 274, 1, "REGRESSION"},
		{54634 - 274, 1, "BELOW OLD"},
	} {
		nw := writeSnap(t, "new.json", withAllocs("BenchmarkSlow", tc.allocs))
		var out, errOut strings.Builder
		if code := run([]string{old, nw}, &out, &errOut); code != tc.want {
			t.Fatalf("%d allocs/op: exit = %d, want %d\n%s", tc.allocs, code, tc.want, out.String())
		}
		for _, mark := range []string{"REGRESSION", "BELOW OLD"} {
			if marked := strings.Contains(out.String(), mark); marked != (mark == tc.mark) {
				t.Errorf("%d allocs/op: %s marker = %v:\n%s", tc.allocs, mark, marked, out.String())
			}
		}
	}
}

// Wall-clock time and bytes per op print but never gate, nor does
// custom-metric drift.
func TestSpeedupAndMetricDriftPass(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	changed := baseSnap()
	changed.Results["BenchmarkFast"] = result{NsPerOp: 3e6, AllocsPerOp: count(22), BytesPerOp: count(9072)}
	changed.Results["BenchmarkSlow"] = result{NsPerOp: 2e8, AllocsPerOp: count(54634), BytesPerOp: count(9e6),
		Metrics: map[string]float64{"completed": 35}}
	nw := writeSnap(t, "new.json", changed)
	var out, errOut strings.Builder
	if code := run([]string{old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{"ms/op: 1.000 -> 3.000", "B/op: 4536 -> 9072", "ms/op: 500.000 -> 200.000", "metric completed: 34 -> 35"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// A benchmark of OLD missing from NEW fails; one only NEW has is listed
// and passes.
func TestMissingAndNewBenchmarksAreListed(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	added := baseSnap()
	added.Results["BenchmarkAdded"] = result{NsPerOp: 1e7, AllocsPerOp: count(7)}
	var out, errOut strings.Builder
	if code := run([]string{old, writeSnap(t, "added.json", added)}, &out, &errOut); code != 0 {
		t.Fatalf("an added benchmark: exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "new") {
		t.Errorf("output should list the added benchmark as new:\n%s", out.String())
	}

	delete(added.Results, "BenchmarkSlow")
	out.Reset()
	if code := run([]string{old, writeSnap(t, "gone.json", added)}, &out, &errOut); code != 1 {
		t.Fatalf("a benchmark missing from NEW: exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Errorf("output should mark the missing benchmark:\n%s", out.String())
	}
}

func TestUsageAndBadInputExitTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"only-one.json"}, &out, &errOut); code != 2 {
		t.Errorf("exit with one arg = %d, want 2", code)
	}
	if code := run([]string{"nope.json", "nope.json"}, &out, &errOut); code != 2 {
		t.Errorf("exit with missing file = %d, want 2", code)
	}
	empty := writeSnap(t, "empty.json", snapshot{GoVersion: "go1.24.0"})
	if code := run([]string{empty, empty}, &out, &errOut); code != 2 {
		t.Errorf("exit with empty results = %d, want 2", code)
	}
	// benchdiff takes no flags.
	p := writeSnap(t, "a.json", baseSnap())
	if code := run([]string{"-threshold", "0.5", p, p}, &out, &errOut); code != 2 {
		t.Errorf("exit with a flag = %d, want 2", code)
	}
}

// A snapshot written before the schema carried allocation counts cannot
// be gated, on either side.
func TestSnapshotWithoutAllocsExitsTwo(t *testing.T) {
	counted := writeSnap(t, "counted.json", baseSnap())
	bare := baseSnap()
	bare.Results["BenchmarkFast"] = result{NsPerOp: 1e6}
	uncounted := writeSnap(t, "uncounted.json", bare)
	for _, args := range [][]string{{uncounted, counted}, {counted, uncounted}} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit = %d, want 2\n%s", args, code, out.String())
		}
		if !strings.Contains(errOut.String(), "BenchmarkFast has no allocation count") {
			t.Errorf("stderr should name the benchmark without a count:\n%s", errOut.String())
		}
	}
}

// Allocation counts compare only at one Go release and one GOMAXPROCS.
func TestToolchainMismatchExitsTwo(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	release := baseSnap()
	release.GoVersion = "go1.25.0"
	procs := baseSnap()
	procs.GOMAXPROCS = 4
	for _, s := range []snapshot{release, procs} {
		var out, errOut strings.Builder
		if code := run([]string{old, writeSnap(t, "new.json", s)}, &out, &errOut); code != 2 {
			t.Fatalf("%s GOMAXPROCS=%d: exit = %d, want 2", s.GoVersion, s.GOMAXPROCS, code)
		}
		if !strings.Contains(errOut.String(), "go1.24.0 GOMAXPROCS=2 vs "+fmt.Sprintf("%s GOMAXPROCS=%d", s.GoVersion, s.GOMAXPROCS)) {
			t.Errorf("stderr should show both toolchains:\n%s", errOut.String())
		}
	}
}

// The committed allocation baseline must stay loadable and self-compare
// clean; CI gates every fresh snapshot against it.
func TestCommittedSnapshotSelfCompares(t *testing.T) {
	baseline := filepath.Join("..", "..", "bench", "BENCH_allocs.json")
	var out, errOut strings.Builder
	if code := run([]string{baseline, baseline}, &out, &errOut); code != 0 {
		t.Fatalf("self-compare of %s: exit %d\n%s%s", baseline, code, out.String(), errOut.String())
	}
}

// The snapshot writer records allocs_per_op and bytes_per_op, zero
// included. benchdiff reads zeros back as present counts: a count that
// falls to zero asks for the baseline to be recorded again, and a zero
// baseline allows no allocation.
func TestAllocsRoundTrip(t *testing.T) {
	// The writer's encoding (benchResult in bench_snapshot_test.go).
	written := func(allocs, bytes int) string {
		return fmt.Sprintf(`{"go_version":"go1.24.0","gomaxprocs":2,"results":{"BenchmarkFast":`+
			`{"iterations":100,"ns_per_op":1000000,"allocs_per_op":%d,"bytes_per_op":%d}}}`, allocs, bytes)
	}
	dir := t.TempDir()
	path := func(name, doc string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := path("before.json", written(12, 4096))
	after := path("after.json", written(0, 0))

	s, err := load(after)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Results["BenchmarkFast"]; r.AllocsPerOp == nil || *r.AllocsPerOp != 0 || r.BytesPerOp == nil || *r.BytesPerOp != 0 {
		t.Fatalf("zero allocs must read back as present zeros: %+v", r)
	}
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"allocs_per_op":0,"bytes_per_op":0`) {
		t.Errorf("re-encoding dropped the zero counts: %s", buf)
	}

	for _, tc := range []struct {
		old, new string
		code     int
		want     string
	}{
		{before, after, 1, "12            0       ±0  BELOW OLD: record the baseline again\n  ms/op: 1.000 -> 1.000\n  B/op: 4096 -> 0"},
		{after, before, 1, "0           12       ±0  REGRESSION\n  ms/op: 1.000 -> 1.000\n  B/op: 0 -> 4096"},
	} {
		var out, errOut strings.Builder
		if code := run([]string{tc.old, tc.new}, &out, &errOut); code != tc.code {
			t.Fatalf("exit = %d, want %d\n%s", code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("output lacks %q:\n%s", tc.want, out.String())
		}
	}
}
