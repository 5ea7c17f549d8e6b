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

func baseSnap() snapshot {
	return snapshot{
		GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 4,
		Results: map[string]result{
			"BenchmarkFast": {Iterations: 100, NsPerOp: 1e6},
			"BenchmarkSlow": {Iterations: 10, NsPerOp: 5e8, Metrics: map[string]float64{"completed": 34}},
		},
	}
}

func TestIdenticalSnapshotsPass(t *testing.T) {
	p := writeSnap(t, "a.json", baseSnap())
	var out, errOut strings.Builder
	if code := run([]string{p, p}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "no regression") {
		t.Errorf("missing ok line:\n%s", out.String())
	}
}

func TestRegressionBeyondBandFails(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	slowed := baseSnap()
	slowed.Results["BenchmarkFast"] = result{Iterations: 100, NsPerOp: 1.5e6} // +50%
	nw := writeSnap(t, "new.json", slowed)
	var out, errOut strings.Builder
	if code := run([]string{old, nw}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION marker:\n%s", out.String())
	}
	// A wider band absorbs the same slowdown as noise.
	out.Reset()
	if code := run([]string{"-threshold", "0.6", old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("exit with -threshold 0.6 = %d, want 0\n%s", code, out.String())
	}
}

func TestSpeedupAndMetricDriftPass(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	faster := baseSnap()
	faster.Results["BenchmarkSlow"] = result{Iterations: 20, NsPerOp: 2e8, Metrics: map[string]float64{"completed": 35}}
	nw := writeSnap(t, "new.json", faster)
	var out, errOut strings.Builder
	if code := run([]string{old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "metric completed: 34 -> 35") {
		t.Errorf("metric drift not reported:\n%s", out.String())
	}
}

func TestHostMismatchNeedsForce(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	other := baseSnap()
	other.NumCPU = 96
	other.Results["BenchmarkFast"] = result{Iterations: 100, NsPerOp: 9e6}
	nw := writeSnap(t, "new.json", other)
	var out, errOut strings.Builder
	if code := run([]string{old, nw}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2 on host mismatch", code)
	}
	if !strings.Contains(errOut.String(), "host mismatch") {
		t.Errorf("stderr should explain the mismatch:\n%s", errOut.String())
	}
	// -force compares informationally: the cross-host slowdown is shown
	// but must not fail the run.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-force", old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("exit with -force = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("-force should still show the delta marker:\n%s", out.String())
	}
}

func TestMissingAndNewBenchmarksAreListed(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	changed := baseSnap()
	delete(changed.Results, "BenchmarkSlow")
	changed.Results["BenchmarkAdded"] = result{Iterations: 5, NsPerOp: 1e7}
	nw := writeSnap(t, "new.json", changed)
	var out, errOut strings.Builder
	if code := run([]string{old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{"new", "gone"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q column:\n%s", want, out.String())
		}
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
	empty := writeSnap(t, "empty.json", snapshot{GOOS: "linux"})
	if code := run([]string{empty, empty}, &out, &errOut); code != 2 {
		t.Errorf("exit with empty results = %d, want 2", code)
	}
}

// The committed repository snapshot must stay loadable and self-compare
// clean — the exact invocation CI smokes.
func TestCommittedSnapshotSelfCompares(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		t.Skip("no committed BENCH_*.json snapshot")
	}
	var out, errOut strings.Builder
	if code := run([]string{matches[0], matches[0]}, &out, &errOut); code != 0 {
		t.Fatalf("self-compare of %s: exit %d\n%s%s", matches[0], code, out.String(), errOut.String())
	}
}

// writeHistory commits n same-host history snapshots into one dir with
// BenchmarkFast sampled at the given ns/op values.
func writeHistory(t *testing.T, fastNs []float64) string {
	t.Helper()
	dir := t.TempDir()
	for i, ns := range fastNs {
		s := baseSnap()
		s.Results["BenchmarkFast"] = result{Iterations: 100, NsPerOp: ns}
		buf, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("BENCH_%03d.json", i)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "BENCH_*.json")
}

// A quiet benchmark's history tightens its band below the flat ratio:
// a +10% slowdown passes the default 15% threshold but fails against
// the ~5% band three sigma of its own variance derives.
func TestHistoryTightensBand(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	slowed := baseSnap()
	slowed.Results["BenchmarkFast"] = result{Iterations: 100, NsPerOp: 1.1e6} // +10%
	nw := writeSnap(t, "new.json", slowed)
	glob := writeHistory(t, []float64{1.00e6, 1.02e6, 0.98e6, 1.00e6}) // 3σ/µ ≈ 4.9%

	var out, errOut strings.Builder
	if code := run([]string{old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("flat threshold should absorb +10%%: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-history", glob, old, nw}, &out, &errOut); code != 1 {
		t.Fatalf("history band should flag +10%% on a quiet benchmark: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION (band") {
		t.Errorf("regression line should name the derived band:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "noise bands from 4 same-host history snapshots") {
		t.Errorf("band provenance line missing:\n%s", out.String())
	}
}

// A noisy benchmark's history widens its band beyond the flat ratio:
// the same +25% slowdown that fails the default threshold is absorbed
// when the benchmark's own variance says it is noise.
func TestHistoryWidensBand(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	slowed := baseSnap()
	slowed.Results["BenchmarkFast"] = result{Iterations: 100, NsPerOp: 1.25e6} // +25%
	nw := writeSnap(t, "new.json", slowed)
	glob := writeHistory(t, []float64{1.0e6, 1.3e6, 0.7e6, 1.15e6, 0.85e6}) // 3σ/µ ≈ 72%

	var out, errOut strings.Builder
	if code := run([]string{old, nw}, &out, &errOut); code != 1 {
		t.Fatalf("flat threshold should flag +25%%: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-history", glob, old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("history band should absorb +25%% on a noisy benchmark: exit %d\n%s", code, out.String())
	}
}

// With fewer than three same-host samples the flat ratio still governs,
// and snapshots from other hosts never contribute to a band.
func TestHistoryFallbackAndHostFilter(t *testing.T) {
	old := writeSnap(t, "old.json", baseSnap())
	slowed := baseSnap()
	slowed.Results["BenchmarkFast"] = result{Iterations: 100, NsPerOp: 1.1e6} // +10%
	nw := writeSnap(t, "new.json", slowed)

	// Two same-host samples: below the minimum, flat 15% applies, +10% passes.
	glob := writeHistory(t, []float64{1.0e6, 1.0e6})
	var out, errOut strings.Builder
	if code := run([]string{"-history", glob, old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("two samples must fall back to the flat ratio: exit %d\n%s", code, out.String())
	}

	// Four foreign-host samples: filtered out entirely, flat ratio again.
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		s := baseSnap()
		s.NumCPU = 96
		s.Results["BenchmarkFast"] = result{Iterations: 100, NsPerOp: 1e6}
		buf, _ := json.Marshal(s)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", i)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if code := run([]string{"-history", filepath.Join(dir, "BENCH_*.json"), old, nw}, &out, &errOut); code != 0 {
		t.Fatalf("foreign-host history must not band: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0 benchmarks banded") {
		t.Errorf("provenance should show zero banded benchmarks:\n%s", out.String())
	}

	// An unreadable history file is a hard error: exit 2.
	if err := os.WriteFile(filepath.Join(dir, "BENCH_bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-history", filepath.Join(dir, "BENCH_*.json"), old, nw}, &out, &errOut); code != 2 {
		t.Fatalf("corrupt history file must exit 2, got %d", code)
	}
}

// noiseBands itself: quiet benchmarks floor at minBand, the sample
// standard deviation (n-1) is used, and <3 samples yield no band.
func TestNoiseBands(t *testing.T) {
	mk := func(ns float64) snapshot {
		return snapshot{GOOS: "linux", GOARCH: "amd64", NumCPU: 4,
			Results: map[string]result{"B": {NsPerOp: ns}}}
	}
	// Identical samples: σ=0 → floored at minBand.
	bands := noiseBands([]snapshot{mk(1e6), mk(1e6), mk(1e6)})
	if got := bands["B"]; got != minBand {
		t.Errorf("zero-variance band = %g, want floor %g", got, minBand)
	}
	// Hand-computed: samples 9e5,1e6,1.1e6 → µ=1e6, σ=1e5 → 3σ/µ=0.3.
	bands = noiseBands([]snapshot{mk(9e5), mk(1e6), mk(1.1e6)})
	if got := bands["B"]; got < 0.2999 || got > 0.3001 {
		t.Errorf("band = %g, want 0.3", got)
	}
	// Two samples: no band.
	if bands := noiseBands([]snapshot{mk(1e6), mk(2e6)}); len(bands) != 0 {
		t.Errorf("two samples must not band: %v", bands)
	}
}

// The snapshot writer records allocs_per_op and bytes_per_op, zero
// included. benchdiff reads them back and prints old -> new whichever
// way they move, without failing on them, and prints nothing for a
// snapshot written before the schema carried them.
func TestAllocsRoundTrip(t *testing.T) {
	// The writer's encoding (benchResult in bench_snapshot_test.go).
	written := func(allocs, bytes int) string {
		return fmt.Sprintf(`{"goos":"linux","goarch":"amd64","num_cpu":4,"results":{"BenchmarkFast":`+
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

	for _, tc := range []struct{ old, new, want string }{
		{before, after, "allocs/op: 12 -> 0\n  B/op: 4096 -> 0"},
		{after, before, "allocs/op: 0 -> 12\n  B/op: 0 -> 4096"},
	} {
		var out, errOut strings.Builder
		if code := run([]string{tc.old, tc.new}, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, want 0 (allocations do not gate)\n%s", code, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("output lacks %q:\n%s", tc.want, out.String())
		}
	}

	legacy := writeSnap(t, "legacy.json", baseSnap())
	var out, errOut strings.Builder
	if code := run([]string{legacy, after}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "allocs/op") || strings.Contains(out.String(), "B/op") {
		t.Errorf("a snapshot without allocation counts must print none:\n%s", out.String())
	}
}
