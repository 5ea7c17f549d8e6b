package stress

import (
	"reflect"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/march"
)

// opensByID resolves defect opens for the reduced test grids.
func opensByID(t testing.TB, ids ...int) []defect.Open {
	t.Helper()
	out := make([]defect.Open, 0, len(ids))
	for _, id := range ids {
		o, ok := defect.ByID(id)
		if !ok {
			t.Fatalf("no open %d", id)
		}
		out = append(out, o)
	}
	return out
}

// testsNamed resolves march tests for the reduced test configs.
func testsNamed(t testing.TB, names ...string) []march.Test {
	t.Helper()
	byName := map[string]march.Test{}
	for _, mt := range march.All() {
		byName[mt.Name] = mt
	}
	out := make([]march.Test, 0, len(names))
	for _, n := range names {
		mt, ok := byName[n]
		if !ok {
			t.Fatalf("no march test %q", n)
		}
		out = append(out, mt)
	}
	return out
}

// smallConfig is the reduced stress config the unit tests share: two
// opens, a 2×3 grid, one march test, a 2×2 coverage geometry.
func smallConfig(t testing.TB, corners []Spec) Config {
	t.Helper()
	return Config{
		Corners: corners,
		Opens:   opensByID(t, 1, 5),
		RDefs:   []float64{1e4, 1e6},
		Us:      []float64{0, 1.5, 3.3},
		Tests:   testsNamed(t, "March PF"),
		Rows:    2, Cols: 2,
	}
}

// runsByName indexes a result's corner runs.
func runsByName(res *Result) map[string]CornerRun {
	out := map[string]CornerRun{}
	for _, run := range res.Corners {
		out[run.Spec.Name] = run
	}
	return out
}

// TestCornerPermutationInvariance: the matrix is deterministic per
// corner under a wide goroutine pool — permuting the submitted corner
// list changes row order only, never any corner's content.
func TestCornerPermutationInvariance(t *testing.T) {
	hot, _ := ParseSpec("hot")
	lowVDD, _ := ParseSpec("low-vdd")
	order1 := []Spec{Nominal(), lowVDD, hot}
	order2 := []Spec{hot, Nominal(), lowVDD}

	run := func(corners []Spec) *Result {
		cfg := smallConfig(t, corners)
		cfg.Parallelism = 8
		res, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(order1), run(order2)

	if a.Nominal().Spec.Name != "nominal" || b.Nominal().Spec.Name != "nominal" {
		t.Fatal("nominal index does not point at the nominal corner")
	}
	ra, rb := runsByName(a), runsByName(b)
	if len(ra) != 3 || len(rb) != 3 {
		t.Fatalf("corner counts: %d and %d", len(ra), len(rb))
	}
	for name, runA := range ra {
		if !reflect.DeepEqual(runA, rb[name]) {
			t.Errorf("corner %s differs between submission orders", name)
		}
	}
	if a.Certificate.Claimed() != b.Certificate.Claimed() {
		t.Errorf("claimed counts differ: %d vs %d",
			a.Certificate.Claimed(), b.Certificate.Claimed())
	}
}

// TestCornersIndependentUnderSharedPool: all corners of a full Analyze
// run concurrently over one shared pool, so each corner's run must be
// bit-identical to an isolated Analyze of that corner alone. State
// leaking between concurrent corners would break this immediately.
func TestCornersIndependentUnderSharedPool(t *testing.T) {
	hot, _ := ParseSpec("hot")
	lowVDD, _ := ParseSpec("low-vdd")
	cfg := smallConfig(t, []Spec{Nominal(), lowVDD, hot})
	cfg.Pool = analysis.NewPool(8)
	shared, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharedRuns := runsByName(shared)
	for _, spec := range []Spec{lowVDD, hot} {
		solo, err := Analyze(smallConfig(t, []Spec{spec}))
		if err != nil {
			t.Fatal(err)
		}
		soloRun := runsByName(solo)[spec.Name]
		got := sharedRuns[spec.Name]
		if !reflect.DeepEqual(got.Rows, soloRun.Rows) {
			t.Errorf("corner %s inventory differs under the shared pool", spec.Name)
		}
		if !reflect.DeepEqual(got.Coverage, soloRun.Coverage) {
			t.Errorf("corner %s coverage differs under the shared pool", spec.Name)
		}
	}
}

// TestDuplicateFingerprintRejected: two differently-named corners with
// identical derivations alias one model; Analyze must refuse.
func TestDuplicateFingerprintRejected(t *testing.T) {
	a, _ := ParseSpec("a:vdd=0.95")
	b, _ := ParseSpec("b:vdd=0.95")
	_, err := Analyze(smallConfig(t, []Spec{a, b}))
	if err == nil || !strings.Contains(err.Error(), "alias") {
		t.Fatalf("duplicate derivation accepted: %v", err)
	}
}

// TestAnalyzeUnknownEngine: the engine name is validated up front.
func TestAnalyzeUnknownEngine(t *testing.T) {
	cfg := smallConfig(t, []Spec{Nominal()})
	cfg.Engine = "verilog"
	if _, err := Analyze(cfg); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestInjectable: uniform-target completions compile; a completion
// mixing victim and bit-line writes — a shape the corner-local
// completion search can legitimately find — is reported uninjectable
// with the engine's reason.
func TestInjectable(t *testing.T) {
	for _, e := range march.PaperFaultCatalog() {
		if ok, why := Injectable(e); !ok {
			t.Errorf("paper-catalog entry %s reported uninjectable: %s", e.Name, why)
		}
	}
	mixed := march.CatalogEntry{
		Name:    "mixed",
		FP:      fp.MustNew(fp.NewSOS(fp.InitNone, fp.CWBL(1), fp.CW(0)), 1, fp.RNone),
		Partial: true,
	}
	ok, why := Injectable(mixed)
	if ok {
		t.Fatal("mixed-target completion reported injectable")
	}
	if !strings.Contains(why, "mixes victim and bit-line") {
		t.Fatalf("reason: %s", why)
	}
}
