package bitsim

import (
	"testing"

	"github.com/memtest/partialfaults/internal/march"
)

// TestScenarioCountOverflow: a geometry whose scenario total does not
// fit in an int is an error, never a wrapped count read as a verdict.
// At 2³¹×2³¹ the 2⁶² cells × 16 March PF order assignments used to wrap
// to 0 scenarios and report SF0 as missed; at 3037000500² the cell count
// itself wraps.
func TestScenarioCountOverflow(t *testing.T) {
	eng := New()
	pf := march.MarchPF()
	sf0 := march.ClassicalFaultCatalog()[0]
	pair := march.TwoCellCatalog()[0]
	for _, g := range [][2]int{{1 << 31, 1 << 31}, {3037000500, 3037000500}} {
		if det, err := eng.Detects(pf, g[0], g[1], sf0); err == nil {
			t.Errorf("Detects on %dx%d: %+v, want an error", g[0], g[1], det)
		}
		if det, err := eng.DetectsTwoCellOffsets(pf, g[0], g[1], pair, []int{1, -1}); err == nil {
			t.Errorf("DetectsTwoCellOffsets on %dx%d: %+v, want an error", g[0], g[1], det)
		}
	}
	// 2⁴⁰ cells fit, but their ordered pairs do not: the all-pairs walk
	// must refuse before it builds 2⁴¹ offsets.
	if det, err := eng.DetectsTwoCell(pf, 1<<20, 1<<20, pair); err == nil {
		t.Errorf("DetectsTwoCell on 2²⁰x2²⁰: %+v, want an error", det)
	}

	// The largest geometries the repository runs still count exactly.
	det, err := eng.Detects(pf, 1024, 1024, sf0)
	if err != nil || !det.Detected || det.Scenarios != 1<<20*len(pf.OrderAssignments()) {
		t.Fatalf("Detects on 1024x1024: %+v, %v", det, err)
	}
}
