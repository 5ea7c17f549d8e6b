package analysis

import (
	"testing"

	"github.com/memtest/partialfaults/internal/fp"
)

// TestIdentifyPartialFaultsOrdersByFirstU: IRF0 (at U = 0 V) and RDF0
// (at U = 2 V) first turn partial in the same R_def row, so the findings
// list IRF0 first — the order of their first U, not of the FFM enum
// (RDF0 before IRF0) nor of map iteration. BuildInventory starts its
// completion searches and prints its progress lines in this order, so it
// may not vary from call to call.
func TestIdentifyPartialFaultsOrdersByFirstU(t *testing.T) {
	irf0, _ := fp.IRF0.CanonicalFP()
	rdf0, _ := fp.RDF0.CanonicalFP()
	p := &Plane{
		SOS:   irf0.S,
		RDefs: []float64{1e5, 1e6},
		Us:    []float64{0, 1, 2, 3},
	}
	faulty := func(u float64, f fp.FP) Point {
		return Point{RDef: 1e5, U: u, Faulty: true, FP: f, FFM: f.Classify()}
	}
	p.Points = [][]Point{
		{faulty(0, irf0), {RDef: 1e5, U: 1}, faulty(2, rdf0), {RDef: 1e5, U: 3}},
		{{RDef: 1e6, U: 0}, {RDef: 1e6, U: 1}, {RDef: 1e6, U: 2}, {RDef: 1e6, U: 3}},
	}
	for call := 0; call < 200; call++ {
		got := IdentifyPartialFaults(p)
		if len(got) != 2 || got[0].FFM != fp.IRF0 || got[1].FFM != fp.RDF0 {
			var names []string
			for _, f := range got {
				names = append(names, f.FFM.String())
			}
			t.Fatalf("call %d: findings %v, want [IRF0 RDF0]", call, names)
		}
	}
}
