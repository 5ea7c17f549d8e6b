package analysis

import "github.com/memtest/partialfaults/internal/fp"

// PartialFinding reports that an FFM behaves as a *partial fault* in a
// plane: it is observed for some initialized floating voltages but not
// others at the same defect resistance — the paper's Section 3 rule:
//
//	"If FP1 is only observed for a limited range of Vf values, then
//	 completing operations should be added to FP1 to ensure it is
//	 sensitized."
type PartialFinding struct {
	// FFM is the partially sensitized fault model.
	FFM fp.FFM
	// Example is a representative observed FP.
	Example fp.FP
	// RDefWithPartial lists the R_def values at which the FFM appears
	// for only part of the U axis.
	RDefWithPartial []float64
	// RDefWithFFM lists every R_def at which the FFM appears at all
	// (partial or full rows). The completion search probes these: the
	// paper's completions hold at defect strengths inside the fault
	// region, not necessarily at its partial fringes.
	RDefWithFFM []float64
	// ULow and UHigh bound the U values at which the FFM was observed
	// (over the partial rows).
	ULow, UHigh float64
}

// IdentifyPartialFaults applies the rule to a plane and returns one
// finding per FFM that is partial somewhere. An FFM that, at every R_def
// where it appears at all, covers the entire U axis is *not* partial
// (it is already fully sensitized by the SOS). Findings come in the
// order their FFMs first turn partial: by R_def row, and within a row by
// the FFM's first U.
func IdentifyPartialFaults(p *Plane) []PartialFinding {
	perFFM := map[fp.FFM]*PartialFinding{}
	var order []fp.FFM
	for i := range p.RDefs {
		counts := map[fp.FFM]int{}
		examples := map[fp.FFM]fp.FP{}
		var rowOrder []fp.FFM // the row's FFMs by first U
		for _, pt := range p.Points[i] {
			if pt.Faulty && pt.FFM != fp.FFMUnknown {
				if counts[pt.FFM] == 0 {
					rowOrder = append(rowOrder, pt.FFM)
				}
				counts[pt.FFM]++
				examples[pt.FFM] = pt.FP
			}
		}
		for _, f := range rowOrder {
			if counts[f] == len(p.Us) {
				continue // full row: sensitized for every U at this R_def
			}
			pf := perFFM[f]
			if pf == nil {
				pf = &PartialFinding{FFM: f, Example: examples[f], ULow: 1e18, UHigh: -1e18}
				perFFM[f] = pf
				order = append(order, f)
			}
			pf.RDefWithPartial = append(pf.RDefWithPartial, p.RDefs[i])
			for j, pt := range p.Points[i] {
				if pt.Faulty && pt.FFM == f {
					if u := p.Us[j]; u < pf.ULow {
						pf.ULow = u
					}
					if u := p.Us[j]; u > pf.UHigh {
						pf.UHigh = u
					}
				}
			}
		}
	}
	// Record, for every partial FFM, all rows where it appears at all.
	for i := range p.RDefs {
		rowFFMs := map[fp.FFM]bool{}
		for _, pt := range p.Points[i] {
			if pt.Faulty {
				rowFFMs[pt.FFM] = true
			}
		}
		for f, pf := range perFFM {
			if rowFFMs[f] {
				pf.RDefWithFFM = append(pf.RDefWithFFM, p.RDefs[i])
			}
		}
	}
	out := make([]PartialFinding, 0, len(order))
	for _, f := range order {
		out = append(out, *perFFM[f])
	}
	return out
}

// IsCompletedIn reports whether the FFM is fully sensitized in the plane:
// it appears somewhere, and at every R_def where it appears it covers the
// whole U axis — the paper's Figure 3(b)/4(b) criterion ("the resulting
// faulty behaviour does not depend anymore on the floating voltage").
func IsCompletedIn(p *Plane, f fp.FFM) bool {
	appears := false
	for i := range p.RDefs {
		n, total := p.RowFFM(i, f)
		if n == 0 {
			continue
		}
		appears = true
		if n != total {
			return false
		}
	}
	return appears
}
