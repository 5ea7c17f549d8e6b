package march

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/memsim"
)

// Two-cell (coupling) half of the detection prover. The abstraction
// quantifies over the *layout class* of an (aggressor, victim) pair
// instead of concrete addresses: march semantics run each address's
// whole block before the next address starts, so the pair's addresses
// split the remaining cells into three zones — below both, strictly
// between, above both — and a scenario's outcome depends on the layout
// only through a finite signature:
//
//   - which pair member is traversed first (aggressor below victim?),
//   - whether the pair shares a column (aggressor ops then drive the
//     victim's bit line),
//   - per zone, whether it is non-empty (its blocks drive the IO state)
//     and whether it contains a victim-column mate (its blocks drive the
//     victim's bit line).
//
// Layout constraints keep the class set honest: a column mate in a zone
// implies the zone is non-empty; a same-column pair has |a−v| ≥ cols ≥ 2,
// so the between zone is non-empty; a different-column pair leaves the
// victim's ≥ 1 column mates (rows ≥ 2) in some zone. The enumerated set
// *over-approximates* the realizable layouts — which is sound in both
// verdict directions, since every concrete scenario maps to an
// enumerated class and each class's abstract run is exact for its
// concretes (unrealizable classes can only push a verdict to Unknown).

// pairClass is the layout signature of an (aggressor, victim) pair.
type pairClass struct {
	// aggFirst says the aggressor's address is the smaller one.
	aggFirst bool
	// sameCol says the pair shares a column (bit line).
	sameCol bool
	// zone[k] says zone k (0 below the pair, 1 between, 2 above) holds at
	// least one other cell; mate[k] that it holds a victim-column mate.
	zone, mate [3]bool
}

func (c pairClass) describe() string {
	rel := "aggressor above victim"
	if c.aggFirst {
		rel = "aggressor below victim"
	}
	col := "different columns"
	if c.sameCol {
		col = "same column"
	}
	zones := ""
	for k := 0; k < 3; k++ {
		switch {
		case c.mate[k]:
			zones += "m"
		case c.zone[k]:
			zones += "o"
		default:
			zones += "-"
		}
	}
	return fmt.Sprintf("%s, %s, zones %s", rel, col, zones)
}

// pairClasses enumerates every layout signature satisfying the
// constraints above (74 classes).
func pairClasses() []pairClass {
	var out []pairClass
	for _, aggFirst := range []bool{false, true} {
		for _, sameCol := range []bool{false, true} {
			for bits := 0; bits < 64; bits++ {
				var c pairClass
				c.aggFirst, c.sameCol = aggFirst, sameCol
				ok := true
				anyMate := false
				for k := 0; k < 3; k++ {
					c.zone[k] = bits&(1<<k) != 0
					c.mate[k] = bits&(1<<(3+k)) != 0
					if c.mate[k] {
						anyMate = true
						if !c.zone[k] {
							ok = false
						}
					}
				}
				if sameCol && !c.zone[1] {
					ok = false
				}
				if !sameCol && !anyMate {
					ok = false
				}
				if ok {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// ProveDetectsTwoCell statically proves the test's detection verdict for
// a two-cell catalog entry, quantified over every rows ≥ 2, cols ≥ 2
// geometry, every distinct (aggressor, victim) address pair and every
// ⇕-order assignment — the same space DetectsTwoCellEntry sweeps
// dynamically on one geometry.
func ProveDetectsTwoCell(t Test, e TwoCellCatalogEntry) Proof {
	if err := t.Validate(); err != nil {
		return unknownProof(fmt.Sprintf("structurally invalid test: %v", err))
	}
	trs, healthy := traceTest(t)
	classes := pairClasses()
	scenarios := len(classes) * (1 << t.AnyCount())
	if !healthy {
		return contradictoryDetects(t, scenarios)
	}
	cf, err := memsim.CompileTwoCellFault(e.Make(0, 1))
	if err != nil {
		return unknownProof(fmt.Sprintf("fault does not compile: %v", err))
	}
	if cf.Kind == fp.CFUnknown {
		return unknownProof("unclassified coupling FP is outside the prover's abstract domain")
	}
	if cf.Kind == fp.CFst && (cf.Trig == memsim.TrigBitLine || cf.Trig == memsim.TrigIO) {
		return unknownProof("line-mediated state coupling is outside the prover's abstract domain")
	}

	var trace *ProofTrace
	var missWitness string
	anyFire := false
	detecting, total := 0, 0
	for _, orders := range t.ResolvedOrders() {
		for _, cl := range classes {
			r := runTwoCellAbstract(t, trs, cf, e.FP, orders, cl)
			total++
			if r.fired {
				anyFire = true
			}
			if r.mismatched {
				detecting++
				if trace == nil {
					trace = &ProofTrace{SensElem: r.sensElem, SensOp: r.sensOp, ObsElem: r.obsElem, ObsOp: r.obsOp}
				}
			} else if missWitness == "" {
				missWitness = fmt.Sprintf("%s, orders %s", cl.describe(), describeOrders(orders))
			}
		}
	}
	switch {
	case detecting == total:
		return Proof{Verdict: VerdictDetects, Trace: trace, Scenarios: total, Detecting: total}
	case detecting == 0:
		why := "the coupling fault never fires in any scenario class"
		if anyFire {
			why = "the coupling fault fires but no subsequent victim read ever observes the deviation"
		}
		return Proof{
			Verdict:   VerdictMisses,
			Witness:   fmt.Sprintf("%s (e.g. %s)", why, missWitness),
			Scenarios: total,
		}
	default:
		return Proof{
			Verdict:   VerdictUnknown,
			Witness:   fmt.Sprintf("detection is scenario-dependent: %d of %d scenario classes mismatch (undetected e.g. %s)", detecting, total, missWitness),
			Scenarios: total, Detecting: detecting,
		}
	}
}

// runTwoCellAbstract replays the coupling-fault machine over one layout
// class: aggressor and zone cells via the healthy element traces, the
// victim's operations exactly. It mirrors memsim's hook order —
// operation-sensitized triggers see the pre-operation line state, lines
// update after the operation, CFst acts after every operation period.
func runTwoCellAbstract(t Test, trs []elemTrace, cf memsim.CompiledTwoCell, p fp.TwoCellFP, orders []Order, cl pairClass) runOutcome {
	v, av, bl, io := unknown, unknown, unknown, unknown
	var r runOutcome

	armed := func() bool {
		switch cf.Trig {
		case memsim.TrigNever:
			return false
		case memsim.TrigBitLine:
			return bl == cf.Comp
		case memsim.TrigIO:
			return io == cf.Comp
		}
		return true
	}
	// applyCFst mirrors applyStateFaults: the flip is idempotent while
	// the pair's states are stable, so once per zone segment is exact.
	applyCFst := func(elem, op int) {
		if cf.Kind == fp.CFst && cf.Trig == memsim.TrigAlways &&
			av == p.AggState && v == p.VictimState {
			v = p.F
			r.noteFire(elem, op)
		}
	}

	zoneSeg := func(ei, k int) {
		if !cl.zone[k] {
			return
		}
		if out := trs[ei].out; out != unknown {
			io = out
			if cl.mate[k] {
				bl = out
			}
		}
		applyCFst(ei, -1)
	}

	aggBlock := func(ei int) {
		for oi, op := range t.Elements[ei].Ops {
			pre, post := trs[ei].pres[oi], trs[ei].posts[oi]
			if cf.Kind == fp.CFds && p.AggOp != nil && (p.AggOp.Kind == fp.OpWrite) != op.Read {
				match := pre == p.AggState
				if p.AggOp.Kind == fp.OpWrite {
					match = match && op.Data == p.AggOp.Data
				} else {
					match = match && pre == p.AggOp.Data
				}
				if match && armed() && v == p.VictimState {
					v = p.F
					r.noteFire(ei, oi)
				}
			}
			if post != unknown {
				io = post
				if cl.sameCol {
					bl = post
				}
			}
			av = post
			applyCFst(ei, oi)
		}
	}

	victimBlock := func(ei int) {
		for oi, op := range t.Elements[ei].Ops {
			if op.Read {
				out := v
				if victimReadKind(cf.Kind) && p.VictimOp != nil &&
					v == p.VictimOp.Data && v == p.VictimState && av == p.AggState && armed() {
					rd, _ := p.R.Bit()
					out = rd
					v = p.F
					r.noteFire(ei, oi)
				}
				if out != unknown && out != op.Data {
					r.noteMismatch(ei, oi)
				}
				if v != unknown {
					bl = v
				}
				if out != unknown {
					io = out
				}
			} else {
				result := op.Data
				if (cf.Kind == fp.CFtr || cf.Kind == fp.CFwd) && p.VictimOp != nil &&
					p.VictimOp.Data == op.Data && v == p.VictimState && av == p.AggState && armed() {
					result = p.F
					r.noteFire(ei, oi)
				}
				v = result
				bl = op.Data
				io = op.Data
			}
			applyCFst(ei, oi)
		}
	}

	for ei := range t.Elements {
		up := orders[ei] == Up
		// Traversal order of the five segments: lower zone, lower pair
		// member, between zone, upper pair member, upper zone — reversed
		// under a ⇓ element.
		type seg struct {
			zone int // -1 for a pair member
			agg  bool
		}
		segs := [5]seg{{zone: 0}, {zone: -1, agg: cl.aggFirst}, {zone: 1}, {zone: -1, agg: !cl.aggFirst}, {zone: 2}}
		for i := 0; i < 5; i++ {
			s := segs[i]
			if !up {
				s = segs[4-i]
			}
			switch {
			case s.zone >= 0:
				zoneSeg(ei, s.zone)
			case s.agg:
				aggBlock(ei)
			default:
				victimBlock(ei)
			}
		}
	}
	return r
}

// victimReadKind says the class fires on a victim read (mirrors the
// fireVictimRead dispatch).
func victimReadKind(k fp.CFKind) bool {
	return k == fp.CFrd || k == fp.CFdr || k == fp.CFir
}
