package march

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/memsim"
)

// This file holds the two-cell fault catalog, the healthy per-element
// trace that Lint and the detection prover walk, and
// cannotCompleteTwoCell: the static "cannot fire" proof behind the
// two-cell certificate's ProvedMiss/Reason column. The detection prover
// (prove_twocell.go) answers the same question with a proved Misses
// verdict and is the only static analysis everywhere else; this proof
// is retained only because the march-bitplane benchmark digest pins the
// certificate's reason strings, until a benchmark change re-pins it.
//
// The proof rests on the uniform-state invariant of march semantics:
// every address receives the whole op list of an element before the
// next element starts, so at any operation of element e the *other*
// cell of the pair holds either e's entry state (its block not yet run)
// or e's exit state (already run) — and both cases are realizable under
// some address order and geometry, for either address relation a<v or
// a>v. Firing conditions mirror memsim's cfault semantics exactly;
// unknown (X) state never satisfies a condition. If the fault can never
// fire, the memory behaves healthily throughout, and a test that passes
// on a healthy memory reports zero mismatches — hence "cannot fire"
// implies "cannot detect". That last step forces one guard: a test that
// *fails* on a fault-free memory (a contradictory read) "detects"
// every fault, so the proof claims nothing for such tests.

// TwoCellCatalogEntry is one injectable two-cell (coupling) fault for
// coverage evaluation and static analysis: a classical always-armed
// FP, or a *partial* coupling FP in completed form whose firing is
// additionally mediated by a floating line.
type TwoCellCatalogEntry struct {
	// Name identifies the entry in findings and certificates.
	Name string
	// FP is the underlying static two-cell fault primitive.
	FP fp.TwoCellFP
	// Comp is the completing operation of a partial entry: the mediating
	// floating line must hold its driven value at the sensitizing moment.
	// Nil for classical entries and uncompletable ones.
	Comp *fp.Op
	// Float is the mediating floating voltage for partial entries.
	Float defect.FloatVar
	// Uncompletable marks word-line-mediated partial coupling faults:
	// the two-cell analogue of Table 1's "Not possible" rows.
	Uncompletable bool
	// Partial distinguishes partial entries from classical ones.
	Partial bool
}

// Make builds the memsim injection descriptor for a concrete address
// pair.
func (e TwoCellCatalogEntry) Make(victim, aggressor int) memsim.TwoCellFault {
	f := memsim.TwoCellFault{
		Victim: victim, Aggressor: aggressor, FP: e.FP,
		Uncompletable: e.Uncompletable,
	}
	if e.Comp != nil {
		f.Float = e.Float
		f.Comp = e.Comp.Data
	}
	return f
}

// TwoCellCatalog returns the full evaluation catalog: the 36 classical
// static two-cell FPs of [vdGoor00], plus partial coupling faults in
// completed form. The partial entries model the paper's mediation
// mechanisms applied to a coupled pair: a floating bit line in the
// victim's column pre-set against (or with) the victim deviation, a
// floating output buffer biasing a victim read, and floating word lines
// — which have no completing operation and are therefore uncompletable,
// the two-cell analogue of Table 1's "Not possible" rows. Bit-line
// mediated CFst is deliberately absent: state coupling is evaluated
// after every operation has driven the lines, so a pre-set line value
// cannot gate it the way it gates operation-sensitized classes.
func TwoCellCatalog() []TwoCellCatalogEntry {
	var out []TwoCellCatalogEntry
	for _, p := range fp.EnumerateTwoCellStaticFPs() {
		out = append(out, TwoCellCatalogEntry{
			Name: fmt.Sprintf("%s %s", p.Classify(), p),
			FP:   p,
		})
	}
	partial := func(label, where string, p fp.TwoCellFP, comp fp.Op, v defect.FloatVar) TwoCellCatalogEntry {
		c := comp
		return TwoCellCatalogEntry{
			Name:    fmt.Sprintf("%s partial (%s) %s", label, where, fp.CompletedTwoCellString(p, c)),
			FP:      p,
			Comp:    &c,
			Float:   v,
			Partial: true,
		}
	}
	uncompletable := func(label string, p fp.TwoCellFP) TwoCellCatalogEntry {
		return TwoCellCatalogEntry{
			Name:          fmt.Sprintf("%s partial (word line) %s — Not possible", label, p),
			FP:            p,
			Float:         defect.FloatWordLine,
			Uncompletable: true,
			Partial:       true,
		}
	}
	w0, w1 := fp.W(0), fp.W(1)
	r0, r1 := fp.R(0), fp.R(1)
	aw1, aw0 := fp.W(1), fp.W(0)
	out = append(out,
		// A victim up-transition write fails while the aggressor holds 1
		// and the victim's bit line floats at 0, fighting the transition.
		partial("CFtr↑", "bit line",
			fp.TwoCellFP{AggState: 1, VictimState: 0, VictimOp: &w1, F: 0},
			fp.CWBL(0), defect.FloatBitLine),
		// The mirror image for the down transition.
		partial("CFtr↓", "bit line",
			fp.TwoCellFP{AggState: 0, VictimState: 1, VictimOp: &w0, F: 1},
			fp.CWBL(1), defect.FloatBitLine),
		// A non-transition w0 flips the victim when the bit line floats
		// high under an aggressor at 1.
		partial("CFwd0", "bit line",
			fp.TwoCellFP{AggState: 1, VictimState: 0, VictimOp: &w0, F: 1},
			fp.CWBL(1), defect.FloatBitLine),
		// A victim r1 reads (and writes back) 0 when the floating output
		// buffer still holds a 0 and the aggressor sits at 0.
		partial("CFrd1", "output buffer",
			fp.TwoCellFP{AggState: 0, VictimState: 1, VictimOp: &r1, F: 0, R: fp.ReadResultOf(0)},
			fp.CWBL(0), defect.FloatOutBuffer),
		// A deceptive read: r0 returns the right value but leaves the
		// victim flipped when its bit line floated high.
		partial("CFdr0", "bit line",
			fp.TwoCellFP{AggState: 1, VictimState: 0, VictimOp: &r0, F: 1, R: fp.ReadResultOf(0)},
			fp.CWBL(1), defect.FloatBitLine),
		// An aggressor up-transition write disturbs a victim at 1 only
		// when the victim's bit line floats at 0.
		partial("CFds↑", "bit line",
			fp.TwoCellFP{AggState: 0, AggOp: &aw1, VictimState: 1, F: 0},
			fp.CWBL(0), defect.FloatBitLine),
		// Word-line-mediated partials have no completing operation.
		uncompletable("CFds↓",
			fp.TwoCellFP{AggState: 1, AggOp: &aw0, VictimState: 0, F: 1}),
		uncompletable("CFst",
			fp.TwoCellFP{AggState: 1, VictimState: 0, F: 1}),
	)
	return out
}

// elemTrace is the healthy state trace of one march element: the
// uniform state entering it, the per-op pre- and post-states of its
// block, and the state leaving it.
type elemTrace struct {
	in, out     int
	pres, posts []int
}

// traceTest flattens a test into per-element healthy traces and reports
// whether the test passes on a fault-free memory: no read ever expects
// a value the tracked healthy state contradicts (reads of unknown state
// match adversarially, exactly as in Test.Run).
func traceTest(t Test) ([]elemTrace, bool) {
	state := unknown
	healthy := true
	trs := make([]elemTrace, 0, len(t.Elements))
	for _, e := range t.Elements {
		et := elemTrace{in: state, pres: make([]int, 0, len(e.Ops)), posts: make([]int, 0, len(e.Ops))}
		for _, op := range e.Ops {
			et.pres = append(et.pres, state)
			if op.Read {
				if state != unknown && state != op.Data {
					healthy = false
				}
			} else {
				state = op.Data
			}
			et.posts = append(et.posts, state)
		}
		et.out = state
		trs = append(trs, et)
	}
	return trs, healthy
}

// cannotCompleteTwoCell statically proves, when it returns true, that
// the march test can never fire the catalog entry's coupling fault —
// for any geometry, any ⇑/⇓/⇕ order assignment, any (aggressor, victim)
// pair and either address relation — so DetectsTwoCellEntry is
// guaranteed to report "not detected". A false return claims nothing.
//
// The proof enumerates, per element, the realizable (aggressor state,
// victim state) combinations at each operation: the cell executing the
// current block walks its per-op healthy states, while the other cell
// of the pair holds the element's entry or exit state (its own block
// runs entirely before or entirely after the current address's). For
// partial entries the mediating line value is additionally constrained
// to the set of values a realizable immediately-preceding operation can
// have driven — the same-cell predecessor's value mid-block, or the
// current/previous element's exit state at block boundaries.
//
// Its only caller is twoCellCertificate, which fills the pinned
// ProvedMiss/Reason column with it. Every claim it makes is also a
// ProveDetectsTwoCell Misses verdict; it is retained only until a
// benchmark change re-pins the march-bitplane digest, after which the
// column can come from the prover and this proof can go.
func cannotCompleteTwoCell(t Test, e TwoCellCatalogEntry) (bool, string) {
	if err := t.Validate(); err != nil {
		return false, "" // no static claim about structurally invalid tests
	}
	trs, healthy := traceTest(t)
	if !healthy {
		// A test that fails on a fault-free memory "detects" every fault,
		// so "cannot fire" would not imply "cannot detect": claim nothing.
		return false, ""
	}
	if e.Uncompletable || (e.Partial && e.Float == defect.FloatWordLine) {
		return true, "the mediating floating voltage (word line) has no completing operation; the two-cell analogue of Table 1's \"Not possible\""
	}
	p := e.FP
	kind := p.Classify()
	if kind == fp.CFUnknown {
		return false, ""
	}
	// The line refinement only applies to operation-sensitized classes:
	// memsim evaluates their triggers against the line state *before* the
	// operation, which the predecessor analysis models. CFst is evaluated
	// after every operation; a partial CFst entry falls back to the
	// classical state-pair proof, which remains sound (the line condition
	// only further restricts firing).
	lineRefine := e.Comp != nil && kind != fp.CFst
	want := 0
	if lineRefine {
		want = e.Comp.Data
	}

	switch kind {
	case fp.CFst:
		// The fault fires when the pair simultaneously holds (AggState,
		// VictimState). While one cell walks a block, its states are the
		// block's entry state plus every post-op state; the other cell
		// holds the element's entry or exit state.
		for _, et := range trs {
			aggMid, vicMid := et.in == p.AggState, et.in == p.VictimState
			for _, s := range et.posts {
				if s == p.AggState {
					aggMid = true
				}
				if s == p.VictimState {
					vicMid = true
				}
			}
			aggBound := et.in == p.AggState || et.out == p.AggState
			vicBound := et.in == p.VictimState || et.out == p.VictimState
			if (aggMid && vicBound) || (aggBound && vicMid) {
				return false, ""
			}
		}
		return true, fmt.Sprintf("no reachable healthy state pair puts the aggressor at %d while the victim holds %d", p.AggState, p.VictimState)

	case fp.CFds:
		for ei, et := range trs {
			for oi, op := range t.Elements[ei].Ops {
				if !aggOpMatches(op, et.pres[oi], p) {
					continue
				}
				// The victim's block runs entirely before or after the
				// aggressor's in this element; both relations realizable.
				if et.in != p.VictimState && et.out != p.VictimState {
					continue
				}
				// A bit-line-mediated aggressor op may sit in or out of the
				// victim's column, so both predecessor kinds are reachable.
				if lineRefine && !lineCanHold(trs, ei, oi, et.pres[oi], want, e.Float == defect.FloatBitLine) {
					continue
				}
				return false, ""
			}
		}
		if lineRefine {
			return true, fmt.Sprintf("no aggressor %d%s coincides with a victim at %d while the %s can float at the completing %d", p.AggState, p.AggOp, p.VictimState, floatName(e.Float), want)
		}
		return true, fmt.Sprintf("no operation realizable beside a victim holding %d performs the aggressor %d%s", p.VictimState, p.AggState, p.AggOp)

	default: // victim-operation sensitized: CFtr, CFwd, CFrd, CFdr, CFir
		for ei, et := range trs {
			for oi, op := range t.Elements[ei].Ops {
				if !victimOpMatches(op, et.pres[oi], p) {
					continue
				}
				if et.in != p.AggState && et.out != p.AggState {
					continue
				}
				// The victim op sits in its own column, so mid-block the
				// line holds exactly the same-cell predecessor's value.
				if lineRefine && !lineCanHold(trs, ei, oi, et.pres[oi], want, false) {
					continue
				}
				return false, ""
			}
		}
		if lineRefine {
			return true, fmt.Sprintf("no sensitizing victim %d%s happens beside an aggressor at %d while the %s can float at the completing %d", p.VictimState, p.VictimOp, p.AggState, floatName(e.Float), want)
		}
		return true, fmt.Sprintf("no sensitizing victim %d%s happens while the aggressor can hold %d", p.VictimState, p.VictimOp, p.AggState)
	}
}

// aggOpMatches mirrors memsim's fireAggressorOp precondition on the
// healthy stream: the op must match the FP's aggressor operation with
// the aggressor pre-state equal to AggState (reads additionally require
// the stored value to equal the read's data). Unknown never matches.
func aggOpMatches(op Op, pre int, p fp.TwoCellFP) bool {
	ao := p.AggOp
	if ao == nil || op.Read != (ao.Kind == fp.OpRead) || pre != p.AggState {
		return false
	}
	if ao.Kind == fp.OpWrite {
		return op.Data == ao.Data
	}
	return pre == ao.Data
}

// victimOpMatches mirrors memsim's fireVictimWrite/fireVictimRead
// preconditions on the healthy stream.
func victimOpMatches(op Op, pre int, p fp.TwoCellFP) bool {
	vo := p.VictimOp
	if vo == nil || op.Read != (vo.Kind == fp.OpRead) {
		return false
	}
	if vo.Kind == fp.OpWrite {
		return op.Data == vo.Data && pre == p.VictimState
	}
	return pre == vo.Data && pre == p.VictimState
}

// lineCanHold reports whether the mediating floating line can hold
// `want` just before operation (ei, oi) under some geometry, order and
// address choice. Mid-block (oi > 0) the last driving operation on the
// line is the same cell's predecessor, whose driven value equals the
// current pre-state; when the sensitized cell may sit outside the
// line's column (offColumn), the last column operation is instead the
// tail of an earlier full block — the current element's exit state —
// or the previous element's. Block starts see only those two boundary
// values. Unknown exit states drive nothing and never match.
func lineCanHold(trs []elemTrace, ei, oi, pre, want int, offColumn bool) bool {
	if oi > 0 {
		if pre == want {
			return true
		}
		if !offColumn {
			return false
		}
	}
	if trs[ei].out == want {
		return true
	}
	if ei > 0 && trs[ei-1].out == want {
		return true
	}
	return false
}

// floatName renders the mediating line for reason strings.
func floatName(v defect.FloatVar) string {
	switch v {
	case defect.FloatOutBuffer:
		return "output buffer"
	case defect.FloatWordLine:
		return "word line"
	default:
		return "bit line"
	}
}
