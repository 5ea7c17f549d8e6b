package bitsim

import (
	"fmt"
	"math"

	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
)

// Two-cell coupling faults evaluate per aggressor *offset*: one pass
// over the lanes handles every (victim v, aggressor v+δ) pair at once.
// The aggressor cell is always fault-free, so its value is a scalar
// whose phase depends only on whether the walk visits the aggressor
// before or after the victim — (order == Up) == (δ < 0) — which is
// uniform across lanes for a fixed δ. Shifted range masks express the
// per-lane boundary cases (aggressor at the walk edge, aggressor's
// column position); geom.twoCellCuts lists their bounds, so the lane
// set of an offset never splits a class.

// tcSpec is the compiled two-cell fault: the memsim spec plus the
// primitive it was compiled from.
type tcSpec struct {
	kind fp.CFKind
	trig memsim.TriggerKind
	comp int
	p    fp.TwoCellFP
}

func compileTwoCell(entry march.TwoCellCatalogEntry) (tcSpec, error) {
	c, err := memsim.CompileTwoCellFault(entry.Make(0, 1))
	if err != nil {
		return tcSpec{}, err
	}
	if c.Kind == fp.CFst && (c.Trig == memsim.TrigBitLine || c.Trig == memsim.TrigIO) {
		// State coupling is evaluated after every operation has driven
		// the lines; the catalog deliberately has no line-mediated CFst
		// (see memsim/twocell.go), and the bit-plane engine does not
		// model the combination rather than risk a silent divergence.
		// Wrapping ErrEngineUnsupported tells callers that this engine
		// refuses the entry, rather than failing to evaluate it.
		return tcSpec{}, fmt.Errorf("bitsim: line-mediated CFst (%s): %w", entry.Name, march.ErrEngineUnsupported)
	}
	return tcSpec{kind: c.Kind, trig: c.Trig, comp: c.Comp, p: entry.FP}, nil
}

// tcRun evaluates one compiled coupling fault for one aggressor offset
// over all victim lanes of a lane set, for one order assignment.
type tcRun struct {
	g     geom
	l     *lanes
	s     tcSpec
	delta int

	V, BL, IO plane
	// lineAgg is the mediating line value as seen at aggressor
	// operations (bit line or IO path, per the trigger kind).
	lineAgg plane
	out     plane
	det     []uint64
	// valid masks lanes whose aggressor v+δ is inside the array.
	valid          []uint64
	t1, t2, t3, t4 []uint64
}

func newTCRun(g geom, l *lanes, s tcSpec, delta int) *tcRun {
	w := l.w
	r := &tcRun{
		g: g, l: l, s: s, delta: delta,
		V: newPlane(w), BL: newPlane(w), IO: newPlane(w),
		lineAgg: newPlane(w), out: newPlane(w),
		det: make([]uint64, w), valid: make([]uint64, w),
		t1: make([]uint64, w), t2: make([]uint64, w),
		t3: make([]uint64, w), t4: make([]uint64, w),
	}
	r.V.setConst(memsim.X)
	r.BL.setConst(memsim.X)
	r.IO.setConst(memsim.X)
	l.rangeMask(-delta, g.n-delta, r.valid)
	return r
}

// armedNow writes the mediating-line trigger mask at the victim's
// current line view (pre-operation, as the fire hooks see it).
func (r *tcRun) armedNow(dst []uint64) {
	switch r.s.trig {
	case memsim.TrigAlways:
		wfill(dst)
	case memsim.TrigBitLine:
		r.BL.eq(r.s.comp, dst)
	case memsim.TrigIO:
		r.IO.eq(r.s.comp, dst)
	default:
		wzero(dst)
	}
}

// cfstCheck applies state coupling at an operation-period checkpoint:
// the aggressor holds aggVal (a fault-free scalar), the victim plane is
// current. Re-checking an unchanged (aggressor, victim) condition is
// idempotent, so checkpoints only need to cover every distinct phase.
func (r *tcRun) cfstCheck(aggVal int) {
	if r.s.kind != fp.CFst || r.s.trig != memsim.TrigAlways {
		return
	}
	if aggVal != r.s.p.AggState {
		return
	}
	r.V.eq(r.s.p.VictimState, r.t1)
	wand(r.t1, r.valid)
	r.V.setConstWhere(r.t1, r.s.p.F)
}

// aggOpMatches mirrors memsim's fireAggressorOp operation gate for a
// fault-free aggressor with pre-operation value fpre.
func (r *tcRun) aggOpMatches(op ffOp, fpre int) bool {
	ao := r.s.p.AggOp
	if (ao.Kind == fp.OpWrite) != !op.read {
		return false
	}
	if fpre != r.s.p.AggState {
		return false
	}
	if ao.Kind == fp.OpWrite && ao.Data != op.data {
		return false
	}
	if ao.Kind == fp.OpRead && fpre != ao.Data {
		return false
	}
	return true
}

// colPredMask writes the lanes whose column contains at least one
// address the walk visits before the aggressor — the different-column
// arrival condition for the victim's bit line as seen at aggressor
// operations.
func (r *tcRun) colPredMask(o march.Order, dst []uint64) {
	a, b := r.g.colPredRange(o, r.delta)
	r.l.rangeMask(a, b, dst)
}

// aggLineArrive computes the mediating line value each lane's trigger
// sees when its aggressor's pass begins. before says whether the walk
// visits the aggressor before the victim.
func (r *tcRun) aggLineArrive(e ffElem, before bool) {
	tail := e.tail
	d := r.delta
	abs := d
	if abs < 0 {
		abs = -abs
	}
	if r.s.trig == memsim.TrigIO {
		if before {
			// Every predecessor of the aggressor is fault-free.
			if tail == memsim.X {
				r.lineAgg.copyFrom(r.IO)
				return
			}
			r.lineAgg.setConst(tail)
			// The lane whose aggressor is walk-first keeps the carry.
			r.l.bitMask(r.g.firstAddr(e.order)-d, r.t4)
			r.lineAgg.setPlaneWhere(r.t4, r.IO)
		} else {
			// The victim's own pass is among the predecessors; a full
			// fault-free pass sits in between iff the walk distance
			// exceeds one.
			if abs >= 2 && tail != memsim.X {
				r.lineAgg.setConst(tail)
			} else {
				r.lineAgg.copyFrom(r.IO)
			}
		}
		return
	}
	// TrigBitLine.
	cols := r.g.cols
	if d%cols == 0 {
		// Same column: aggressor operations drive the victim's bit line.
		if before {
			if tail == memsim.X {
				r.lineAgg.copyFrom(r.BL)
				return
			}
			r.lineAgg.setConst(tail)
			// Lanes whose aggressor sits in the first-visited row have no
			// column predecessor and keep the carry.
			a, b := r.g.firstRowRange(e.order)
			r.l.rangeMask(a-d, b-d, r.t4)
			r.lineAgg.setPlaneWhere(r.t4, r.BL)
		} else {
			// A fault-free same-column pass sits between victim and
			// aggressor iff they are at least two rows apart.
			if abs >= 2*cols && tail != memsim.X {
				r.lineAgg.setConst(tail)
			} else {
				r.lineAgg.copyFrom(r.BL)
			}
		}
		return
	}
	// Different column: aggressor operations never drive the victim's
	// bit line, so the arrival value holds through the aggressor pass.
	if before {
		r.lineAgg.copyFrom(r.BL)
		if tail != memsim.X {
			r.colPredMask(e.order, r.t4)
			r.lineAgg.setConstWhere(r.t4, tail)
		}
	} else {
		// The victim itself is a column predecessor; a fault-free
		// column pass sits in between iff the walk distance exceeds the
		// column period.
		if abs > cols && tail != memsim.X {
			r.lineAgg.setConst(tail)
		} else {
			r.lineAgg.copyFrom(r.BL)
		}
	}
}

// aggPass runs the aggressor's pass: CFds fires at matching aggressor
// operations, CFst checks every operation period the aggressor's value
// changes through.
func (r *tcRun) aggPass(e ffElem, before bool) {
	needDs := r.s.kind == fp.CFds && r.s.p.AggOp != nil && r.s.trig != memsim.TrigNever
	needSt := r.s.kind == fp.CFst && r.s.trig == memsim.TrigAlways
	if !needDs && !needSt {
		return
	}
	lineTrig := r.s.trig == memsim.TrigBitLine || r.s.trig == memsim.TrigIO
	if needDs && lineTrig {
		r.aggLineArrive(e, before)
	}
	sameCol := r.delta%r.g.cols == 0
	if needSt && before {
		// Element-boundary phase (idempotent with the previous element's
		// last checkpoint).
		r.cfstCheck(e.ops[0].pre)
	}
	for _, op := range e.ops {
		fpre := op.pre
		if needDs && r.aggOpMatches(op, fpre) {
			fire := r.t1
			if lineTrig {
				r.lineAgg.eq(r.s.comp, fire)
			} else {
				wfill(fire)
			}
			r.V.eq(r.s.p.VictimState, r.t2)
			wand(fire, r.t2)
			wand(fire, r.valid)
			r.V.setConstWhere(fire, r.s.p.F)
		}
		if needDs && lineTrig && op.driven != memsim.X {
			// The operation drives the IO path always, the victim's bit
			// line only from the same column.
			if r.s.trig == memsim.TrigIO || sameCol {
				r.lineAgg.setConst(op.driven)
			}
		}
		if needSt {
			r.cfstCheck(op.post)
		}
	}
}

// victimPass runs the victim's own pass with the aggressor frozen at
// its phase value.
func (r *tcRun) victimPass(e ffElem, aggVal int) {
	p := &r.s.p
	aggMatch := aggVal == p.AggState
	for _, op := range e.ops {
		fire := r.t2
		wzero(fire)
		if !op.read {
			if (r.s.kind == fp.CFtr || r.s.kind == fp.CFwd) && p.VictimOp != nil &&
				p.VictimOp.Kind == fp.OpWrite && p.VictimOp.Data == op.data && aggMatch {
				r.armedNow(r.t1)
				r.V.eq(p.VictimState, fire)
				wand(fire, r.t1)
				wand(fire, r.valid)
			}
			r.V.setConst(op.data)
			r.V.setConstWhere(fire, p.F)
			r.BL.setConst(op.data)
			r.IO.setConst(op.data)
		} else {
			if (r.s.kind == fp.CFrd || r.s.kind == fp.CFdr || r.s.kind == fp.CFir) && p.VictimOp != nil &&
				p.VictimOp.Kind == fp.OpRead && p.VictimOp.Data == op.data && aggMatch {
				r.armedNow(r.t1)
				r.V.eq(op.data, fire)
				wand(fire, r.t1)
				r.V.eq(p.VictimState, r.t3)
				wand(fire, r.t3)
				wand(fire, r.valid)
			}
			r.out.copyFrom(r.V)
			if rb, ok := p.R.Bit(); ok {
				r.out.setConstWhere(fire, rb)
			}
			r.V.setConstWhere(fire, p.F)
			r.out.eq(1-op.data, r.t3)
			wor(r.det, r.t3)
			r.BL.setPlaneWhere(r.V.k, r.V)
			r.IO.setPlaneWhere(r.out.k, r.out)
		}
		r.cfstCheck(aggVal)
	}
}

func (r *tcRun) element(e ffElem) {
	m := r.l.masks(e.order)
	aggBefore := (e.order == march.Up) == (r.delta < 0)
	if aggBefore {
		r.aggPass(e, true)
		arriveLines(r.BL, r.IO, e, m, r.t1)
		r.victimPass(e, e.ops[len(e.ops)-1].post)
	} else {
		r.cfstCheck(e.ops[0].pre)
		arriveLines(r.BL, r.IO, e, m, r.t1)
		r.victimPass(e, e.ops[0].pre)
		r.aggPass(e, false)
	}
	endLines(r.BL, r.IO, e, m, r.t1)
}

// runTwoCell evaluates one (assignment, offset) detection bitmap over a
// lane set: bit i set means the pairs (v, v+δ) of lane i were caught. A
// mask that split a class is an error.
func runTwoCell(g geom, l *lanes, s tcSpec, delta int, elems []ffElem) ([]uint64, error) {
	r := newTCRun(g, l, s, delta)
	ffMM := false
	for _, e := range elems {
		r.element(e)
		ffMM = ffMM || e.mm
	}
	if ffMM {
		// Pair scenarios always have a fault-free non-victim cell.
		wfill(r.det)
	}
	wand(r.det, r.valid)
	return r.det, l.err
}

// DetectsTwoCell evaluates a two-cell catalog entry over all ordered
// (victim, aggressor) pairs and ⇕-order assignments, with verdicts
// identical to the scalar engine's. Every offset δ ∈ [-(n-1), n-1]\{0}
// runs as its own plane pass, so this is exact but O(n) passes; for
// megabit geometries use DetectsTwoCellOffsets with a neighbor set.
func (e *Engine) DetectsTwoCell(t march.Test, rows, cols int, entry march.TwoCellCatalogEntry) (march.Detection, error) {
	g, err := checkGeometry(t, rows, cols)
	if err != nil {
		return march.Detection{}, err
	}
	// Count the n(n−1) ordered pairs before building their offsets.
	if g.n-1 > math.MaxInt/g.n || g.n*(g.n-1) > math.MaxInt/len(t.OrderAssignments()) {
		return march.Detection{}, g.errCount()
	}
	offsets := make([]int, 0, 2*(g.n-1))
	for d := -(g.n - 1); d <= g.n-1; d++ {
		if d != 0 {
			offsets = append(offsets, d)
		}
	}
	return e.detectsTwoCellOffsets(g, t, entry, offsets)
}

// DetectsTwoCellOffsets evaluates a two-cell entry restricted to the
// given aggressor offsets (aggressor = victim + δ; δ = ±1 and ±cols
// cover physical neighbors). Scenarios counts only in-array pairs.
func (e *Engine) DetectsTwoCellOffsets(t march.Test, rows, cols int, entry march.TwoCellCatalogEntry, offsets []int) (march.Detection, error) {
	g, err := checkGeometry(t, rows, cols)
	if err != nil {
		return march.Detection{}, err
	}
	if err := march.CheckOffsets(offsets); err != nil {
		return march.Detection{}, fmt.Errorf("bitsim: %w", err)
	}
	return e.detectsTwoCellOffsets(g, t, entry, offsets)
}

func (e *Engine) detectsTwoCellOffsets(g geom, t march.Test, entry march.TwoCellCatalogEntry, offsets []int) (march.Detection, error) {
	s, err := compileTwoCell(entry)
	if err != nil {
		return march.Detection{}, err
	}
	if len(offsets) == 0 || g.n < 2 {
		return march.Detection{}, nil
	}
	ts := traces(t)
	caught, total := 0, 0
	for _, d := range offsets {
		pairs := max(g.n-max(d, -d), 0) // in-array pairs of offset δ
		if pairs > (math.MaxInt-total)/len(ts) {
			return march.Detection{}, g.errCount()
		}
		l := newLanes(g, g.twoCellCuts(d))
		for _, elems := range ts {
			det, err := runTwoCell(g, l, s, d, elems)
			if err != nil {
				return march.Detection{}, err
			}
			caught += l.count(det)
			total += pairs
		}
	}
	return detection(caught, total), nil
}
