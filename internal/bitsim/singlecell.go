package bitsim

import (
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
)

// scRun evaluates one compiled single-cell fault over all victim lanes
// of a lane set, one order assignment per run. A lane is the
// scenario "fault at a victim of its class"; the planes hold the
// scenario's victim-visible state. The kernels mirror memsim's hook
// order exactly: sensitized fire hooks see the pre-operation line
// state, the victim-history recorder sees write data / restored read
// values, line updates follow, and state faults fire after every
// operation period.
type scRun struct {
	g    geom
	l    *lanes
	spec memsim.CompiledFault
	// buf backs every plane and word buffer below; reset zeroes it.
	buf []uint64

	// V is the victim cell; BL and IO are the floating bit-line and
	// output-buffer values as the victim's trigger sees them.
	V, BL, IO plane
	// hist is the victim operation-value ring (TrigVictimSeq only),
	// oldest first; histCnt counts recorded victim operations.
	hist    []plane
	histCnt int
	// prev* track the globally previous operation for dynamic pairs:
	// prevAt masks lanes whose previous operation was at their victim.
	prevValid, prevIsWrite bool
	prevAt                 []uint64
	prevData, prevPre      plane
	// det accumulates caught lanes.
	det []uint64
	// out is the read-output scratch plane.
	out plane
	// t1..t4 are word scratch buffers.
	t1, t2, t3, t4 []uint64
}

// newSCRun cuts a run's planes and word buffers from one backing array.
// One run serves every order assignment of a call: run resets it first.
func newSCRun(g geom, l *lanes, spec memsim.CompiledFault) *scRun {
	// V, BL, IO and out, plus det and t1..t4; then the history ring and
	// the previous-operation state where the fault needs them.
	nPlanes, nWords := 4, 5
	if spec.Kind == memsim.TrigVictimSeq {
		nPlanes += len(spec.Seq)
	}
	if spec.Dynamic {
		nPlanes, nWords = nPlanes+2, nWords+1
	}
	buf := make([]uint64, (2*nPlanes+nWords)*l.w)
	a := arena{rest: buf, w: l.w}
	r := &scRun{
		g: g, l: l, spec: spec, buf: buf,
		V: a.plane(), BL: a.plane(), IO: a.plane(), out: a.plane(),
		det: a.words(), t1: a.words(), t2: a.words(), t3: a.words(), t4: a.words(),
	}
	if spec.Kind == memsim.TrigVictimSeq {
		r.hist = make([]plane, len(spec.Seq))
		for i := range r.hist {
			r.hist[i] = a.plane()
		}
	}
	if spec.Dynamic {
		r.prevAt, r.prevData, r.prevPre = a.words(), a.plane(), a.plane()
	}
	return r
}

// reset returns the run to the state every walk starts from: every
// plane X (a zeroed plane is X in every lane, history included), no
// caught lane, no recorded victim operation and no previous operation.
func (r *scRun) reset() {
	wzero(r.buf)
	r.histCnt = 0
	r.prevValid, r.prevIsWrite = false, false
}

// armedNow writes the trigger's armed mask for the current hidden
// state (exact: used at victim operations and their state-fault
// periods).
func (r *scRun) armedNow(dst []uint64) {
	switch r.spec.Kind {
	case memsim.TrigAlways:
		wfill(dst)
	case memsim.TrigNever:
		wzero(dst)
	case memsim.TrigBitLine:
		r.BL.eq(r.spec.Seq[len(r.spec.Seq)-1], dst)
	case memsim.TrigIO:
		r.IO.eq(r.spec.Seq[len(r.spec.Seq)-1], dst)
	case memsim.TrigVictimSeq:
		r.histMatch(dst)
	default:
		wzero(dst)
	}
}

func (r *scRun) histMatch(dst []uint64) {
	if r.histCnt < len(r.spec.Seq) {
		wzero(dst)
		return
	}
	wfill(dst)
	for i, want := range r.spec.Seq {
		r.hist[i].eq(want, r.t4)
		wand(dst, r.t4)
	}
}

func (r *scRun) pushHist(record func(plane)) {
	if r.spec.Kind != memsim.TrigVictimSeq {
		return
	}
	h0 := r.hist[0]
	copy(r.hist, r.hist[1:])
	r.hist[len(r.hist)-1] = h0
	record(h0)
	r.histCnt++
}

// initSat writes the victim-state precondition mask.
func (r *scRun) initSat(dst []uint64) {
	if r.spec.Init == memsim.X {
		wfill(dst)
		return
	}
	r.V.eq(r.spec.Init, dst)
}

// dynGate writes the dynamic-pair adjacency gate: the globally previous
// operation was the pair's first operation at the victim.
func (r *scRun) dynGate(dst []uint64) {
	if !r.spec.Dynamic {
		wfill(dst)
		return
	}
	if !r.prevValid || r.prevIsWrite != r.spec.DynWrite {
		wzero(dst)
		return
	}
	copy(dst, r.prevAt)
	r.prevData.eq(r.spec.DynData, r.t4)
	wand(dst, r.t4)
	if r.spec.DynPre != memsim.X {
		r.prevPre.eq(r.spec.DynPre, r.t4)
		wand(dst, r.t4)
	}
}

// fireStatePeriod applies an armed state fault after an operation
// period (memsim's applyStateFaults at a victim operation).
func (r *scRun) fireStatePeriod() {
	if !r.spec.OpFree || r.spec.Init == memsim.X || r.spec.Kind == memsim.TrigNever {
		return
	}
	r.armedNow(r.t1)
	r.initSat(r.t2)
	wand(r.t1, r.t2)
	r.V.setConstWhere(r.t1, r.spec.FaultyF)
}

// segArmed computes "armed at some post-operation moment of the
// segment" for a line trigger, over the fault-free passes before
// (segment A) or after (segment B) the victim pass. carry is the line
// value entering the segment; frozen selects lanes whose line receives
// no drive in the segment (bit line in the boundary row), where the
// condition degenerates to carry == want.
func (r *scRun) segArmed(dst []uint64, carry plane, e ffElem, frozen []uint64, want int) {
	anyEq := false
	for _, op := range e.ops {
		if op.driven == want {
			anyEq = true
			break
		}
	}
	d1Unknown := e.ops[0].driven == memsim.X
	switch {
	case anyEq:
		// Some known drive in every pass attains want.
		wfill(dst)
	case d1Unknown:
		// No known drive equals want; the carry value is still observable
		// after the pass's leading unknown drives.
		carry.eq(want, dst)
	default:
		wzero(dst)
	}
	if frozen != nil {
		// Frozen lanes only ever observe the carry.
		carry.eq(want, r.t4)
		for i := range dst {
			dst[i] = (dst[i] &^ frozen[i]) | (r.t4[i] & frozen[i])
		}
	}
}

// fireStateSegment fires a state fault over the operation periods of a
// fault-free segment: the addresses visited before (pre=true) or after
// the victim in this element. The victim cell is constant across the
// segment, so one evaluation with "armed at some checkpoint" is exact;
// re-firing an already-fired fault is idempotent.
func (r *scRun) fireStateSegment(e ffElem, m orderMasks, pre bool) {
	if !r.spec.OpFree || r.spec.Init == memsim.X || r.spec.Kind == memsim.TrigNever {
		return
	}
	// exist: lanes with at least one operation period in the segment.
	exist := r.t3
	if pre {
		wnot(exist, m.firstBit)
	} else {
		wnot(exist, m.lastBit)
	}
	armed := r.t1
	switch r.spec.Kind {
	case memsim.TrigAlways:
		wfill(armed)
	case memsim.TrigVictimSeq:
		// Victim operations only happen in the victim pass, so the
		// history — and the match — is constant across the segment.
		r.histMatch(armed)
	case memsim.TrigIO:
		r.segArmed(armed, r.IO, e, nil, r.spec.Seq[len(r.spec.Seq)-1])
	case memsim.TrigBitLine:
		frozen := m.firstRow
		if !pre {
			frozen = m.lastRow
		}
		r.segArmed(armed, r.BL, e, frozen, r.spec.Seq[len(r.spec.Seq)-1])
	}
	wand(armed, exist)
	r.initSat(r.t2)
	wand(armed, r.t2)
	r.V.setConstWhere(armed, r.spec.FaultyF)
}

// arriveLines turns the end-of-previous-element line planes into the
// values each lane sees when its own pass begins: the walk-first lane
// (and, for the bit line, the first-visited row) keeps the carry, every
// other lane inherits the last known drive of a completed fault-free
// pass.
func arriveLines(BL, IO plane, e ffElem, m orderMasks, scratch []uint64) {
	if e.tail == memsim.X {
		return
	}
	wnot(scratch, m.firstBit)
	IO.setConstWhere(scratch, e.tail)
	wnot(scratch, m.firstRow)
	BL.setConstWhere(scratch, e.tail)
}

// endLines turns the post-victim line planes into end-of-element
// values: the walk-last lane (and last-visited row) keeps its
// post-victim state, every other lane sees the trailing fault-free
// passes drive the line.
func endLines(BL, IO plane, e ffElem, m orderMasks, scratch []uint64) {
	if e.tail == memsim.X {
		return
	}
	wnot(scratch, m.lastBit)
	IO.setConstWhere(scratch, e.tail)
	wnot(scratch, m.lastRow)
	BL.setConstWhere(scratch, e.tail)
}

// victimOp runs one operation of the victim pass on every lane.
func (r *scRun) victimOp(op ffOp) {
	spec := &r.spec
	r.armedNow(r.t1)
	fire := r.t2
	wzero(fire)
	if !op.read {
		if !spec.OpFree && !spec.FinalRead && op.data == spec.FinalData {
			copy(fire, r.t1)
			r.dynGate(r.t3)
			wand(fire, r.t3)
			r.initSat(r.t3)
			wand(fire, r.t3)
		}
		if spec.Dynamic {
			r.prevPre.copyFrom(r.V)
		}
		r.V.setConst(op.data)
		r.V.setConstWhere(fire, spec.FaultyF)
		r.pushHist(func(h plane) { h.setConst(op.data) })
		r.BL.setConst(op.data)
		r.IO.setConst(op.data)
		if spec.Dynamic {
			r.prevValid, r.prevIsWrite = true, true
			r.prevData.setConst(op.data)
			wfill(r.prevAt)
		}
	} else {
		if !spec.OpFree && spec.FinalRead && op.data == spec.FinalData {
			copy(fire, r.t1)
			r.dynGate(r.t3)
			wand(fire, r.t3)
			r.initSat(r.t3)
			wand(fire, r.t3)
			r.V.eq(spec.FinalData, r.t3)
			wand(fire, r.t3)
		}
		if spec.Dynamic {
			r.prevPre.copyFrom(r.V)
		}
		r.out.copyFrom(r.V)
		r.out.setConstWhere(fire, spec.FaultyR)
		r.V.setConstWhere(fire, spec.FaultyF)
		// A known output differing from the expectation is a detection.
		r.out.eq(1-op.data, r.t3)
		wor(r.det, r.t3)
		r.pushHist(func(h plane) { h.copyFrom(r.V) })
		// The restored cell drives the bit line, the output the IO path;
		// unknowns leave the floating value in place.
		r.BL.setPlaneWhere(r.V.k, r.V)
		r.IO.setPlaneWhere(r.out.k, r.out)
		if spec.Dynamic {
			r.prevValid, r.prevIsWrite = true, false
			r.prevData.copyFrom(r.V)
			wfill(r.prevAt)
		}
	}
	r.fireStatePeriod()
}

// element advances the run through one march element walked in order o.
func (r *scRun) element(e ffElem, o march.Order) {
	m := r.l.masks(o)
	// Segment A: fault-free passes before the victim pass. State faults
	// may fire at any of their operation periods; line values evolve
	// from the end-of-previous-element planes.
	r.fireStateSegment(e, m, true)
	// Victim-pass arrival values.
	arriveLines(r.BL, r.IO, e, m, r.t1)
	if r.spec.Dynamic {
		// Only the walk-first lane can see the previous element's final
		// operation as its immediate predecessor.
		wand(r.prevAt, m.firstBit)
	}
	for _, op := range e.ops {
		r.victimOp(op)
	}
	// Segment B: fault-free passes after the victim pass.
	r.fireStateSegment(e, m, false)
	// End-of-element line planes.
	endLines(r.BL, r.IO, e, m, r.t1)
	if r.spec.Dynamic {
		// The element's globally last operation happened at the walk-last
		// address; only that lane enters the next element with a
		// previous-operation-at-victim record.
		r.l.bitMask(r.g.lastAddr(o), r.prevAt)
	}
}

// run resets the run and evaluates one walk's detection bitmap over the
// lane set: bit i is set when the scenarios of lane i yield at least
// one mismatch. The bitmap is the run's own; the next run overwrites
// it. A mask that split a class is an error.
func (r *scRun) run(w walk) ([]uint64, error) {
	r.reset()
	for i, e := range w.elems {
		r.element(e, w.orders[i])
	}
	if w.mm && r.g.n > 1 {
		// A fault-free mismatch occurs at every address; any scenario
		// with at least one non-victim cell is caught.
		wfill(r.det)
	}
	r.l.laneMask(r.t1)
	wand(r.det, r.t1)
	return r.det, r.l.err
}
