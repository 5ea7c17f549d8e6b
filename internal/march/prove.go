package march

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/memsim"
)

// This file is the semantic half of the march static-analysis layer
// (lint.go is the structural half): a detection *prover*, the one
// static answer to "can this test detect this fault?". Rather than only
// the negative direction — "this fault can never fire, so the test
// cannot detect it" — it returns a three-valued verdict:
//
//   - VerdictDetects: on EVERY array geometry (rows ≥ 2, cols ≥ 2),
//     victim position and ⇕-order assignment, the test run yields at
//     least one mismatch — `Detects` is guaranteed true, with a proof
//     trace naming the sensitizing operation and the observing read.
//   - VerdictMisses: on every such scenario the run yields ZERO
//     mismatches — `Detects` is guaranteed false and the fault escapes
//     completely, with a witness scenario.
//   - VerdictUnknown: neither is proven. This is not a weakness of the
//     implementation alone: detection can genuinely depend on geometry
//     (partial detection), so a sound prover must have a third value.
//
// The engine is an abstract interpretation over victim *position
// classes* instead of concrete addresses. March semantics make every
// non-victim cell behave identically (the healthy per-element trace),
// so a scenario's outcome depends on the victim's position only through
// a finite abstraction: whether a same-column cell precedes/follows the
// victim in traversal order (who drives the victim's floating bit line
// at block boundaries) and whether any cell at all precedes/follows it
// (who drives the shared IO/output-buffer state). Five classes cover
// every victim position on every rows ≥ 2, cols ≥ 2 geometry:
//
//	(column top,  globally first)   address 0
//	(column top,  globally middle)  addresses 1..cols-1
//	(column mid,  globally middle)  rows ≥ 3 interior cells
//	(column bot,  globally middle)  addresses n-cols..n-2
//	(column bot,  globally last)    address n-1
//
// For each class × order assignment the interpreter replays the
// simulator's exact fault machine (the exported memsim.CompiledFault
// spec — no re-derived semantics) over the victim's operation stream,
// with the bit-line/IO state threaded through the non-victim phases via
// the healthy element traces. Each abstract run is *exact* for every
// concrete scenario in its class, so the prover is sound in both
// directions — and complete over the supported fault shapes, because
// all five classes are realizable within the quantified domain.
//
// Unsupported shapes (dynamic two-operation pairs, line-mediated state
// faults) return VerdictUnknown rather than guessing.

// Verdict is the three-valued outcome of the static detection prover.
type Verdict int

// Prover verdicts. The zero value is VerdictUnknown, so an absent or
// failed proof never silently claims anything.
const (
	VerdictUnknown Verdict = iota
	VerdictDetects
	VerdictMisses
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictDetects:
		return "Detects"
	case VerdictMisses:
		return "Misses"
	default:
		return "Unknown"
	}
}

// Symbol is the one-character matrix cell for certificates: D, M or ?.
func (v Verdict) Symbol() string {
	switch v {
	case VerdictDetects:
		return "D"
	case VerdictMisses:
		return "M"
	default:
		return "?"
	}
}

// ProofTrace locates the canonical sensitization and observation of a
// proved detection: the fault fires at op SensOp of element SensElem
// (SensOp = -1 when a state fault flips during other cells' operations
// of that element) and the first failing read is op ObsOp of element
// ObsElem.
type ProofTrace struct {
	SensElem, SensOp int
	ObsElem, ObsOp   int
}

// String renders "sensitized at element 2 op 1, observed at element 3 op 0".
func (p ProofTrace) String() string {
	sens := fmt.Sprintf("element %d op %d", p.SensElem, p.SensOp)
	if p.SensOp < 0 {
		sens = fmt.Sprintf("element %d (between blocks)", p.SensElem)
	}
	return fmt.Sprintf("sensitized at %s, observed at element %d op %d", sens, p.ObsElem, p.ObsOp)
}

// Proof is the prover's result: the verdict plus its evidence.
type Proof struct {
	Verdict Verdict
	// Trace carries the canonical sensitizing/observing pair of a
	// VerdictDetects (nil otherwise).
	Trace *ProofTrace
	// Witness describes a representative undetected scenario for
	// VerdictMisses, or the reason for VerdictUnknown.
	Witness string
	// Scenarios counts the abstract scenario classes examined and
	// Detecting how many of them yield at least one mismatch.
	Scenarios, Detecting int
}

// cellClass abstracts the victim's position: colPos / globalPos are
// 0 (top of column / globally first), 1 (middle), 2 (bottom / last).
type cellClass struct{ colPos, globalPos int }

// victimClasses are the five position classes realizable on rows ≥ 2,
// cols ≥ 2 arrays (globally-first forces column-top, last forces bottom).
var victimClasses = []cellClass{
	{0, 0}, {0, 1}, {1, 1}, {2, 1}, {2, 2},
}

// describe renders a class for witnesses.
func (c cellClass) describe() string {
	col := [3]string{"top of its column", "mid-column", "bottom of its column"}
	glob := [3]string{"globally first", "globally interior", "globally last"}
	return fmt.Sprintf("victim %s, %s", col[c.colPos], glob[c.globalPos])
}

// describeOrders renders a resolved assignment for witnesses.
func describeOrders(orders []Order) string {
	s := ""
	for _, o := range orders {
		s += o.String()
	}
	return s
}

// firstContradiction locates the first read that fails on a fault-free
// memory.
func firstContradiction(t Test) (int, int) {
	state := unknown
	for ei, e := range t.Elements {
		for oi, op := range e.Ops {
			if op.Read {
				if state != unknown && state != op.Data {
					return ei, oi
				}
			} else {
				state = op.Data
			}
		}
	}
	return 0, 0
}

func unknownProof(reason string) Proof {
	return Proof{Verdict: VerdictUnknown, Witness: reason}
}

// contradictoryDetects is the shared shortcut for tests that fail on a
// fault-free memory: every array of the domain has at least one healthy
// non-victim cell (rows·cols ≥ 4), whose contradictory read mismatches
// in every scenario regardless of the injected fault.
func contradictoryDetects(t Test, scenarios int) Proof {
	ei, oi := firstContradiction(t)
	return Proof{
		Verdict:   VerdictDetects,
		Trace:     &ProofTrace{SensElem: ei, SensOp: oi, ObsElem: ei, ObsOp: oi},
		Witness:   "the test fails on a fault-free memory, so every device mismatches regardless of the fault",
		Scenarios: scenarios, Detecting: scenarios,
	}
}

// runOutcome is one abstract run's result.
type runOutcome struct {
	fired, mismatched bool
	sensElem, sensOp  int
	obsElem, obsOp    int
}

func (r *runOutcome) noteFire(elem, op int) {
	if !r.fired {
		r.fired, r.sensElem, r.sensOp = true, elem, op
	}
}

func (r *runOutcome) noteMismatch(elem, op int) {
	if !r.mismatched {
		r.mismatched, r.obsElem, r.obsOp = true, elem, op
	}
}

// ProveDetects statically proves the test's detection verdict for a
// single-cell catalog entry, quantified over every rows ≥ 2, cols ≥ 2
// geometry, every victim address and every ⇕-order assignment.
func ProveDetects(t Test, e CatalogEntry) Proof {
	if err := t.Validate(); err != nil {
		return unknownProof(fmt.Sprintf("structurally invalid test: %v", err))
	}
	trs, healthy := traceTest(t)
	scenarios := len(victimClasses) * (1 << t.AnyCount())
	if !healthy {
		return contradictoryDetects(t, scenarios)
	}
	cf, err := memsim.CompileFault(e.Make(0))
	if err != nil {
		return unknownProof(fmt.Sprintf("fault does not compile: %v", err))
	}
	if cf.Dynamic {
		return unknownProof("dynamic (two-operation) FPs are outside the prover's abstract domain")
	}
	if cf.OpFree && (cf.Kind == memsim.TrigBitLine || cf.Kind == memsim.TrigIO) {
		return unknownProof("line-mediated state faults are outside the prover's abstract domain")
	}

	var trace *ProofTrace
	var missWitness string
	anyFire := false
	detecting := 0
	total := 0
	for _, orders := range t.ResolvedOrders() {
		for _, cl := range victimClasses {
			r := runSingleAbstract(t, trs, cf, orders, cl)
			total++
			if r.fired {
				anyFire = true
			}
			if r.mismatched {
				detecting++
				if trace == nil {
					trace = &ProofTrace{SensElem: r.sensElem, SensOp: r.sensOp, ObsElem: r.obsElem, ObsOp: r.obsOp}
					if !r.fired {
						// Should not happen on a healthy test; keep the
						// observation as its own sensitization.
						trace.SensElem, trace.SensOp = r.obsElem, r.obsOp
					}
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
		why := "the fault never fires in any scenario class"
		if anyFire {
			why = "the fault fires but no subsequent read ever observes the deviation"
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

// runSingleAbstract replays the compiled fault machine over one scenario
// class: the victim's own operations exactly, the non-victim phases via
// the healthy element traces. It mirrors memsim's Array.Read/Write hook
// order: operation-sensitized faults see the line state the *previous*
// operation left, lines update after the operation, and state faults act
// after every operation period.
func runSingleAbstract(t Test, trs []elemTrace, cf memsim.CompiledFault, orders []Order, cl cellClass) runOutcome {
	v, bl, io := unknown, unknown, unknown
	var hist []int
	var r runOutcome

	histPush := func(val int) {
		if cf.Kind != memsim.TrigVictimSeq {
			return
		}
		hist = append(hist, val)
		if len(hist) > len(cf.Seq) {
			hist = hist[len(hist)-len(cf.Seq):]
		}
	}
	armed := func() bool {
		switch cf.Kind {
		case memsim.TrigAlways:
			return true
		case memsim.TrigNever:
			return false
		case memsim.TrigBitLine:
			return bl == cf.Seq[len(cf.Seq)-1]
		case memsim.TrigIO:
			return io == cf.Seq[len(cf.Seq)-1]
		case memsim.TrigVictimSeq:
			if len(hist) < len(cf.Seq) {
				return false
			}
			for i, want := range cf.Seq {
				if hist[len(hist)-len(cf.Seq)+i] != want {
					return false
				}
			}
			return true
		}
		return false
	}
	initOK := func() bool { return cf.Init == unknown || v == cf.Init }
	// fireState applies an armed operation-free (state) fault; the flip
	// is idempotent, so applying it once per non-victim phase is exact.
	fireState := func(elem, op int) {
		if cf.OpFree && cf.Init != unknown && v == cf.Init && armed() {
			v = cf.FaultyF
			r.noteFire(elem, op)
		}
	}

	for ei := range t.Elements {
		up := orders[ei] == Up
		colPred := cl.colPos != 0
		colSucc := cl.colPos != 2
		globPred := cl.globalPos != 0
		globSucc := cl.globalPos != 2
		if !up {
			colPred, colSucc = colSucc, colPred
			globPred, globSucc = globSucc, globPred
		}

		// Phase A: every cell traversed before the victim runs its whole
		// block. The last driven value of a healthy block equals the
		// element's exit state (X drives nothing).
		if globPred {
			if out := trs[ei].out; out != unknown {
				io = out
				if colPred {
					bl = out
				}
			}
			fireState(ei, -1)
		}

		// Phase B: the victim's own block, replayed exactly.
		for oi, op := range t.Elements[ei].Ops {
			if op.Read {
				stored := v
				out := stored
				if !cf.OpFree && cf.FinalRead && stored == cf.FinalData && initOK() && armed() {
					out = cf.FaultyR
					v = cf.FaultyF
					r.noteFire(ei, oi)
				}
				if out != unknown && out != op.Data {
					r.noteMismatch(ei, oi)
				}
				histPush(v) // reads record the restored cell value
				if v != unknown {
					bl = v
				}
				if out != unknown {
					io = out
				}
			} else {
				result := op.Data
				if !cf.OpFree && !cf.FinalRead && op.Data == cf.FinalData && initOK() && armed() {
					result = cf.FaultyF
					r.noteFire(ei, oi)
				}
				histPush(op.Data) // writes record the written value
				v = result
				// The write driver forces both lines to the written value
				// even when the fault diverts the stored state.
				bl = op.Data
				io = op.Data
			}
			fireState(ei, oi)
		}

		// Phase C: cells traversed after the victim. When no same-column
		// cell follows, the bit line keeps the victim's own tail value —
		// the carryover the next element's block start sees.
		if globSucc {
			if out := trs[ei].out; out != unknown {
				io = out
				if colSucc {
					bl = out
				}
			}
			fireState(ei, len(t.Elements[ei].Ops)-1)
		}
	}
	return r
}
