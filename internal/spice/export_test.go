package spice

import (
	"fmt"
	"math"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/numeric"
)

// WatchAudit checks every Jacobian an engine assembles before the engine
// factorizes it. It holds the nonlinear stamps' context to the
// circuit.StampContext contract, and it replays the Jacobian through two
// shadow workspaces that see the engine's bases: one watches the
// engine's stamp candidates, as the engine's own workspace does, and one
// watches every position, the full scan the candidates replace.
type WatchAudit struct {
	e             *Engine
	watched, full *numeric.Workspace
	all           []int
	cand          []bool
	base          []float64 // the base last installed in the shadows

	// Factorizations counts the Jacobians checked, and Growths those
	// that widened the learned pattern.
	Factorizations, Growths uint64
	// Err is the first failed check.
	Err error
}

// AuditWatch wraps e's last nonlinear element, so that the audit sees
// each Newton iteration's Jacobian once every nonlinear element has
// stamped it. Call it before the engine's first solve.
func AuditWatch(e *Engine) *WatchAudit {
	nf := len(e.free)
	a := &WatchAudit{
		e:       e,
		watched: numeric.NewWorkspace(nf),
		full:    numeric.NewWorkspace(nf),
		all:     make([]int, nf*nf),
		cand:    make([]bool, nf*nf),
	}
	for p := range a.all {
		a.all[p] = p
	}
	for _, p := range e.cands {
		a.cand[p] = true
	}
	last := len(e.dynamic) - 1
	e.dynamic[last] = auditedElement{e.dynamic[last], a}
	return a
}

type auditedElement struct {
	circuit.Element
	a *WatchAudit
}

func (s auditedElement) Stamp(ctx *circuit.StampContext) {
	s.Element.Stamp(ctx)
	if s.a.Err == nil {
		s.a.Err = s.a.check(ctx)
	}
}

// check holds one assembled Jacobian to the audit's invariants: the
// stamps' context kept its contract, no nonlinear stamp wrote outside
// the candidates, and the watched check widens the pattern exactly when
// the full scan does.
func (a *WatchAudit) check(ctx *circuit.StampContext) error {
	e, nf := a.e, len(a.e.free)
	asm, base := ctx.A, e.aRedS.Data()
	if err := a.contract(ctx); err != nil {
		return err
	}
	if !sameBits(a.base, base) {
		a.base = append(a.base[:0], base...)
		gw, gf := a.watched.PatternGrowths(), a.full.PatternGrowths()
		a.watched.SetBase(e.aRedS, e.cands)
		a.full.SetBase(e.aRedS, a.all)
		if dw, df := a.watched.PatternGrowths()-gw, a.full.PatternGrowths()-gf; dw != df {
			return fmt.Errorf("factorization %d: a base grew the watching pattern %d times, the full scan's %d", a.Factorizations, dw, df)
		}
	}
	if got, want := e.ws.PatternGrowths(), a.watched.PatternGrowths(); got != want {
		return fmt.Errorf("factorization %d: the engine's workspace grew %d times, its watching shadow %d", a.Factorizations, got, want)
	}
	for p, v := range asm.Data() {
		if !a.cand[p] && math.Float64bits(v) != math.Float64bits(base[p]) {
			return fmt.Errorf("factorization %d: a nonlinear stamp wrote (%s, %s), outside every footprint",
				a.Factorizations, a.unknown(p/nf), a.unknown(p%nf))
		}
	}
	gw, gf := a.watched.PatternGrowths(), a.full.PatternGrowths()
	ew, ef := assembleCopy(a.watched, asm), assembleCopy(a.full, asm)
	if ew != ef {
		return fmt.Errorf("factorization %d: watching error %v, full scan %v", a.Factorizations, ew, ef)
	}
	dw, df := a.watched.PatternGrowths()-gw, a.full.PatternGrowths()-gf
	if dw != df {
		return fmt.Errorf("factorization %d: the watched check grew the pattern %d times, the full scan %d", a.Factorizations, dw, df)
	}
	a.Factorizations++
	a.Growths += dw
	return nil
}

// contract checks what circuit.StampContext promises the nonlinear
// stamps, on which a cut-off MOSFET's skipped stamp rests: neither the
// base nor the right-hand side they start from holds a −0, and X equals
// PinnedX at every pinned node.
func (a *WatchAudit) contract(ctx *circuit.StampContext) error {
	e, nf := a.e, len(a.e.free)
	negZero := math.Float64bits(math.Copysign(0, -1))
	for p, v := range e.aRedS.Data() {
		if math.Float64bits(v) == negZero {
			return fmt.Errorf("factorization %d: the base holds −0 at (%s, %s)",
				a.Factorizations, a.unknown(p/nf), a.unknown(p%nf))
		}
	}
	for fi, v := range e.bRedBase {
		if math.Float64bits(v) == negZero {
			return fmt.Errorf("factorization %d: the right-hand side holds −0 in row %s", a.Factorizations, a.unknown(fi))
		}
	}
	for _, p := range e.pinned {
		if x, px := ctx.X[p.node-1], ctx.PinnedX[p.node-1]; math.Float64bits(x) != math.Float64bits(px) {
			return fmt.Errorf("factorization %d: X at pinned node %s is %v, PinnedX %v",
				a.Factorizations, e.ckt.NodeName(p.node), x, px)
		}
	}
	return nil
}

// unknown names the free unknown at reduced position fi.
func (a *WatchAudit) unknown(fi int) string {
	x := a.e.free[fi]
	if ckt := a.e.ckt; x < ckt.NumNodes() {
		return ckt.NodeName(x + 1)
	}
	return fmt.Sprintf("branch %d", x)
}

// assembleCopy assembles asm's entries on ws and factorizes them.
func assembleCopy(ws *numeric.Workspace, asm *numeric.Matrix) error {
	copy(ws.Assemble().Data(), asm.Data())
	return ws.FactorizeAssembled()
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
