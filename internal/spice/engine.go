// Package spice implements the simulation engines that drive the
// netlists in internal/circuit: a Newton–Raphson DC operating-point
// solver and a fixed-step backward-Euler transient engine.
//
// The engine is deliberately small: dense MNA assembly, full Newton with
// a gmin conductance from every node to ground (which also gives
// genuinely floating nets — isolated bit lines behind a resistive open —
// a well-defined, slowly leaking voltage, exactly the "floating line"
// physics the partial-fault paper studies).
//
// Three stacked optimizations make repeated solves cheap without
// changing the physics (see DESIGN.md, "performance layer"):
//
//  1. Grounded-source elimination. Sources wired node-to-ground
//     (circuit.GroundedSource) force their node voltage a priori; the
//     engine removes both the node unknown and the branch-current
//     unknown from the factorized system, substituting the known
//     voltages into the right-hand side. The DRAM column drops from 57
//     to 25 unknowns, cutting the O(n³) factorization by an order of
//     magnitude.
//  2. Static stamp caching. Linear elements (circuit.SplitStamper)
//     stamp their matrix contribution once per dt regime into a cached
//     static matrix that each Newton iteration copies; only nonlinear
//     elements (MOSFETs, switches) restamp per iteration, and the
//     linear right-hand side is rebuilt once per step.
//  3. Newton bypass. The reduced matrix is compared bit-for-bit against
//     the last factorized one (numeric.Workspace.FactorizeCached); when
//     the Jacobian did not change between iterations the LU factors are
//     reused.
package spice

import (
	"errors"
	"fmt"
	"math"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/numeric"
)

// Options configures the engines. The zero value is not usable; call
// DefaultOptions.
type Options struct {
	// Gmin is the conductance from every node to ground, providing a DC
	// path for floating nets. 1e-12 S leaks a 250 fF bit line with a
	// time constant of ~250 s, i.e. effectively floating at the
	// nanosecond timescale of memory operations.
	Gmin float64
	// MaxNewtonIter bounds the Newton iterations per solve.
	MaxNewtonIter int
	// VTol is the absolute voltage convergence tolerance.
	VTol float64
	// MaxStepVoltage limits the per-iteration voltage update to damp
	// Newton on strongly nonlinear steps (sense-amp regeneration).
	MaxStepVoltage float64
}

// DefaultOptions returns the options used throughout the repository.
func DefaultOptions() Options {
	return Options{
		Gmin:           1e-12,
		MaxNewtonIter:  100,
		VTol:           1e-6,
		MaxStepVoltage: 1.0,
	}
}

// ErrNoConvergence is returned when Newton iteration fails to converge.
var ErrNoConvergence = errors.New("spice: Newton iteration did not converge")

// pinnedNode is one eliminated grounded-source node.
type pinnedNode struct {
	node   int // 1-based circuit node index
	branch int // x index of the eliminated branch unknown
	src    circuit.GroundedSource
}

// Engine simulates a frozen circuit.
type Engine struct {
	ckt  *circuit.Circuit
	opts Options
	x    []float64 // current converged solution
	time float64

	ws    *numeric.Workspace
	xIter []float64
	xNew  []float64
	xPrev []float64

	// Element classification, computed once at construction.
	split   []circuit.SplitStamper // linear: cached A, per-step B
	dynamic []circuit.Element      // nonlinear: restamped per iteration

	// Grounded-source elimination.
	pinned  []pinnedNode
	free    []int     // reduced position → x index
	rowMap  []int     // x index → reduced position, or -1 if eliminated
	pinnedV []float64 // forced voltages at the current step time
	pinnedX []float64 // same, scattered over global x indexing

	// Cached stamps.
	staticA  *numeric.Matrix // linear part of A (full size), plus gmin
	staticDt float64
	staticOK bool
	stepB    []float64 // linear part of b for the current step

	// Reduced system buffers. aRedS caches the reduced static matrix per
	// dt regime; cStat holds the static couplings of free rows to pinned
	// node columns (nFree × nPinned), folded into bRedBase each step so
	// Newton iterations never revisit the full-size system.
	aRedS    *numeric.Matrix
	cStat    *numeric.Matrix
	aRed     *numeric.Matrix
	bRedBase []float64
	bRed     []float64
	xRed     []float64

	// factorizations and bypasses count LU work for benchmarks.
	factorizations uint64
	bypasses       uint64
}

// NewEngine creates an engine for the circuit. The circuit must already
// be frozen (circuit.Freeze): before Freeze the branch-current indices
// handed out by Add are provisional, and stamping through them would
// silently alias node unknowns. An unfrozen or empty circuit is a
// construction-order bug in the caller, reported as an error.
func NewEngine(ckt *circuit.Circuit, opts Options) (*Engine, error) {
	if !ckt.Frozen() {
		return nil, fmt.Errorf("spice: circuit not frozen: branch indices are provisional until circuit.Freeze is called")
	}
	n := ckt.Size()
	if n == 0 {
		return nil, fmt.Errorf("spice: empty circuit")
	}
	e := &Engine{
		ckt:     ckt,
		opts:    opts,
		x:       make([]float64, n),
		xIter:   make([]float64, n),
		xNew:    make([]float64, n),
		xPrev:   make([]float64, n),
		staticA: numeric.NewMatrix(n, n),
		stepB:   make([]float64, n),
	}
	e.classify()
	if nf := len(e.free); nf > 0 {
		// A circuit can have no free unknowns at all (every node forced
		// by a grounded source); the solve then degenerates to waveform
		// evaluation and needs no factorization buffers.
		e.ws = numeric.NewWorkspace(nf)
		e.aRedS = numeric.NewMatrix(nf, nf)
		e.aRed = numeric.NewMatrix(nf, nf)
		e.bRedBase = make([]float64, nf)
		e.bRed = make([]float64, nf)
		e.xRed = make([]float64, nf)
		if len(e.pinned) > 0 {
			e.cStat = numeric.NewMatrix(nf, len(e.pinned))
		}
	}
	return e, nil
}

// MustNewEngine is NewEngine for circuits known frozen by construction;
// it panics on error. Intended for tests and examples.
func MustNewEngine(ckt *circuit.Circuit, opts Options) *Engine {
	e, err := NewEngine(ckt, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// classify partitions the elements into linear (split-stampable) and
// nonlinear sets and works out which unknowns grounded sources
// eliminate.
func (e *Engine) classify() {
	// A node is only eliminable when exactly one grounded source forces
	// it; two sources on one node is a source loop (netlint flags it)
	// and must keep the legacy branch formulation so the solve exposes
	// the inconsistency instead of silently picking one source.
	forced := map[int]int{}
	for _, el := range e.ckt.Elements() {
		if gs, ok := el.(circuit.GroundedSource); ok {
			if node, _, ok := gs.PinnedNode(); ok {
				forced[node]++
			}
		}
	}
	eliminated := make(map[int]bool) // x indices removed from the solve
	for _, el := range e.ckt.Elements() {
		if gs, ok := el.(circuit.GroundedSource); ok {
			if node, branch, ok := gs.PinnedNode(); ok && forced[node] == 1 {
				e.pinned = append(e.pinned, pinnedNode{node: node, branch: branch, src: gs})
				eliminated[node-1] = true
				eliminated[branch] = true
				continue // fully replaced by the known voltage; never stamped
			}
		}
		if ss, ok := el.(circuit.SplitStamper); ok {
			e.split = append(e.split, ss)
		} else {
			e.dynamic = append(e.dynamic, el)
		}
	}
	n := e.ckt.Size()
	e.free = make([]int, 0, n-len(eliminated))
	e.rowMap = make([]int, n)
	for i := 0; i < n; i++ {
		if eliminated[i] {
			e.rowMap[i] = -1
		} else {
			e.rowMap[i] = len(e.free)
			e.free = append(e.free, i)
		}
	}
	e.pinnedV = make([]float64, len(e.pinned))
	e.pinnedX = make([]float64, n)
}

// Time returns the current simulation time.
func (e *Engine) Time() float64 { return e.time }

// Voltage returns the node voltage of the named net in the current
// solution. It panics if the net does not exist.
func (e *Engine) Voltage(net string) float64 {
	idx, ok := e.ckt.NodeIndex(net)
	if !ok {
		panic(fmt.Sprintf("spice: unknown net %q", net))
	}
	return e.voltageAt(idx)
}

func (e *Engine) voltageAt(idx int) float64 {
	if idx == 0 {
		return 0
	}
	return e.x[idx-1]
}

// SetNodeVoltage forcibly sets a node voltage in the engine state. This
// implements the paper's fault-analysis methodology of *initializing
// floating voltages* (Section 2): before applying an operation, the
// analysis overwrites the floating line (bit line, cell node, word line,
// reference cell) with the swept initial value U.
func (e *Engine) SetNodeVoltage(net string, v float64) {
	idx, ok := e.ckt.NodeIndex(net)
	if !ok {
		panic(fmt.Sprintf("spice: unknown net %q", net))
	}
	if idx == 0 {
		panic("spice: cannot set ground voltage")
	}
	e.x[idx-1] = v
}

// InvalidateStamps discards the cached static stamp. Callers must invoke
// it after mutating a linear element's parameters in place (e.g.
// Resistor.SetResistance during defect injection); waveform swaps on
// sources do not require it, as the right-hand side is rebuilt each
// step.
func (e *Engine) InvalidateStamps() {
	e.staticOK = false
	if e.ws != nil {
		e.ws.InvalidateCache()
	}
}

// Reset returns the engine to the state of a freshly constructed one:
// zero solution vector, zero clock, caches dropped. Column pooling uses it to recycle engines across
// sweep grid points.
func (e *Engine) Reset() {
	for i := range e.x {
		e.x[i] = 0
	}
	e.time = 0
	e.InvalidateStamps()
}

// State returns a copy of the solution vector and the simulation time —
// together with the element waveforms (owned by the caller's netlist
// layer) the full dynamic state of a backward-Euler transient.
func (e *Engine) State() ([]float64, float64) {
	x := make([]float64, len(e.x))
	copy(x, e.x)
	return x, e.time
}

// RestoreState reinstates a solution vector and clock captured by State;
// under backward Euler the (x, time, waveforms) triple fully determines
// all subsequent behaviour.
func (e *Engine) RestoreState(x []float64, t float64) {
	if len(x) != len(e.x) {
		panic("spice: RestoreState dimension mismatch")
	}
	copy(e.x, x)
	e.time = t
}

// FactorizationCounts returns how many LU factorizations ran and how
// many were bypassed because the Jacobian was unchanged.
func (e *Engine) FactorizationCounts() (factorized, bypassed uint64) {
	return e.factorizations, e.bypasses
}

// refreshStatic rebuilds the cached static stamp when the dt regime
// changed or the cache was invalidated.
func (e *Engine) refreshStatic(dt float64) {
	if e.staticOK && math.Float64bits(dt) == math.Float64bits(e.staticDt) {
		return
	}
	e.staticA.Zero()
	ctx := &circuit.StampContext{A: e.staticA, Dt: dt}
	for _, el := range e.split {
		el.StampStaticA(ctx)
	}
	// gmin to ground on every node.
	for n := 0; n < e.ckt.NumNodes(); n++ {
		e.staticA.Add(n, n, e.opts.Gmin)
	}
	// Project the full-size static stamp onto the reduced system once per
	// regime: the free-by-free block and the couplings to pinned columns.
	for fi, gi := range e.free {
		row := e.staticA.Row(gi)
		rr := e.aRedS.Row(fi)
		for fj, gj := range e.free {
			rr[fj] = row[gj]
		}
		if e.cStat != nil {
			cr := e.cStat.Row(fi)
			for k, p := range e.pinned {
				cr[k] = row[p.node-1]
			}
		}
	}
	e.staticDt = dt
	e.staticOK = true
}

// buildStepB rebuilds the linear right-hand side for the current step
// and evaluates the pinned node voltages at the step time.
func (e *Engine) buildStepB(xPrev []float64, dt float64) {
	for i := range e.stepB {
		e.stepB[i] = 0
	}
	ctx := &circuit.StampContext{
		B: e.stepB, XPrev: xPrev,
		Dt: dt, Time: e.time,
	}
	for _, el := range e.split {
		el.StampStepB(ctx)
	}
	for i, p := range e.pinned {
		v := p.src.PinnedValue(e.time)
		e.pinnedV[i] = v
		e.pinnedX[p.node-1] = v
	}
	// Fold the step RHS and the static pinned couplings into the reduced
	// base vector; each Newton iteration copies it and adds only the
	// nonlinear contributions.
	for fi, gi := range e.free {
		s := e.stepB[gi]
		if e.cStat != nil {
			cr := e.cStat.Row(fi)
			for k := range e.pinned {
				s -= cr[k] * e.pinnedV[k]
			}
		}
		e.bRedBase[fi] = s
	}
}

// newtonSolve iterates to convergence starting from guess, with xPrev as
// the previous-timestep state for companion models. On success the
// engine's solution vector is updated.
func (e *Engine) newtonSolve(guess, xPrev []float64, dt float64) error {
	e.refreshStatic(dt)
	e.buildStepB(xPrev, dt)
	xIter := e.xIter
	copy(xIter, guess)
	for k, p := range e.pinned {
		xIter[p.node-1] = e.pinnedV[k]
		xIter[p.branch] = 0
	}
	xNew := e.xNew
	nNodes := e.ckt.NumNodes()
	// Nonlinear elements stamp straight into the reduced system through
	// the RowMap/PinnedX indirection; the full-size matrix is never
	// touched inside the Newton loop.
	ctx := &circuit.StampContext{
		A: e.aRed, B: e.bRed,
		X: xIter, XPrev: xPrev,
		Dt: dt, Time: e.time,
		RowMap:  e.rowMap,
		PinnedX: e.pinnedX,
	}
	for iter := 0; iter < e.opts.MaxNewtonIter; iter++ {
		if len(e.free) > 0 {
			e.aRed.CopyFrom(e.aRedS)
			copy(e.bRed, e.bRedBase)
			for _, el := range e.dynamic {
				el.Stamp(ctx)
			}
			reused, err := e.ws.FactorizeCached(e.aRed)
			if err != nil {
				return fmt.Errorf("spice: %w (iteration %d)", err, iter)
			}
			if reused {
				e.bypasses++
			} else {
				e.factorizations++
			}
			e.ws.Solve(e.bRed, e.xRed)
			for fi, gi := range e.free {
				xNew[gi] = e.xRed[fi]
			}
		}
		for k, p := range e.pinned {
			xNew[p.node-1] = e.pinnedV[k]
			xNew[p.branch] = 0
		}
		// Damp node-voltage updates.
		for i := 0; i < nNodes; i++ {
			d := xNew[i] - xIter[i]
			if d > e.opts.MaxStepVoltage {
				xNew[i] = xIter[i] + e.opts.MaxStepVoltage
			} else if d < -e.opts.MaxStepVoltage {
				xNew[i] = xIter[i] - e.opts.MaxStepVoltage
			}
		}
		delta := numeric.MaxAbsDiff(xNew[:nNodes], xIter[:nNodes])
		copy(xIter, xNew)
		if delta < e.opts.VTol {
			copy(e.x, xIter)
			return nil
		}
	}
	return ErrNoConvergence
}

// OperatingPoint solves the DC operating point (capacitors open) and
// stores it as the current solution.
func (e *Engine) OperatingPoint() error {
	return e.newtonSolve(e.x, e.x, 0)
}

// Step advances the transient solution by dt seconds using backward
// Euler. The previous solution is both the integration state and the
// Newton starting guess.
func (e *Engine) Step(dt float64) error {
	if dt <= 0 {
		panic("spice: Step requires dt > 0")
	}
	xPrev := e.xPrev
	copy(xPrev, e.x)
	e.time += dt
	if err := e.newtonSolve(xPrev, xPrev, dt); err != nil {
		e.time -= dt
		return err
	}
	return nil
}

// Run advances the transient by duration seconds in n equal steps,
// invoking observe (if non-nil) after every step with the engine.
func (e *Engine) Run(duration float64, n int, observe func(*Engine)) error {
	if n <= 0 {
		panic("spice: Run requires n > 0 steps")
	}
	dt := duration / float64(n)
	for i := 0; i < n; i++ {
		if err := e.Step(dt); err != nil {
			return fmt.Errorf("spice: step %d at t=%.3e: %w", i, e.time, err)
		}
		if observe != nil {
			observe(e)
		}
	}
	return nil
}

// Circuit returns the simulated circuit.
func (e *Engine) Circuit() *circuit.Circuit { return e.ckt }
