// Package analysis implements the paper's fault-analysis methodology:
// defect injection, (R_def, U) plane sweeps with floating-voltage
// initialization, FP-region classification (Figures 3 and 4), the
// partial-fault identification rule of Section 3, the completing-
// operation search, and the Table 1 inventory pipeline.
package analysis

import (
	"context"
	"fmt"
	"sync"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
)

// Memory is the device under analysis: a defective memory column whose
// internal floating voltages can be forced, matching the paper's
// simulation protocol. Cell 0 is the victim; cell 1 is a cell on the
// victim's bit line.
//
// Every operation starts with the same precharge phase, so the protocol
// issues an operation as two calls: Idle, the precharge, then Write or
// Read, the rest of the operation on the precharged column. The two
// together are one full memory operation. Splitting them lets the
// replay cache simulate a precharge once for all the operations that
// follow it from one state.
type Memory interface {
	// Write performs the rest of a write of bit to the cell after the
	// operation's leading precharge (Idle).
	Write(cell, bit int) error
	// Read performs the rest of a read after the operation's leading
	// precharge (Idle) and returns the output value.
	Read(cell int) (int, error)
	// Idle runs one precharge phase: the start of every operation, and
	// on its own the idle period that sensitizes state faults.
	Idle() error
	// ForceVictim sets the victim's stored state directly, implementing
	// the SOS initialization (the leading 0/1 of the notation is a
	// state, not an operation).
	ForceVictim(bit int)
	// SetFloat overwrites the named floating nets with voltage u.
	SetFloat(nets []string, u float64)
	// VictimBit reads the victim's stored state non-invasively.
	VictimBit() int
}

// Snapshotter is the Memory extension the replay cache requires:
// Snapshot captures the memory's full dynamic state as an opaque value
// and Restore reinstates it exactly, so that simulation resumed from a
// restored state is bit-for-bit the continuation of the original run.
// Both the electrical and the analytical memories implement it; a
// factory whose memories do not can run only without a ReplayCache
// (RunSOS, or a sweep or completion search given no Replay), and
// BuildInventory, which always replays, fails on it.
type Snapshotter interface {
	Memory
	// Snapshot returns an immutable opaque state handle.
	Snapshot() any
	// Restore reinstates a state previously returned by Snapshot on the
	// same memory (or an identically configured one).
	Restore(state any)
}

// Releaser is the optional Memory extension for pooled memories. RunSOS
// releases the memory when it is done with it, returning the underlying
// simulator to its factory's reuse pool.
type Releaser interface {
	Memory
	// Release returns the memory to its pool. The memory must not be
	// used afterwards.
	Release()
}

// VoltageProber is the optional Memory extension exposing settled net
// voltages, used by the weak-merge differential checks to compare the
// transient engine's divider midpoint against the static prediction.
type VoltageProber interface {
	Memory
	// NetVoltage returns the present voltage of the named net.
	NetVoltage(net string) float64
}

// Factory builds a Memory with the given open injected at resistance
// rdef. Implementations exist for the electrical column (NewSpiceFactory)
// and the fast analytical model (behav.NewFactory).
type Factory func(open defect.Open, rdef float64) (Memory, error)

// injectSites applies the descriptor's full defect-site set to a
// column-like target: the primary site at the swept rdef, every Extra
// site at its declared resistance (or rdef when it declares none) — the
// multi-defect scenarios of the merge catalog.
func injectSites(set func(site string, ohms float64), open defect.Open, rdef float64) {
	set(open.Site, rdef)
	for _, x := range open.Extra {
		ohms := x.Ohms
		if ohms == 0 {
			ohms = rdef
		}
		set(x.Site, ohms)
	}
}

// NewSpiceFactory returns a Factory backed by the transient-simulated
// DRAM column. Every call builds a fresh column; prefer
// NewPooledSpiceFactory for sweeps, which recycles columns and their
// engines across points.
func NewSpiceFactory(tech dram.Technology) Factory {
	return func(open defect.Open, rdef float64) (Memory, error) {
		col, err := dram.NewColumn(tech)
		if err != nil {
			return nil, err
		}
		injectSites(col.SetSiteResistance, open, rdef)
		if err := col.PowerUp(); err != nil {
			return nil, fmt.Errorf("analysis: power-up with %s at %.3g Ω: %w", open.Name(), rdef, err)
		}
		return &spiceMemory{col: col}, nil
	}
}

// columnPool recycles dram.Column instances: netlist construction and
// engine allocation are amortized across sweep points, and only the
// cheap Reset + defect injection + PowerUp run per point.
type columnPool struct {
	mu   sync.Mutex
	free []*dram.Column
}

func (p *columnPool) get(tech dram.Technology) (*dram.Column, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		col := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		col.Reset()
		return col, nil
	}
	p.mu.Unlock()
	return dram.NewColumn(tech)
}

func (p *columnPool) put(col *dram.Column) {
	p.mu.Lock()
	p.free = append(p.free, col)
	p.mu.Unlock()
}

// NewPooledSpiceFactory returns a Factory backed by the electrical
// column that recycles columns through a pool. The returned memories
// implement Releaser (RunSOS returns them automatically) and
// Snapshotter (enabling the replay cache). A recycled column is Reset to
// its as-constructed state before reuse, so results are identical to a
// freshly built column's — the equivalence tests prove this bit for bit.
func NewPooledSpiceFactory(tech dram.Technology) Factory {
	pool := &columnPool{}
	return func(open defect.Open, rdef float64) (Memory, error) {
		col, err := pool.get(tech)
		if err != nil {
			return nil, err
		}
		injectSites(col.SetSiteResistance, open, rdef)
		if err := col.PowerUp(); err != nil {
			pool.put(col)
			return nil, fmt.Errorf("analysis: power-up with %s at %.3g Ω: %w", open.Name(), rdef, err)
		}
		return &spiceMemory{col: col, pool: pool}, nil
	}
}

// spiceMemory adapts dram.Column to the Memory interface.
type spiceMemory struct {
	col  *dram.Column
	pool *columnPool // nil for unpooled memories
}

func (m *spiceMemory) Write(cell, bit int) error  { return m.col.WriteAccess(cell, bit) }
func (m *spiceMemory) Read(cell int) (int, error) { return m.col.ReadAccess(cell) }
func (m *spiceMemory) Idle() error                { return m.col.Precharge() }

func (m *spiceMemory) ForceVictim(bit int) {
	v := 0.0
	if bit == 1 {
		v = m.col.Tech.VDD
	}
	m.col.SetNodeVoltages(v, dram.NetCell0Store)
}

func (m *spiceMemory) SetFloat(nets []string, u float64) {
	m.col.SetNodeVoltages(u, nets...)
}

func (m *spiceMemory) VictimBit() int { return m.col.CellBit(0) }

// NetVoltage implements VoltageProber.
func (m *spiceMemory) NetVoltage(net string) float64 { return m.col.Voltage(net) }

// Snapshot implements Snapshotter via the column's backward-Euler state
// capture (node voltages, clock, control waveforms and levels).
func (m *spiceMemory) Snapshot() any { return m.col.Snapshot() }

// Restore implements Snapshotter.
func (m *spiceMemory) Restore(state any) { m.col.Restore(state.(*dram.State)) }

// Release implements Releaser for pooled memories; for unpooled ones it
// is a no-op.
func (m *spiceMemory) Release() {
	if m.pool != nil {
		m.pool.put(m.col)
		m.col = nil
	}
}

// Outcome is the observed behaviour of one SOS application.
type Outcome struct {
	// F is the victim state after the SOS.
	F int
	// R is the final victim read's output, if the SOS ends with one.
	R fp.ReadResult
}

// RunSOS applies the SOS to a freshly built defective memory following
// the paper's protocol: establish the initial state, overwrite the
// floating nets with u, apply the operations (each one an Idle, its
// precharge, then the Write or Read), observe (F, R). An SOS without
// operations is one Idle. Memories implementing Releaser are returned
// to their pool before RunSOS returns.
func RunSOS(factory Factory, open defect.Open, rdef float64, floatNets []string, u float64, sos fp.SOS) (Outcome, error) {
	mem, err := factory(open, rdef)
	if err != nil {
		return Outcome{}, err
	}
	if r, ok := mem.(Releaser); ok {
		defer r.Release()
	}
	return runSOSOn(mem, floatNets, u, sos)
}

// runSOSOn applies the SOS protocol to an already built memory.
func runSOSOn(mem Memory, floatNets []string, u float64, sos fp.SOS) (Outcome, error) {
	switch sos.Init {
	case fp.Init0:
		mem.ForceVictim(0)
	case fp.Init1:
		mem.ForceVictim(1)
	}
	mem.SetFloat(floatNets, u)

	lastVictimRead := fp.RNone
	endsWithVictimRead := false
	for i, op := range sos.Ops {
		cell := 0
		if op.Target == fp.TargetBitLine {
			cell = 1
		}
		if err := mem.Idle(); err != nil {
			return Outcome{}, fmt.Errorf("analysis: op %d (%s): %w", i, op, err)
		}
		switch op.Kind {
		case fp.OpWrite:
			if err := mem.Write(cell, op.Data); err != nil {
				return Outcome{}, fmt.Errorf("analysis: op %d (%s): %w", i, op, err)
			}
		case fp.OpRead:
			got, err := mem.Read(cell)
			if err != nil {
				return Outcome{}, fmt.Errorf("analysis: op %d (%s): %w", i, op, err)
			}
			if cell == 0 {
				lastVictimRead = fp.ReadResultOf(got)
				endsWithVictimRead = i == len(sos.Ops)-1
			}
		}
	}
	if len(sos.Ops) == 0 {
		// A state-fault SOS: let an operation period pass.
		if err := mem.Idle(); err != nil {
			return Outcome{}, fmt.Errorf("analysis: idle: %w", err)
		}
	}
	out := Outcome{F: mem.VictimBit()}
	if endsWithVictimRead {
		out.R = lastVictimRead
	}
	return out, nil
}

// evalSOS is the entry point used by the sweep and completion phases:
// the replay tree when one is given, else RunSOS on a freshly built
// memory. The evaluation takes a slot of pool (none when pool is nil)
// only while it simulates.
func evalSOS(ctx context.Context, pool *Pool, factory Factory, open defect.Open, rdef float64, nets []string, u float64, sos fp.SOS, replay *ReplayCache) (Outcome, error) {
	if replay != nil {
		return replay.Run(ctx, pool, rdef, u, sos)
	}
	var out Outcome
	var err error
	if perr := pool.DoContext(ctx, func() { out, err = RunSOS(factory, open, rdef, nets, u, sos) }); perr != nil {
		return Outcome{}, perr
	}
	return out, err
}

// ClassifyOutcome compares an observed outcome against the SOS's
// fault-free expectation and returns the observed fault primitive, or
// (zero, false) when the behaviour is fault-free.
func ClassifyOutcome(sos fp.SOS, out Outcome) (fp.FP, bool) {
	expF, known := sos.ExpectedFinalState()
	if !known {
		return fp.FP{}, false
	}
	expR := fp.RNone
	if last, ok := sos.FinalOp(); ok && last.Kind == fp.OpRead && last.Target == fp.TargetVictim {
		expR = fp.ReadResultOf(last.Data)
	}
	if out.F == expF && out.R == expR {
		return fp.FP{}, false
	}
	return fp.FP{S: sos, F: out.F, R: out.R}, true
}
