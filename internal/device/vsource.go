package device

import "github.com/memtest/partialfaults/internal/circuit"

// VSource is an independent voltage source from node p (positive) to
// node n (negative) driven by a Waveform. It contributes one branch
// current unknown to the MNA system.
type VSource struct {
	name   string
	p, n   int
	wave   Waveform
	branch int
}

// NewVSource creates a voltage source; the node voltage difference
// v(p) − v(n) is forced to wave.At(t).
func NewVSource(name string, p, n int, wave Waveform) *VSource {
	if wave == nil {
		panic("device: VSource requires a waveform")
	}
	return &VSource{name: name, p: p, n: n, wave: wave}
}

// Name implements circuit.Element.
func (v *VSource) Name() string { return v.name }

// SetBranch implements circuit.BranchElement.
func (v *VSource) SetBranch(idx int) { v.branch = idx }

// SetWaveform replaces the driving waveform. The DRAM operation
// controller uses this to schedule control signals between operations.
func (v *VSource) SetWaveform(w Waveform) {
	if w == nil {
		panic("device: VSource requires a waveform")
	}
	v.wave = w
}

// Waveform returns the current driving waveform.
func (v *VSource) Waveform() Waveform { return v.wave }

// Stamp implements circuit.Element with the standard voltage-source MNA
// pattern: the branch current enters the node equations and the branch
// equation forces v(p) − v(n) = V(t).
func (v *VSource) Stamp(ctx *circuit.StampContext) {
	br := v.branch
	if v.p != 0 {
		ctx.A.Add(v.p-1, br, 1)
		ctx.A.Add(br, v.p-1, 1)
	}
	if v.n != 0 {
		ctx.A.Add(v.n-1, br, -1)
		ctx.A.Add(br, v.n-1, -1)
	}
	ctx.B[br] += v.wave.At(ctx.Time)
}

// StampStaticA implements circuit.SplitStamper: the ±1 incidence
// entries, which depend only on topology.
func (v *VSource) StampStaticA(ctx *circuit.StampContext) {
	br := v.branch
	if v.p != 0 {
		ctx.A.Add(v.p-1, br, 1)
		ctx.A.Add(br, v.p-1, 1)
	}
	if v.n != 0 {
		ctx.A.Add(v.n-1, br, -1)
		ctx.A.Add(br, v.n-1, -1)
	}
}

// StampStepB implements circuit.SplitStamper: the branch equation's
// right-hand side is the waveform value at the step time.
func (v *VSource) StampStepB(ctx *circuit.StampContext) {
	ctx.B[v.branch] += v.wave.At(ctx.Time)
}

// PinnedNode implements circuit.GroundedSource: a source wired between
// one node and ground forces that node's voltage outright, so the engine
// may eliminate both the node and the branch unknown.
func (v *VSource) PinnedNode() (node, branch int, ok bool) {
	switch {
	case v.p != 0 && v.n == 0:
		return v.p, v.branch, true
	case v.p == 0 && v.n != 0:
		return v.n, v.branch, true
	}
	return 0, 0, false
}

// PinnedValue implements circuit.GroundedSource.
func (v *VSource) PinnedValue(t float64) float64 {
	if v.n == 0 {
		return v.wave.At(t)
	}
	return -v.wave.At(t)
}
