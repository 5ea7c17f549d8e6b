package device

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/circuit"
)

// MOSParams holds the level-1 (Shichman–Hodges) model parameters.
type MOSParams struct {
	// Vt0 is the zero-bias threshold voltage (positive for NMOS,
	// negative for PMOS).
	Vt0 float64
	// Kp is the transconductance parameter µ·Cox in A/V².
	Kp float64
	// Lambda is the channel-length modulation in 1/V.
	Lambda float64
	// W and L are the channel width and length in meters.
	W, L float64
}

// Beta returns Kp·W/L.
func (p MOSParams) Beta() float64 { return p.Kp * p.W / p.L }

// DefaultNMOS returns representative 0.35 µm-class NMOS parameters.
func DefaultNMOS() MOSParams {
	return MOSParams{Vt0: 0.55, Kp: 170e-6, Lambda: 0.05, W: 1e-6, L: 0.35e-6}
}

// DefaultPMOS returns representative 0.35 µm-class PMOS parameters.
func DefaultPMOS() MOSParams {
	return MOSParams{Vt0: -0.65, Kp: 58e-6, Lambda: 0.05, W: 2e-6, L: 0.35e-6}
}

// MOSFET is a three-terminal (bulk tied to rail) level-1 MOSFET.
// The nonlinear drain current is linearized around the current Newton
// iterate using gm and gds, stamped as conductance + VCCS + companion
// current — the standard SPICE treatment.
type MOSFET struct {
	name    string
	d, g, s int
	pmos    bool
	p       MOSParams
}

// NewNMOS creates an n-channel MOSFET with drain d, gate g, source s.
func NewNMOS(name string, d, g, s int, p MOSParams) *MOSFET {
	if p.Vt0 < 0 {
		panic(fmt.Sprintf("device: NMOS %s requires Vt0 >= 0", name))
	}
	return &MOSFET{name: name, d: d, g: g, s: s, p: p}
}

// NewPMOS creates a p-channel MOSFET with drain d, gate g, source s.
func NewPMOS(name string, d, g, s int, p MOSParams) *MOSFET {
	if p.Vt0 > 0 {
		panic(fmt.Sprintf("device: PMOS %s requires Vt0 <= 0", name))
	}
	return &MOSFET{name: name, d: d, g: g, s: s, pmos: true, p: p}
}

// Name implements circuit.Element.
func (m *MOSFET) Name() string { return m.name }

// Params returns the model parameters.
func (m *MOSFET) Params() MOSParams { return m.p }

// level1 evaluates the Shichman–Hodges drain current and its partials for
// an NMOS-polarity device with vds >= 0.
func level1(beta, vt, lambda, vgs, vds float64) (id, gm, gds float64) {
	vov := vgs - vt
	if vov <= 0 {
		return 0, 0, 0 // cutoff
	}
	// Each product that meets an addition is rounded on its own, so that
	// arm64 cannot fuse it into a multiply-add and every target computes
	// the same bits.
	clm := 1 + float64(lambda*vds)
	if vds < vov {
		// Triode region.
		q := float64(vov*vds) - float64(vds*vds/2)
		id = beta * q * clm
		gm = beta * vds * clm
		gds = float64(beta*(vov-vds)*clm) + float64(beta*q*lambda)
		return id, gm, gds
	}
	// Saturation.
	id = beta / 2 * vov * vov * clm
	gm = beta * vov * clm
	gds = beta / 2 * vov * vov * lambda
	return id, gm, gds
}

// bias evaluates the device at the real-space terminal voltages vD, vG,
// vS. It returns the primed (NMOS-normalized) drain current and
// derivatives, the primed controlling voltages vgs and vds they were
// evaluated at, the real-space effective drain/source nodes (after the
// symmetry swap), and the polarity sign (−1 for PMOS).
func (m *MOSFET) bias(vD, vG, vS float64) (id, gm, gds, vgs, vds float64, dEff, sEff int, sign float64) {
	sign = 1.0
	if m.pmos {
		sign = -1
	}
	vd := float64(sign * vD)
	vg := float64(sign * vG)
	vs := float64(sign * vS)
	vt := m.p.Vt0
	if m.pmos {
		vt = -m.p.Vt0 // magnitude in primed (NMOS) polarity
	}
	dEff, sEff = m.d, m.s
	if vd < vs {
		// Symmetric device: swap so primed vds >= 0.
		vd, vs = vs, vd
		dEff, sEff = m.s, m.d
	}
	vgs, vds = vg-vs, vd-vs
	id, gm, gds = level1(m.p.Beta(), vt, m.p.Lambda, vgs, vds)
	return id, gm, gds, vgs, vds, dEff, sEff, sign
}

// Stamp implements circuit.Element.
//
// Derivation: with primed voltages v' = sign·v, the real-space channel
// current from the effective drain to the effective source is
// i = sign·f(v'gs, v'ds). Expanding around the iterate,
// Δi = gm·(Δvg − Δvs) + gds·(Δvd − Δvs) in REAL voltages (the two sign
// factors cancel), so the conductance and VCCS are stamped unsigned and
// only the companion constant carries the polarity.
//
// A device whose id, gm and gds are all zero (cut off) at finite vgs and
// vds stamps nothing. Each of its matrix additions would be ±0; a write
// into a pinned column would move ±0·PinnedX to the right-hand side,
// which is ±0 because PinnedX equals the terminal's finite X there; and
// its companion current sign·(0 − 0·vgs − 0·vds) is ±0. Under the
// circuit.StampContext contract no entry is −0, so none of these
// additions would change a bit. A terminal at ±Inf or NaN makes vgs or
// vds non-finite, and the device then stamps in full.
func (m *MOSFET) Stamp(ctx *circuit.StampContext) {
	id, gm, gds, vgs, vds, d, s, sign := m.bias(ctx.V(m.d), ctx.V(m.g), ctx.V(m.s))
	if id == 0 && gm == 0 && gds == 0 && vgs-vgs == 0 && vds-vds == 0 {
		return
	}
	ctx.StampConductance(d, s, gds)
	ctx.StampTransconductance(d, s, m.g, s, gm)
	ieq := sign * (id - float64(gm*vgs) - float64(gds*vds))
	ctx.StampCurrent(d, s, ieq)
}

// Footprint implements circuit.Footprinter: the conductance and the
// transconductance write rows {d, s} at columns {d, g, s}, whichever
// terminal the symmetry swap makes the effective drain.
func (m *MOSFET) Footprint() [][2]int {
	return nodeFootprint([]int{m.d, m.s}, []int{m.d, m.g, m.s})
}

// DrainCurrent returns the real-space current flowing from the effective
// drain to the effective source for a solved voltage accessor.
func (m *MOSFET) DrainCurrent(v func(int) float64) float64 {
	id, _, _, _, _, _, _, sign := m.bias(v(m.d), v(m.g), v(m.s))
	return sign * id
}
