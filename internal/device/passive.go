// Package device implements the circuit-element models used to build the
// DRAM column netlists: passives (R, C), independent sources, a
// voltage-controlled switch, and a level-1 (Shichman–Hodges) MOSFET.
//
// All models stamp companion/linearized equivalents into the MNA system
// provided by internal/circuit; time integration uses the backward-Euler
// companion form, which is unconditionally stable — the right choice for
// the stiff RC networks that resistive-open defects create.
package device

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/circuit"
)

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	name string
	a, b int
	ohms float64
}

// NewResistor creates a resistor of the given resistance (Ω) between
// nodes a and b. Resistance must be positive.
func NewResistor(name string, a, b int, ohms float64) *Resistor {
	if ohms <= 0 {
		panic(fmt.Sprintf("device: resistor %s with non-positive resistance %g", name, ohms))
	}
	return &Resistor{name: name, a: a, b: b, ohms: ohms}
}

// Name implements circuit.Element.
func (r *Resistor) Name() string { return r.name }

// Resistance returns the resistance in ohms.
func (r *Resistor) Resistance() float64 { return r.ohms }

// SetResistance changes the resistance; used by defect injection to sweep
// R_def without rebuilding the netlist.
func (r *Resistor) SetResistance(ohms float64) {
	if ohms <= 0 {
		panic(fmt.Sprintf("device: resistor %s set to non-positive resistance %g", r.name, ohms))
	}
	r.ohms = ohms
}

// Stamp implements circuit.Element.
func (r *Resistor) Stamp(ctx *circuit.StampContext) {
	ctx.StampConductance(r.a, r.b, 1/r.ohms)
}

// StampStaticA implements circuit.SplitStamper: the conductance is the
// whole contribution. Engines that cache static stamps must be
// invalidated after SetResistance (dram.Column does this for its defect
// sites).
func (r *Resistor) StampStaticA(ctx *circuit.StampContext) {
	ctx.StampConductance(r.a, r.b, 1/r.ohms)
}

// StampStepB implements circuit.SplitStamper: a resistor has no
// right-hand-side contribution.
func (r *Resistor) StampStepB(*circuit.StampContext) {}

// Current returns the current flowing from node a to node b given a
// solved voltage vector x (node voltages only, ground excluded).
func (r *Resistor) Current(v func(int) float64) float64 {
	return (v(r.a) - v(r.b)) / r.ohms
}

// Capacitor is a linear two-terminal capacitor, stateless under
// backward Euler. During DC analysis it is treated as open (no stamp),
// so every capacitor node needs a DC path to ground — the simulator's
// gmin provides one for genuinely floating nodes such as isolated bit
// lines.
type Capacitor struct {
	name   string
	a, b   int
	farads float64
}

// NewCapacitor creates a capacitor of the given capacitance (F) between
// nodes a and b. Capacitance must be positive.
func NewCapacitor(name string, a, b int, farads float64) *Capacitor {
	if farads <= 0 {
		panic(fmt.Sprintf("device: capacitor %s with non-positive capacitance %g", name, farads))
	}
	return &Capacitor{name: name, a: a, b: b, farads: farads}
}

// Name implements circuit.Element.
func (c *Capacitor) Name() string { return c.name }

// Stamp implements circuit.Element using the backward-Euler companion
// model: geq = C/dt in parallel with a current source geq·v(t−dt).
func (c *Capacitor) Stamp(ctx *circuit.StampContext) {
	if ctx.Dt <= 0 {
		return // open at DC
	}
	vPrev := ctx.VPrev(c.a) - ctx.VPrev(c.b)
	geq := c.farads / ctx.Dt
	ctx.StampConductance(c.a, c.b, geq)
	// The companion current source injects geq·vPrev from b to a so that
	// zero applied current keeps the capacitor voltage constant.
	ctx.StampCurrent(c.b, c.a, geq*vPrev)
}

// StampStaticA implements circuit.SplitStamper: the companion
// conductance.
func (c *Capacitor) StampStaticA(ctx *circuit.StampContext) {
	if ctx.Dt <= 0 {
		return // open at DC
	}
	ctx.StampConductance(c.a, c.b, c.farads/ctx.Dt)
}

// StampStepB implements circuit.SplitStamper: the companion current
// source, fixed within a timestep (it depends only on the previous
// step's solution).
func (c *Capacitor) StampStepB(ctx *circuit.StampContext) {
	if ctx.Dt <= 0 {
		return
	}
	vPrev := ctx.VPrev(c.a) - ctx.VPrev(c.b)
	ctx.StampCurrent(c.b, c.a, c.farads/ctx.Dt*vPrev)
}
