package device

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/circuit"
)

// Switch is a voltage-controlled resistive switch: Ron between a and b
// when v(ctrl) − v(ctrlRef) exceeds the threshold, Roff otherwise. A
// narrow linear transition band keeps the Newton iteration differentiable
// enough to converge. Switches model ideal pass/precharge control where
// full MOS detail is unnecessary.
type Switch struct {
	name          string
	a, b          int
	ctrl, ctrlRef int
	threshold     float64
	ron, roff     float64
	band          float64
}

// NewSwitch creates a switch controlled by v(ctrl) − v(ctrlRef) compared
// against threshold. Ron and Roff must be positive with Ron < Roff.
func NewSwitch(name string, a, b, ctrl, ctrlRef int, threshold, ron, roff float64) *Switch {
	if ron <= 0 || roff <= 0 || ron >= roff {
		panic(fmt.Sprintf("device: switch %s requires 0 < Ron < Roff, got %g, %g", name, ron, roff))
	}
	return &Switch{
		name: name, a: a, b: b, ctrl: ctrl, ctrlRef: ctrlRef,
		threshold: threshold, ron: ron, roff: roff, band: 0.1,
	}
}

// Name implements circuit.Element.
func (s *Switch) Name() string { return s.name }

// conductance returns the interpolated switch conductance for a control
// voltage.
func (s *Switch) conductance(vc float64) float64 {
	gon, goff := 1/s.ron, 1/s.roff
	// Rounding the half band (a product once the compiler turns /2 into
	// ·0.5) and the interpolation product keeps arm64 from fusing them
	// into multiply-adds, so every target computes the same bits.
	lo, hi := s.threshold-float64(s.band/2), s.threshold+float64(s.band/2)
	switch {
	case vc <= lo:
		return goff
	case vc >= hi:
		return gon
	default:
		t := (vc - lo) / s.band
		return goff + float64(t*(gon-goff))
	}
}

// Stamp implements circuit.Element. The control voltage is taken from the
// current iterate, making the element weakly nonlinear; the conductance
// interpolation band keeps successive iterates consistent.
func (s *Switch) Stamp(ctx *circuit.StampContext) {
	vc := ctx.V(s.ctrl) - ctx.V(s.ctrlRef)
	ctx.StampConductance(s.a, s.b, s.conductance(vc))
}

// Footprint implements circuit.Footprinter: the conductance writes
// {a, b}²; the control terminals are read, never stamped.
func (s *Switch) Footprint() [][2]int {
	return nodeFootprint([]int{s.a, s.b}, []int{s.a, s.b})
}
