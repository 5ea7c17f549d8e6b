package device

import "github.com/memtest/partialfaults/internal/circuit"

// This file implements circuit.Topological for every device model, so
// the static-analysis layer (internal/netlint) can reason about
// connectivity — floating nets, MNA solvability, per-defect floating-line
// prediction — without running a transient simulation.

// Branches implements circuit.Topological.
func (r *Resistor) Branches() []circuit.Branch {
	return []circuit.Branch{{A: r.a, B: r.b, Kind: circuit.PathConductive, Ohms: r.ohms}}
}

// Branches implements circuit.Topological.
func (c *Capacitor) Branches() []circuit.Branch {
	return []circuit.Branch{{A: c.a, B: c.b, Kind: circuit.PathCapacitive}}
}

// Branches implements circuit.Topological.
func (v *VSource) Branches() []circuit.Branch {
	return []circuit.Branch{{A: v.p, B: v.n, Kind: circuit.PathSource}}
}

// Branches implements circuit.Topological.
func (s *ISource) Branches() []circuit.Branch {
	return []circuit.Branch{{A: s.p, B: s.n, Kind: circuit.PathCurrent}}
}

// Branches implements circuit.Topological: the switch channel conducts
// when v(ctrl) − v(ctrlRef) exceeds the threshold, i.e. active-high.
func (s *Switch) Branches() []circuit.Branch {
	return []circuit.Branch{
		{A: s.a, B: s.b, Kind: circuit.PathGated, Gate: s.ctrl, GateActiveHigh: true},
		{A: s.ctrl, B: s.ctrlRef, Kind: circuit.PathSense},
	}
}

// Branches implements circuit.Topological: the channel is gated by the
// gate net (active-high for NMOS, active-low for PMOS); the gate itself
// is a high-impedance sense terminal.
func (m *MOSFET) Branches() []circuit.Branch {
	return []circuit.Branch{
		{A: m.d, B: m.s, Kind: circuit.PathGated, Gate: m.g, GateActiveHigh: !m.pmos},
		{A: m.g, B: m.s, Kind: circuit.PathSense},
	}
}

// nodeFootprint returns the positions rows × cols of node indices in
// global x indexing, leaving out ground: the circuit.Footprinter
// footprint of a stamp that writes node-to-node entries only.
func nodeFootprint(rows, cols []int) [][2]int {
	var out [][2]int
	for _, r := range rows {
		for _, c := range cols {
			if r != 0 && c != 0 {
				out = append(out, [2]int{r - 1, c - 1})
			}
		}
	}
	return out
}
