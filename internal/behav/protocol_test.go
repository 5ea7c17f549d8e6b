package behav

import (
	"math"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
)

// protocolSOSes are the eight static SOSes plus completion-shaped ones:
// [w1BL w0v w0BL] and 0v [w1BL] r0v.
func protocolSOSes() []fp.SOS {
	return append(analysis.StaticSOSes(),
		fp.NewSOS(fp.InitNone, fp.CWBL(1), fp.CW(0), fp.CWBL(0)),
		fp.NewSOS(fp.Init0, fp.CWBL(1), fp.R(0)),
	)
}

// TestProtocolMatchesFullOperations holds the analysis protocol, which
// issues every operation as Memory.Idle (the precharge) followed by the
// access-only Write or Read, to full Model.Write and Model.Read calls
// after the same setup: the victim bit, the read value, every node
// voltage and the clock must agree bit for bit.
func TestProtocolMatchesFullOperations(t *testing.T) {
	p := DefaultParams()
	for _, id := range []int{4, 9} {
		open, ok := defect.ByID(id)
		if !ok {
			t.Fatalf("open %d missing", id)
		}
		group := open.Floats[0]
		for _, rdef := range []float64{1e5, 1e7} {
			for _, u := range []float64{0, 1.65, 3.3} {
				for _, sos := range protocolSOSes() {
					var viaProtocol *memory
					factory := func(o defect.Open, r float64) (analysis.Memory, error) {
						m, err := NewFactory(p)(o, r)
						viaProtocol = m.(*memory)
						return m, err
					}
					out, err := analysis.RunSOS(factory, open, rdef, group.Nets, u, sos)
					if err != nil {
						t.Fatal(err)
					}
					ref, read := fullOperations(t, p, open, rdef, group.Nets, u, sos)
					label := func() string { return open.Name() + " " + sos.String() }
					if out.F != ref.CellBit(0) {
						t.Errorf("%s at %g Ω, %g V: victim bit %d, full operations %d", label(), rdef, u, out.F, ref.CellBit(0))
					}
					if out.R != read {
						t.Errorf("%s at %g Ω, %g V: read %v, full operations %v", label(), rdef, u, out.R, read)
					}
					got := viaProtocol.m
					for n := range ref.v {
						if math.Float64bits(got.v[n]) != math.Float64bits(ref.v[n]) {
							t.Errorf("%s at %g Ω, %g V: node %d %v, full operations %v", label(), rdef, u, n, got.v[n], ref.v[n])
						}
					}
					if math.Float64bits(got.time) != math.Float64bits(ref.time) {
						t.Errorf("%s at %g Ω, %g V: clock %v, full operations %v", label(), rdef, u, got.time, ref.time)
					}
				}
			}
		}
	}
}

// fullOperations builds the model NewFactory builds, applies the SOS's
// setup, and runs its operations as full Write and Read calls (an SOS
// without operations is one Precharge). It returns the model and the
// final victim read's result when the SOS ends with one.
func fullOperations(t *testing.T, p Params, open defect.Open, rdef float64, nets []string, u float64, sos fp.SOS) (*Model, fp.ReadResult) {
	t.Helper()
	m := New(p)
	m.SetSiteResistance(open.Site, rdef)
	for _, x := range open.Extra {
		ohms := x.Ohms
		if ohms == 0 {
			ohms = rdef
		}
		m.SetSiteResistance(x.Site, ohms)
	}
	switch sos.Init {
	case fp.Init0:
		m.SetNodeVoltages(0, dram.NetCell0Store)
	case fp.Init1:
		m.SetNodeVoltages(p.Tech.VDD, dram.NetCell0Store)
	}
	m.SetNodeVoltages(u, nets...)
	read := fp.RNone
	for i, op := range sos.Ops {
		cell := 0
		if op.Target == fp.TargetBitLine {
			cell = 1
		}
		if op.Kind == fp.OpWrite {
			if err := m.Write(cell, op.Data); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := m.Read(cell)
		if err != nil {
			t.Fatal(err)
		}
		if cell == 0 && i == len(sos.Ops)-1 {
			read = fp.ReadResultOf(got)
		}
	}
	if len(sos.Ops) == 0 {
		if err := m.Precharge(); err != nil {
			t.Fatal(err)
		}
	}
	return m, read
}
