package analysis_test

import (
	"math"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
)

// TestProtocolMatchesFullOperationsSpice holds the analysis protocol on
// the electrical column, which issues every operation as Memory.Idle
// (the precharge) followed by the access-only Write or Read, to full
// Column.Write and Column.Read calls after the same setup: the victim
// bit, the read value and every node voltage must agree bit for bit.
// (internal/behav holds the analytical model to the same rule.)
func TestProtocolMatchesFullOperationsSpice(t *testing.T) {
	tech := dram.Default()
	open := mustOpen(t, 4)
	group := open.Floats[0]
	soses := append(analysis.StaticSOSes(),
		fp.NewSOS(fp.InitNone, fp.CWBL(1), fp.CW(0), fp.CWBL(0)),
		fp.NewSOS(fp.Init0, fp.CWBL(1), fp.R(0)),
	)
	const rdef = 1e6
	for _, u := range []float64{0, 3.3} {
		for _, sos := range soses {
			var viaProtocol analysis.VoltageProber
			factory := func(o defect.Open, r float64) (analysis.Memory, error) {
				m, err := analysis.NewSpiceFactory(tech)(o, r)
				if err == nil {
					viaProtocol = m.(analysis.VoltageProber)
				}
				return m, err
			}
			out, err := analysis.RunSOS(factory, open, rdef, group.Nets, u, sos)
			if err != nil {
				t.Fatal(err)
			}

			col := dram.MustNewColumn(tech)
			col.SetSiteResistance(open.Site, rdef)
			if err := col.PowerUp(); err != nil {
				t.Fatal(err)
			}
			switch sos.Init {
			case fp.Init0:
				col.SetNodeVoltages(0, dram.NetCell0Store)
			case fp.Init1:
				col.SetNodeVoltages(tech.VDD, dram.NetCell0Store)
			}
			col.SetNodeVoltages(u, group.Nets...)
			read := fp.RNone
			for i, op := range sos.Ops {
				cell := 0
				if op.Target == fp.TargetBitLine {
					cell = 1
				}
				if op.Kind == fp.OpWrite {
					err = col.Write(cell, op.Data)
				} else {
					var got int
					got, err = col.Read(cell)
					if cell == 0 && i == len(sos.Ops)-1 {
						read = fp.ReadResultOf(got)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(sos.Ops) == 0 {
				if err := col.Precharge(); err != nil {
					t.Fatal(err)
				}
			}

			if out.F != col.CellBit(0) || out.R != read {
				t.Errorf("%q at u=%g: protocol (F=%d, R=%v), full operations (F=%d, R=%v)", sos, u, out.F, out.R, col.CellBit(0), read)
			}
			for _, net := range col.Circuit().NodeNames() {
				got, want := viaProtocol.NetVoltage(net), col.Voltage(net)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%q at u=%g: %s = %v, full operations %v", sos, u, net, got, want)
				}
			}
		}
	}
}
