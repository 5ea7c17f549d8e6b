package behav

import (
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
)

func TestHealthyWriteReadRoundTrip(t *testing.T) {
	m := New(DefaultParams())
	for _, cell := range []int{0, 1} {
		for _, bit := range []int{1, 0, 1} {
			if err := m.Write(cell, bit); err != nil {
				t.Fatalf("Write(%d,%d): %v", cell, bit, err)
			}
			got, err := m.Read(cell)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got != bit {
				t.Errorf("cell %d: read %d after writing %d", cell, got, bit)
			}
		}
	}
}

func TestReadRestoresCell(t *testing.T) {
	m := New(DefaultParams())
	if err := m.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got, _ := m.Read(0); got != 1 {
			t.Fatalf("read %d returned %d", i, got)
		}
	}
	if v := m.CellVoltage(0); v < 0.8*m.P.Tech.VDD {
		t.Errorf("cell not restored: %gV", v)
	}
}

func TestCellIndependence(t *testing.T) {
	m := New(DefaultParams())
	if err := m.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Read(0); got != 1 {
		t.Error("cell 0 disturbed by cell 1 write")
	}
	if got, _ := m.Read(1); got != 0 {
		t.Error("cell 1 wrong")
	}
}

func TestUnknownNetAndSitePanic(t *testing.T) {
	m := New(DefaultParams())
	for name, fn := range map[string]func(){
		"voltage": func() { m.Voltage("nope") },
		"set":     func() { m.SetNodeVoltages(1, "nope") },
		"site":    func() { m.SetSiteResistance("nope", 1e3) },
		"badR":    func() { m.SetSiteResistance(dram.SiteOpen1Cell, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestOpen4MatchesSpiceModel cross-validates the analytical model against
// the electrical simulation on the paper's Figure 3(a) experiment: same
// qualitative region — RDF1 at low floating BL voltage for a large
// bit-line open, no fault at high voltage or small resistance.
func TestOpen4MatchesSpiceModel(t *testing.T) {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	sos := fp.NewSOS(fp.Init1, fp.R(1))
	spice := analysis.NewSpiceFactory(dram.Default())
	fast := NewFactory(DefaultParams())

	for _, tc := range []struct {
		rdef, u float64
	}{
		{1e3, 0}, {1e7, 0}, {1e7, 3.3}, {1e5, 0.5}, {1e5, 2.8},
	} {
		a, err := analysis.RunSOS(spice, o, tc.rdef, grp.Nets, tc.u, sos)
		if err != nil {
			t.Fatalf("spice point (%g,%g): %v", tc.rdef, tc.u, err)
		}
		b, err := analysis.RunSOS(fast, o, tc.rdef, grp.Nets, tc.u, sos)
		if err != nil {
			t.Fatalf("behav point (%g,%g): %v", tc.rdef, tc.u, err)
		}
		_, aF := analysis.ClassifyOutcome(sos, a)
		_, bF := analysis.ClassifyOutcome(sos, b)
		if aF != bF {
			t.Errorf("point (R=%g, U=%g): spice faulty=%v, behav faulty=%v", tc.rdef, tc.u, aF, bF)
		}
	}
}

// TestOpen1WedgeShape reproduces Figure 4(a)'s qualitative wedge in the
// analytical model: RDF0 onset at high floating cell voltage is at much
// lower R_def than at U = 0.
func TestOpen1WedgeShape(t *testing.T) {
	o, _ := defect.ByID(1)
	grp, _ := o.Float(defect.FloatMemoryCell)
	fast := NewFactory(DefaultParams())
	plane, err := analysis.SweepPlane(analysis.SweepConfig{
		Factory: fast, Open: o, Float: grp,
		SOS:   fp.NewSOS(fp.Init0, fp.R(0)),
		RDefs: []float64{1e4, 5e4, 1e5, 3e5, 1e6, 3e6},
		Us:    []float64{0, 1.6},
	})
	if err != nil {
		t.Fatalf("SweepPlane: %v", err)
	}
	onHigh, okH := plane.MinRDefWithFFM(fp.RDF0, 1)
	onLow, okL := plane.MinRDefWithFFM(fp.RDF0, 0)
	if !okH {
		t.Fatal("RDF0 never appears at U=1.6")
	}
	if okL && onLow <= onHigh {
		t.Errorf("onset at U=0 (%.0e) must exceed onset at U=1.6 (%.0e)", onLow, onHigh)
	}
}

// TestCompletionSearchFast runs the full completing-operation search on
// the analytical model for Open 4's RDF1 and expects the paper's result.
func TestCompletionSearchFast(t *testing.T) {
	o, _ := defect.ByID(4)
	grp, _ := o.Float(defect.FloatBitLine)
	comp, err := analysis.SearchCompletion(analysis.CompletionConfig{
		Factory: NewFactory(DefaultParams()), Open: o, Float: grp,
		Base:  fp.MustParse("<1r1/0/0>"),
		RDefs: []float64{1e6, 1e7},
		Us:    []float64{0, 0.8, 1.65, 2.5, 3.3},
	})
	if err != nil {
		t.Fatalf("SearchCompletion: %v", err)
	}
	if !comp.Possible {
		t.Fatal("completion must exist")
	}
	if got := comp.Completed.String(); got != "<1v [w0BL] r1v/0/0>" {
		t.Errorf("completed = %s, want <1v [w0BL] r1v/0/0>", got)
	}
}

func TestOpen9WordLineStateFault(t *testing.T) {
	// Open 9 with a floating-high word line: the cell charges from the
	// precharged bit line without any operation — the paper's SF0, which
	// no completing operation can fix ("Not possible").
	o, _ := defect.ByID(9)
	grp, _ := o.Float(defect.FloatWordLine)
	fast := NewFactory(DefaultParams())
	sos := fp.NewSOS(fp.Init0) // no operations: state fault
	// Floating WL high: cell connects to BL and charges up.
	out, err := analysis.RunSOS(fast, o, 1e8, grp.Nets, 4.0, sos)
	if err != nil {
		t.Fatal(err)
	}
	obs, faulty := analysis.ClassifyOutcome(sos, out)
	if !faulty {
		t.Fatal("floating-high WL must charge the cell (SF0)")
	}
	if obs.Classify() != fp.SF0 {
		t.Errorf("classified %s, want SF0", obs.Classify())
	}
	// Floating WL low: cell stays isolated, no fault.
	out, err = analysis.RunSOS(fast, o, 1e8, grp.Nets, 0, sos)
	if err != nil {
		t.Fatal(err)
	}
	if _, faulty := analysis.ClassifyOutcome(sos, out); faulty {
		t.Error("floating-low WL must leave the cell at 0")
	}
}

func TestOpen9CompletionNotPossible(t *testing.T) {
	// The word line cannot be manipulated by memory operations, so the
	// search must come back empty — Table 1's "Not possible".
	o, _ := defect.ByID(9)
	grp, _ := o.Float(defect.FloatWordLine)
	comp, err := analysis.SearchCompletion(analysis.CompletionConfig{
		Factory: NewFactory(DefaultParams()), Open: o, Float: grp,
		Base:  fp.MustParse("<0/1/->"),
		RDefs: []float64{1e8},
		Us:    []float64{0, 4.0},
	})
	if err != nil {
		t.Fatalf("SearchCompletion: %v", err)
	}
	if comp.Possible {
		t.Errorf("SF0 on Open 9 completed as %s; the paper proves this impossible", comp.Completed)
	}
}
