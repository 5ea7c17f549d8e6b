package spice

import (
	"errors"
	"math"
	"testing"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/device"
)

func buildDivider() (*circuit.Circuit, string) {
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	mid := ckt.Node("mid")
	ckt.Add(device.NewVSource("V1", vdd, 0, device.DC(3.3)))
	ckt.Add(device.NewResistor("R1", vdd, mid, 1e3))
	ckt.Add(device.NewResistor("R2", mid, 0, 2e3))
	ckt.Freeze()
	return ckt, "mid"
}

func TestOperatingPointDivider(t *testing.T) {
	ckt, mid := buildDivider()
	e := MustNewEngine(ckt, DefaultOptions())
	if err := e.OperatingPoint(); err != nil {
		t.Fatalf("OperatingPoint: %v", err)
	}
	want := 3.3 * 2.0 / 3.0
	if got := e.Voltage(mid); math.Abs(got-want) > 1e-6 {
		t.Errorf("divider mid = %gV, want %gV", got, want)
	}
	if got := e.Voltage("vdd"); math.Abs(got-3.3) > 1e-9 {
		t.Errorf("vdd = %gV, want 3.3V", got)
	}
}

func TestTransientRCCharge(t *testing.T) {
	// Series RC charging from 0 to 3.3V: v(t) = V·(1 − exp(−t/RC)).
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	out := ckt.Node("out")
	r := 100e3
	c := 100e-15 // τ = 10 ns
	ckt.Add(device.NewVSource("V1", vdd, 0, device.DC(3.3)))
	ckt.Add(device.NewResistor("R1", vdd, out, r))
	ckt.Add(device.NewCapacitor("C1", out, 0, c))
	ckt.Freeze()

	e := MustNewEngine(ckt, DefaultOptions())
	// Start with the cap discharged (skip OP, which would charge it).
	tau := r * c
	if err := e.Run(tau, 400, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := 3.3 * (1 - math.Exp(-1))
	got := e.Voltage("out")
	// Backward Euler with 400 steps/τ is accurate to ~0.2%.
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("v(τ) = %gV, want %gV (±1%%)", got, want)
	}
}

func TestTransientRCDischargeFromSetVoltage(t *testing.T) {
	// A floating capacitor initialized via SetNodeVoltage and discharged
	// through a resistor to ground: v(t) = U·exp(−t/RC). This exercises
	// the exact mechanism the fault analysis uses to initialize floating
	// line voltages.
	ckt := circuit.New()
	out := ckt.Node("out")
	r := 50e3
	c := 200e-15 // τ = 10 ns
	ckt.Add(device.NewResistor("R1", out, 0, r))
	ckt.Add(device.NewCapacitor("C1", out, 0, c))
	ckt.Freeze()

	e := MustNewEngine(ckt, DefaultOptions())
	e.SetNodeVoltage("out", 2.0)
	tau := r * c
	if err := e.Run(2*tau, 800, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := 2.0 * math.Exp(-2)
	got := e.Voltage("out")
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("v(2τ) = %gV, want %gV (±2%%)", got, want)
	}
}

func TestFloatingNodeHoldsVoltage(t *testing.T) {
	// A capacitor with only gmin leakage must hold its voltage over a
	// nanosecond-scale simulation — the "floating line" premise of the
	// partial-fault model.
	ckt := circuit.New()
	fl := ckt.Node("float")
	ckt.Add(device.NewCapacitor("C1", fl, 0, 250e-15))
	ckt.Freeze()

	e := MustNewEngine(ckt, DefaultOptions())
	e.SetNodeVoltage("float", 1.7)
	if err := e.Run(100e-9, 100, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e.Voltage("float"); math.Abs(got-1.7) > 1e-3 {
		t.Errorf("floating node drifted to %gV, want ≈1.7V", got)
	}
}

func TestPWLSourceTransient(t *testing.T) {
	ckt := circuit.New()
	in := ckt.Node("in")
	ramp := device.NewPWL([2]float64{0, 0}, [2]float64{10e-9, 3.3})
	ckt.Add(device.NewVSource("V1", in, 0, ramp))
	ckt.Add(device.NewResistor("Rload", in, 0, 1e6))
	ckt.Freeze()

	e := MustNewEngine(ckt, DefaultOptions())
	if err := e.Run(5e-9, 50, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e.Voltage("in"); math.Abs(got-1.65) > 1e-6 {
		t.Errorf("PWL at 5ns = %gV, want 1.65V", got)
	}
}

func TestNMOSInverterTransfer(t *testing.T) {
	// NMOS with resistive pull-up: low input → output high;
	// high input → output pulled near ground.
	build := func(vin float64) *Engine {
		ckt := circuit.New()
		vdd := ckt.Node("vdd")
		in := ckt.Node("in")
		out := ckt.Node("out")
		ckt.Add(device.NewVSource("VDD", vdd, 0, device.DC(3.3)))
		ckt.Add(device.NewVSource("VIN", in, 0, device.DC(vin)))
		ckt.Add(device.NewResistor("RL", vdd, out, 10e3))
		p := device.DefaultNMOS()
		p.W = 10e-6
		ckt.Add(device.NewNMOS("M1", out, in, 0, p))
		ckt.Freeze()
		return MustNewEngine(ckt, DefaultOptions())
	}

	eLow := build(0)
	if err := eLow.OperatingPoint(); err != nil {
		t.Fatalf("OP(low): %v", err)
	}
	if got := eLow.Voltage("out"); got < 3.2 {
		t.Errorf("inverter out with Vin=0 = %gV, want ≈3.3V", got)
	}

	eHigh := build(3.3)
	if err := eHigh.OperatingPoint(); err != nil {
		t.Fatalf("OP(high): %v", err)
	}
	if got := eHigh.Voltage("out"); got > 0.3 {
		t.Errorf("inverter out with Vin=3.3 = %gV, want < 0.3V", got)
	}
}

func TestPMOSPullUp(t *testing.T) {
	// PMOS source at VDD, gate at 0 → conducts, pulls output to VDD.
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	gate := ckt.Node("g")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("VDD", vdd, 0, device.DC(3.3)))
	ckt.Add(device.NewVSource("VG", gate, 0, device.DC(0)))
	p := device.DefaultPMOS()
	p.W = 10e-6
	ckt.Add(device.NewPMOS("M1", out, gate, vdd, p))
	ckt.Add(device.NewResistor("RL", out, 0, 10e3))
	ckt.Freeze()

	e := MustNewEngine(ckt, DefaultOptions())
	if err := e.OperatingPoint(); err != nil {
		t.Fatalf("OP: %v", err)
	}
	if got := e.Voltage("out"); got < 3.0 {
		t.Errorf("PMOS pull-up out = %gV, want ≈3.3V", got)
	}
}

func TestMOSPassTransistorChargesCap(t *testing.T) {
	// The DRAM access-device pattern: NMOS pass gate between a driven
	// bit line and a cell capacitor. With the gate boosted above
	// VDD + Vt the cell must charge to the full bit-line voltage.
	ckt := circuit.New()
	bl := ckt.Node("bl")
	cell := ckt.Node("cell")
	wl := ckt.Node("wl")
	ckt.Add(device.NewVSource("VBL", bl, 0, device.DC(3.3)))
	ckt.Add(device.NewVSource("VWL", wl, 0, device.DC(4.5))) // boosted
	ckt.Add(device.NewNMOS("Mpass", bl, wl, cell, device.DefaultNMOS()))
	ckt.Add(device.NewCapacitor("Ccell", cell, 0, 30e-15))
	ckt.Freeze()

	e := MustNewEngine(ckt, DefaultOptions())
	if err := e.Run(10e-9, 200, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e.Voltage("cell"); got < 3.2 {
		t.Errorf("cell charged to %gV, want ≈3.3V", got)
	}
}

func TestSwitchConnectsAndIsolates(t *testing.T) {
	build := func(ctrl float64) *Engine {
		ckt := circuit.New()
		vdd := ckt.Node("vdd")
		out := ckt.Node("out")
		c := ckt.Node("ctl")
		ckt.Add(device.NewVSource("V1", vdd, 0, device.DC(3.3)))
		ckt.Add(device.NewVSource("VC", c, 0, device.DC(ctrl)))
		ckt.Add(device.NewSwitch("S1", vdd, out, c, 0, 1.65, 100, 1e12))
		ckt.Add(device.NewResistor("RL", out, 0, 10e3))
		ckt.Freeze()
		return MustNewEngine(ckt, DefaultOptions())
	}
	on := build(3.3)
	if err := on.OperatingPoint(); err != nil {
		t.Fatalf("OP(on): %v", err)
	}
	if got := on.Voltage("out"); got < 3.2 {
		t.Errorf("closed switch out = %gV, want ≈3.3V", got)
	}
	off := build(0)
	if err := off.OperatingPoint(); err != nil {
		t.Fatalf("OP(off): %v", err)
	}
	if got := off.Voltage("out"); got > 0.01 {
		t.Errorf("open switch out = %gV, want ≈0V", got)
	}
}

func TestEngineStepPanicsOnBadDt(t *testing.T) {
	ckt, _ := buildDivider()
	e := MustNewEngine(ckt, DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Error("Step(0) should panic")
		}
	}()
	_ = e.Step(0)
}

// noFootprint hides an element's stamp footprint.
type noFootprint struct{ circuit.Element }

// TestElementWithoutFootprintWatchesEveryPosition: a nonlinear element
// that lists no footprint makes every position a candidate, so the
// workspace scans the whole Jacobian, and the engine computes the same
// bits and pattern growths as with the footprint.
func TestElementWithoutFootprintWatchesEveryPosition(t *testing.T) {
	run := func(hide bool) (*Engine, []float64) {
		ckt := circuit.New()
		g, a, b, c := ckt.Node("g"), ckt.Node("a"), ckt.Node("b"), ckt.Node("c")
		ckt.MustAdd(device.NewVSource("VG", g, 0, device.NewPWL([2]float64{0, 0}, [2]float64{5e-9, 3.3})))
		ckt.MustAdd(device.NewCapacitor("CA", a, 0, 50e-15))
		ckt.MustAdd(device.NewCapacitor("CB", b, 0, 50e-15))
		ckt.MustAdd(device.NewResistor("RBC", b, c, 10e3))
		ckt.MustAdd(device.NewCapacitor("CC", c, 0, 50e-15))
		// The pass transistor alone couples a and b, so its first
		// conducting step widens the pattern.
		var m circuit.Element = device.NewNMOS("M1", a, g, b, device.DefaultNMOS())
		if hide {
			m = noFootprint{m}
		}
		ckt.MustAdd(m)
		ckt.Freeze()
		e := MustNewEngine(ckt, DefaultOptions())
		e.SetNodeVoltage("a", 2)
		var v []float64
		if err := e.Run(10e-9, 100, func(e *Engine) { v = append(v, e.Voltage("a"), e.Voltage("b"), e.Voltage("c")) }); err != nil {
			t.Fatalf("hide=%v: %v", hide, err)
		}
		return e, v
	}
	shown, want := run(false)
	hidden, got := run(true)
	if nf := len(hidden.free); len(hidden.cands) != nf*nf || len(shown.cands) >= nf*nf {
		t.Fatalf("candidates: %d without the footprint, %d with it, of %d positions", len(hidden.cands), len(shown.cands), nf*nf)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("voltage %d = %v without the footprint, %v with it", i, got[i], want[i])
		}
	}
	_, _, gs := shown.FactorizationCounts()
	_, _, gh := hidden.FactorizationCounts()
	if gs != gh || gs < 2 {
		t.Errorf("pattern growths: %d with the footprint, %d without; want equal, and the base's plus the transistor's", gs, gh)
	}
}

// TestFailedStepRestoresClockExactly holds a failed Step to the clock it
// started from, bit for bit: undoing the advance by subtraction is not
// exact, since 0.1 + 0.2 − 0.2 is 0.10000000000000003.
func TestFailedStepRestoresClockExactly(t *testing.T) {
	ckt, _ := buildDivider()
	opts := DefaultOptions()
	opts.MaxNewtonIter = 1
	e := MustNewEngine(ckt, opts)
	e.RestoreState(make([]float64, ckt.Size()), 0.1)
	if err := e.Step(0.2); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("Step err = %v, want ErrNoConvergence", err)
	}
	if got := e.Time(); math.Float64bits(got) != math.Float64bits(0.1) {
		t.Errorf("Time() after a failed step = %v, want 0.1", got)
	}
}

// TestNaNIterateDoesNotConverge drives a resistor divider from a grounded
// DC source of NaN. Newton must not take the NaN iterate for a converged
// one: OperatingPoint and Step both fail and leave the previous solution
// and the clock as they were.
func TestNaNIterateDoesNotConverge(t *testing.T) {
	ckt := circuit.New()
	src, mid := ckt.Node("src"), ckt.Node("mid")
	ckt.MustAdd(device.NewVSource("V1", src, 0, device.DC(math.NaN())))
	ckt.MustAdd(device.NewResistor("R1", src, mid, 1e3))
	ckt.MustAdd(device.NewResistor("R2", mid, 0, 2e3))
	ckt.Freeze()
	e := MustNewEngine(ckt, DefaultOptions())
	prev := make([]float64, ckt.Size())
	prev[src-1], prev[mid-1] = 3.3, 2.2
	e.RestoreState(prev, 0.1)
	for _, solve := range []struct {
		name string
		run  func() error
	}{
		{"OperatingPoint", e.OperatingPoint},
		{"Step", func() error { return e.Step(1e-9) }},
	} {
		if err := solve.run(); !errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s err = %v, want ErrNoConvergence", solve.name, err)
		}
		x, tm := e.State()
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(prev[i]) {
				t.Errorf("%s: x[%d] = %v, want the previous %v", solve.name, i, x[i], prev[i])
			}
		}
		if math.Float64bits(tm) != math.Float64bits(0.1) {
			t.Errorf("%s: Time() = %v, want 0.1", solve.name, tm)
		}
	}
}

// TestNaNGuessConverges: a NaN in the starting guess is not a NaN
// system. The 3.3 V divider's free node starts at NaN; the first Newton
// iterate solves the linear system to a finite voltage, so the first
// delta (iterate minus guess) is NaN and the loop goes on, and the
// second iterate converges. OperatingPoint must succeed after exactly
// two factorizations with the bits of a solve from a zero guess, so the
// loop may not stop at the first NaN delta.
func TestNaNGuessConverges(t *testing.T) {
	solve := func(guess float64) ([]float64, uint64) {
		ckt, mid := buildDivider()
		e := MustNewEngine(ckt, DefaultOptions())
		i, ok := ckt.NodeIndex(mid)
		if !ok {
			t.Fatalf("no node %q", mid)
		}
		x, _ := e.State()
		x[i-1] = guess
		e.RestoreState(x, 0)
		if err := e.OperatingPoint(); err != nil {
			t.Fatalf("OperatingPoint from %v: %v", guess, err)
		}
		x, _ = e.State()
		f, _, _ := e.FactorizationCounts()
		return x, f
	}
	want, _ := solve(0)
	got, f := solve(math.NaN())
	if f != 2 {
		t.Errorf("OperatingPoint from a NaN guess ran %d factorizations, want 2", f)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("x[%d] = %v from a NaN guess, %v from zero", i, got[i], want[i])
		}
	}
}

func TestVoltageUnknownNetPanics(t *testing.T) {
	ckt, _ := buildDivider()
	e := MustNewEngine(ckt, DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Error("Voltage(unknown) should panic")
		}
	}()
	e.Voltage("nope")
}

// TestNewEngineRejectsUnfrozenCircuit reproduces the stale-branch-index
// misuse the Frozen guard exists for: building an engine before
// circuit.Freeze would stamp voltage sources through provisional branch
// indices that alias node unknowns once more nets are added. The guard
// turns that silent corruption into a construction-order error.
func TestNewEngineRejectsUnfrozenCircuit(t *testing.T) {
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	ckt.MustAdd(device.NewVSource("V1", vdd, 0, device.DC(3.3)))
	ckt.Node("late") // added after V1: V1's provisional branch index is now stale
	//lint:ignore branch-freeze this test exists to exercise the run-time guard the rule mirrors
	if _, err := NewEngine(ckt, DefaultOptions()); err == nil {
		t.Fatal("NewEngine must reject an unfrozen circuit")
	}
	ckt.Freeze()
	e, err := NewEngine(ckt, DefaultOptions())
	if err != nil {
		t.Fatalf("NewEngine after Freeze: %v", err)
	}
	if err := e.OperatingPoint(); err != nil {
		t.Fatalf("OperatingPoint: %v", err)
	}
	if got := e.Voltage("vdd"); math.Abs(got-3.3) > 1e-9 {
		t.Errorf("vdd = %gV, want 3.3V", got)
	}
}

func TestNewEngineRejectsEmptyCircuit(t *testing.T) {
	ckt := circuit.New()
	ckt.Freeze()
	if _, err := NewEngine(ckt, DefaultOptions()); err == nil {
		t.Fatal("NewEngine must reject an empty circuit")
	}
}

func TestISourceChargesCapacitorLinearly(t *testing.T) {
	// i = C dv/dt → a constant current charges linearly: v(t) = I·t/C.
	ckt := circuit.New()
	out := ckt.Node("out")
	ckt.Add(device.NewISource("I1", 0, out, device.DC(1e-6))) // 1 µA into out
	ckt.Add(device.NewCapacitor("C1", out, 0, 1e-12))
	ckt.Freeze()
	e := MustNewEngine(ckt, DefaultOptions())
	if err := e.Run(1e-6, 100, nil); err != nil {
		t.Fatal(err)
	}
	want := 1e-6 * 1e-6 / 1e-12 // = 1 V
	if got := e.Voltage("out"); math.Abs(got-want) > 0.01 {
		t.Errorf("cap charged to %gV, want %gV", got, want)
	}
}

func TestISourceIntoResistor(t *testing.T) {
	ckt := circuit.New()
	out := ckt.Node("out")
	ckt.Add(device.NewISource("I1", 0, out, device.DC(1e-3)))
	ckt.Add(device.NewResistor("R1", out, 0, 1e3))
	ckt.Freeze()
	e := MustNewEngine(ckt, DefaultOptions())
	if err := e.OperatingPoint(); err != nil {
		t.Fatal(err)
	}
	if got := e.Voltage("out"); math.Abs(got-1.0) > 1e-6 {
		t.Errorf("v = %gV, want 1V", got)
	}
}

func TestISourceRequiresWaveform(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewISource(nil) should panic")
		}
	}()
	device.NewISource("I", 1, 0, nil)
}
