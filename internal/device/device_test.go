package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/numeric"
)

// stampOnce builds a tiny context and stamps a single element.
func stampOnce(e circuit.Element, size int, x, xPrev []float64, dt, tm float64) (*numeric.Matrix, []float64) {
	a := numeric.NewMatrix(size, size)
	b := make([]float64, size)
	ctx := &circuit.StampContext{A: a, B: b, X: x, XPrev: xPrev, Dt: dt, Time: tm}
	e.Stamp(ctx)
	return a, b
}

func TestResistorStamp(t *testing.T) {
	r := NewResistor("R1", 1, 2, 100)
	a, _ := stampOnce(r, 2, []float64{0, 0}, []float64{0, 0}, 0, 0)
	g := 0.01
	if a.At(0, 0) != g || a.At(1, 1) != g || a.At(0, 1) != -g || a.At(1, 0) != -g {
		t.Errorf("resistor stamp wrong: %v", a)
	}
}

func TestResistorToGroundStamp(t *testing.T) {
	r := NewResistor("R1", 1, 0, 200)
	a, _ := stampOnce(r, 1, []float64{0}, []float64{0}, 0, 0)
	if a.At(0, 0) != 0.005 {
		t.Errorf("grounded resistor stamp = %g, want 0.005", a.At(0, 0))
	}
}

func TestResistorSetResistance(t *testing.T) {
	r := NewResistor("R1", 1, 0, 100)
	r.SetResistance(500)
	if r.Resistance() != 500 {
		t.Errorf("Resistance = %g, want 500", r.Resistance())
	}
	defer func() {
		if recover() == nil {
			t.Error("SetResistance(0) should panic")
		}
	}()
	r.SetResistance(0)
}

func TestCapacitorStampDCIsOpen(t *testing.T) {
	c := NewCapacitor("C1", 1, 0, 1e-12)
	a, b := stampOnce(c, 1, []float64{1}, []float64{1}, 0, 0)
	if a.At(0, 0) != 0 || b[0] != 0 {
		t.Error("capacitor must not stamp at DC")
	}
}

func TestCapacitorCompanionHoldsVoltage(t *testing.T) {
	// With no other current, solving the 1-node system must return the
	// previous voltage exactly (companion model consistency).
	c := NewCapacitor("C1", 1, 0, 1e-12)
	xPrev := []float64{2.5}
	a, b := stampOnce(c, 1, xPrev, xPrev, 1e-9, 0)
	v := b[0] / a.At(0, 0)
	if math.Abs(v-2.5) > 1e-12 {
		t.Errorf("companion model drift: v = %g, want 2.5", v)
	}
}

func TestPWLInterpolation(t *testing.T) {
	p := NewPWL([2]float64{0, 0}, [2]float64{1, 10}, [2]float64{3, 10}, [2]float64{4, 0})
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {2, 10}, {3.5, 5}, {4, 0}, {9, 0},
	}
	for _, c := range cases {
		if got := p.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PWL.At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestPWLAppendAndLast(t *testing.T) {
	p := NewPWL([2]float64{0, 1})
	p.Append(2, 5)
	if p.Last() != 2 {
		t.Errorf("Last = %g, want 2", p.Last())
	}
	if got := p.At(1); got != 3 {
		t.Errorf("At(1) = %g, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Append with non-increasing time should panic")
		}
	}()
	p.Append(1, 0)
}

func TestPWLValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPWL with no points should panic")
		}
	}()
	NewPWL()
}

func TestDCWaveform(t *testing.T) {
	if DC(2.2).At(123) != 2.2 {
		t.Error("DC waveform must be constant")
	}
}

func TestLevel1Regions(t *testing.T) {
	beta, vt, lambda := 1e-3, 0.5, 0.0
	// Cutoff.
	if id, gm, gds := level1(beta, vt, lambda, 0.3, 1.0); id != 0 || gm != 0 || gds != 0 {
		t.Error("cutoff must give zero current and conductances")
	}
	// Saturation: id = beta/2 (vgs−vt)².
	id, gm, _ := level1(beta, vt, lambda, 1.5, 3.0)
	wantID := beta / 2 * 1.0 * 1.0
	if math.Abs(id-wantID) > 1e-15 {
		t.Errorf("sat id = %g, want %g", id, wantID)
	}
	if math.Abs(gm-beta*1.0) > 1e-15 {
		t.Errorf("sat gm = %g, want %g", gm, beta)
	}
	// Triode: id = beta((vgs−vt)vds − vds²/2).
	idT, _, gdsT := level1(beta, vt, lambda, 1.5, 0.2)
	wantT := beta * (1.0*0.2 - 0.02)
	if math.Abs(idT-wantT) > 1e-15 {
		t.Errorf("triode id = %g, want %g", idT, wantT)
	}
	if gdsT <= 0 {
		t.Error("triode gds must be positive")
	}
}

// TestLevel1ContinuityProperty: the current is continuous across the
// triode/saturation boundary (vds = vov) and monotone in vgs.
func TestLevel1ContinuityProperty(t *testing.T) {
	prop := func(vgsRaw, vdsRaw uint16) bool {
		beta, vt, lambda := 2e-4, 0.55, 0.05
		vgs := float64(vgsRaw%330) / 100 // 0..3.3
		vov := vgs - vt
		if vov <= 0.01 {
			return true
		}
		// Continuity across the boundary.
		lo, _, _ := level1(beta, vt, lambda, vgs, vov-1e-9)
		hi, _, _ := level1(beta, vt, lambda, vgs, vov+1e-9)
		if math.Abs(lo-hi) > 1e-9*beta {
			return false
		}
		// Monotone in vgs at fixed vds.
		vds := float64(vdsRaw%330) / 100
		a, _, _ := level1(beta, vt, lambda, vgs, vds)
		b, _, _ := level1(beta, vt, lambda, vgs+0.1, vds)
		return b >= a
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevel1DerivativesMatchFiniteDifference(t *testing.T) {
	beta, vt, lambda := 3e-4, 0.55, 0.05
	h := 1e-7
	for _, pt := range [][2]float64{{1.2, 0.3}, {1.2, 2.5}, {2.8, 0.9}, {2.8, 3.0}} {
		vgs, vds := pt[0], pt[1]
		id, gm, gds := level1(beta, vt, lambda, vgs, vds)
		idG, _, _ := level1(beta, vt, lambda, vgs+h, vds)
		idD, _, _ := level1(beta, vt, lambda, vgs, vds+h)
		fdGm := (idG - id) / h
		fdGds := (idD - id) / h
		if math.Abs(fdGm-gm) > 1e-3*beta+1e-6*math.Abs(gm) {
			t.Errorf("gm mismatch at %v: analytic %g, FD %g", pt, gm, fdGm)
		}
		if math.Abs(fdGds-gds) > 1e-3*beta+1e-6*math.Abs(gds) {
			t.Errorf("gds mismatch at %v: analytic %g, FD %g", pt, gds, fdGds)
		}
	}
}

func TestMOSFETPolarityValidation(t *testing.T) {
	n := DefaultNMOS()
	n.Vt0 = -0.5
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewNMOS with negative Vt0 should panic")
			}
		}()
		NewNMOS("M", 1, 2, 0, n)
	}()
	p := DefaultPMOS()
	p.Vt0 = 0.5
	defer func() {
		if recover() == nil {
			t.Error("NewPMOS with positive Vt0 should panic")
		}
	}()
	NewPMOS("M", 1, 2, 0, p)
}

func TestMOSFETDrainCurrentSigns(t *testing.T) {
	// NMOS conducting: current flows d→s (positive).
	n := NewNMOS("MN", 1, 2, 0, DefaultNMOS())
	v := func(idx int) float64 {
		switch idx {
		case 1:
			return 3.3 // drain
		case 2:
			return 3.3 // gate
		}
		return 0
	}
	if i := n.DrainCurrent(v); i <= 0 {
		t.Errorf("NMOS conduction current = %g, want > 0", i)
	}
	// PMOS with source at VDD (node1), gate 0, drain 0V (ground): current
	// flows source→drain, i.e. from node 1 toward ground: the returned
	// effective-drain→source current is negative in primed space mapping.
	p := NewPMOS("MP", 3, 2, 1, DefaultPMOS())
	vp := func(idx int) float64 {
		switch idx {
		case 1:
			return 3.3 // source at VDD
		case 2:
			return 0 // gate low → on
		case 3:
			return 1.0 // drain
		}
		return 0
	}
	if i := p.DrainCurrent(vp); i == 0 {
		t.Error("PMOS should conduct with Vgs = −3.3V")
	}
}

func TestSwitchConductanceBand(t *testing.T) {
	s := NewSwitch("S", 1, 2, 3, 0, 1.0, 10, 1e9)
	if g := s.conductance(0); g != 1e-9 {
		t.Errorf("off conductance = %g, want 1e-9", g)
	}
	if g := s.conductance(2); g != 0.1 {
		t.Errorf("on conductance = %g, want 0.1", g)
	}
	mid := s.conductance(1.0)
	if mid <= 1e-9 || mid >= 0.1 {
		t.Errorf("band conductance = %g, want strictly between off and on", mid)
	}
}

func TestSwitchValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSwitch with Ron >= Roff should panic")
		}
	}()
	NewSwitch("S", 1, 2, 3, 0, 1, 100, 100)
}

func TestVSourceRequiresWaveform(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewVSource(nil waveform) should panic")
		}
	}()
	NewVSource("V", 1, 0, nil)
}

func TestNegativeComponentValuesPanic(t *testing.T) {
	func() {
		defer func() { _ = recover() }()
		NewResistor("R", 1, 0, -5)
		t.Error("negative resistance should panic")
	}()
	func() {
		defer func() { _ = recover() }()
		NewCapacitor("C", 1, 0, 0)
		t.Error("zero capacitance should panic")
	}()
}

// checkFootprint stamps el into a zeroed full-size context at iterate x
// and reports every entry whose bits are not +0's outside el's
// footprint: the engine watches only footprint positions for entries
// outside its learned LU pattern.
func checkFootprint(t *testing.T, el circuit.Footprinter, x []float64) {
	t.Helper()
	n := len(x)
	a, _ := stampOnce(el, n, x, make([]float64, n), 1e-10, 0)
	in := map[[2]int]bool{}
	for _, rc := range el.Footprint() {
		in[rc] = true
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := a.At(i, j); math.Float64bits(v) != 0 && !in[[2]int{i, j}] {
				t.Fatalf("%s stamped %g at (%d, %d), outside its footprint %v; x = %v", el.Name(), v, i, j, el.Footprint(), x)
			}
		}
	}
}

// TestStampsStayInFootprint holds NMOS, PMOS and switch stamps to their
// footprints at random operating points: every MOSFET region in both
// drain–source orientations, and every switch control voltage below,
// inside and above its band, with terminals on distinct nodes, on a
// shared node and on ground.
func TestStampsStayInFootprint(t *testing.T) {
	const size = 4 // nodes 1..4; terminals are drawn from 0..4
	rng := rand.New(rand.NewSource(1))
	terminals := func(k int) []int {
		for {
			out := make([]int, k)
			for i := range out {
				out[i] = rng.Intn(size + 1)
			}
			if out[0] != out[len(out)-1] { // no self-looped channel
				return out
			}
		}
	}
	iterate := func() []float64 {
		x := make([]float64, size)
		for i := range x {
			x[i] = -0.5 + 4.5*rng.Float64()
		}
		return x
	}
	v := func(x []float64, node int) float64 {
		if node == 0 {
			return 0
		}
		return x[node-1]
	}
	for _, pmos := range []bool{false, true} {
		// seen[region][swapped]: region 0 cutoff, 1 triode, 2 saturation.
		var seen [3][2]int
		for trial := 0; trial < 3000; trial++ {
			tm := terminals(3)
			d, g, s := tm[0], tm[1], tm[2]
			m := NewNMOS("MN", d, g, s, DefaultNMOS())
			if pmos {
				m = NewPMOS("MP", d, g, s, DefaultPMOS())
			}
			x := iterate()
			checkFootprint(t, m, x)
			_, _, _, vgs, vds, dEff, _, _ := m.bias(v(x, d), v(x, g), v(x, s))
			vt := math.Abs(m.p.Vt0)
			region := 2
			switch {
			case vgs-vt <= 0:
				region = 0
			case vds < vgs-vt:
				region = 1
			}
			swapped := 0
			if dEff != d {
				swapped = 1
			}
			seen[region][swapped]++
		}
		for r := range seen {
			for o := range seen[r] {
				if seen[r][o] == 0 {
					t.Errorf("pmos=%v: no operating point in region %d with swapped=%d", pmos, r, o)
				}
			}
		}
	}
	var band [3]int // below, inside, above
	for trial := 0; trial < 300; trial++ {
		tm := terminals(4)
		a, ctrl, ref, b := tm[0], tm[1], tm[2], tm[3]
		if ctrl == ref {
			continue
		}
		sw := NewSwitch("S", a, b, ctrl, ref, 1.0, 10, 1e9)
		x := iterate()
		// Put the control voltage below, inside or above the band.
		vc := sw.threshold + sw.band*(float64(trial%3)-1+0.8*(rng.Float64()-0.5))
		if ctrl != 0 {
			x[ctrl-1] = v(x, ref) + vc
		} else {
			x[ref-1] = -vc
		}
		checkFootprint(t, sw, x)
		lo, hi := sw.threshold-sw.band/2, sw.threshold+sw.band/2
		switch got := v(x, ctrl) - v(x, ref); {
		case got <= lo:
			band[0]++
		case got >= hi:
			band[2]++
		default:
			band[1]++
		}
	}
	for i, n := range band {
		if n == 0 {
			t.Errorf("no switch control voltage in band zone %d (below, inside, above)", i)
		}
	}
}
