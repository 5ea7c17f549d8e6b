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

// drawTerminals draws k terminal nodes from 0..size (0 is ground), the
// first and last distinct so that no channel loops on itself.
func drawTerminals(rng *rand.Rand, size, k int) []int {
	for {
		out := make([]int, k)
		for i := range out {
			out[i] = rng.Intn(size + 1)
		}
		if out[0] != out[len(out)-1] {
			return out
		}
	}
}

// drawIterate draws node voltages for nodes 1..size from −0.5 to 4 V.
func drawIterate(rng *rand.Rand, size int) []float64 {
	x := make([]float64, size)
	for i := range x {
		x[i] = -0.5 + 4.5*rng.Float64()
	}
	return x
}

// v returns node's voltage in x, which holds nodes 1..len(x).
func v(x []float64, node int) float64 {
	if node == 0 {
		return 0
	}
	return x[node-1]
}

// TestStampsStayInFootprint holds NMOS, PMOS and switch stamps to their
// footprints at random operating points: every MOSFET region in both
// drain–source orientations, and every switch control voltage below,
// inside and above its band, with terminals on distinct nodes, on a
// shared node and on ground.
func TestStampsStayInFootprint(t *testing.T) {
	const size = 4 // nodes 1..4; terminals are drawn from 0..4
	rng := rand.New(rand.NewSource(1))
	terminals := func(k int) []int { return drawTerminals(rng, size, k) }
	iterate := func() []float64 { return drawIterate(rng, size) }
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

// stampFull is MOSFET.Stamp without its cut-off skip: every operating
// point stamps the conductance, the transconductance and the companion
// current. TestStampMatchesFullStamp holds Stamp to it bit for bit.
func stampFull(m *MOSFET, ctx *circuit.StampContext) {
	id, gm, gds, vgs, vds, d, s, sign := m.bias(ctx.V(m.d), ctx.V(m.g), ctx.V(m.s))
	ctx.StampConductance(d, s, gds)
	ctx.StampTransconductance(d, s, m.g, s, gm)
	ieq := sign * (id - float64(gm*vgs) - float64(gds*vds))
	ctx.StampCurrent(d, s, ieq)
}

// TestStampMatchesFullStamp holds MOSFET.Stamp, which skips a cut-off
// device, to the full stamp bit for bit. The operating points cover NMOS
// and PMOS in every region and both drain–source orientations, gates
// from a picovolt to a millivolt either side of threshold, and terminals
// on ground, on shared nodes and at ±Inf or NaN. Each point stamps into
// a full-size system and into a reduced one that pins some nodes, under
// the circuit.StampContext contract: A and B hold random finite entries,
// none −0, and PinnedX equals X at every pinned node.
func TestStampMatchesFullStamp(t *testing.T) {
	const size = 5 // nodes 1..5; terminals are drawn from 0..5
	rng := rand.New(rand.NewSource(2))
	entry := func() float64 {
		if rng.Intn(4) == 0 {
			return 0 // +0, as most entries of a real system are
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	system := func(n int) (*numeric.Matrix, []float64) {
		a, b := numeric.NewMatrix(n, n), make([]float64, n)
		for i := range a.Data() {
			a.Data()[i] = entry()
		}
		for i := range b {
			b[i] = entry()
		}
		return a, b
	}
	clone := func(a *numeric.Matrix, b []float64) (*numeric.Matrix, []float64) {
		a2 := numeric.NewMatrix(a.Rows(), a.Cols())
		copy(a2.Data(), a.Data())
		return a2, append([]float64(nil), b...)
	}
	sameBits := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	offsets := []float64{-1e-3, -1e-6, -1e-9, -1e-12, 0, 1e-12, 1e-9, 1e-6, 1e-3}
	// skipped[pmos][swapped] counts the points at which Stamp wrote
	// nothing; nearOn[pmos] those just above threshold (0 < vov <= 1 mV);
	// cutInf[pmos] those cut off at a non-finite vgs or vds.
	var skipped [2][2]int
	var nearOn, cutInf [2]int
	for trial := 0; trial < 6000; trial++ {
		pol := trial % 2
		tm := drawTerminals(rng, size, 3)
		d, g, s := tm[0], tm[1], tm[2]
		m := NewNMOS("MN", d, g, s, DefaultNMOS())
		if pol == 1 {
			m = NewPMOS("MP", d, g, s, DefaultPMOS())
		}
		x := drawIterate(rng, size)
		vt := math.Abs(m.p.Vt0)
		if g != 0 && g != d && g != s && rng.Intn(3) == 0 {
			// Put the gate off the effective source by vt plus a small
			// offset, in the device's own polarity.
			off := vt + offsets[rng.Intn(len(offsets))]
			if pol == 0 {
				x[g-1] = math.Min(v(x, d), v(x, s)) + off
			} else {
				x[g-1] = math.Max(v(x, d), v(x, s)) - off
			}
		}
		if rng.Intn(6) == 0 {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				if n := tm[rng.Intn(3)]; n != 0 {
					x[n-1] = nonFinite[rng.Intn(len(nonFinite))]
				}
			}
		}
		id, gm, gds, vgs, vds, dEff, _, _ := m.bias(v(x, d), v(x, g), v(x, s))
		zero := id == 0 && gm == 0 && gds == 0
		finite := vgs-vgs == 0 && vds-vds == 0
		if vov := vgs - vt; finite && vov > 0 && vov <= 1e-3 {
			nearOn[pol]++
		}
		if zero && !finite {
			cutInf[pol]++
		}

		// The full-size system, then a reduced one with random pins.
		for _, reduced := range []bool{false, true} {
			n := size
			var rowMap []int
			var pinnedX []float64
			if reduced {
				rowMap, pinnedX, n = make([]int, size), make([]float64, size), 0
				for i := range rowMap {
					// The last node stays free, so the system is never empty.
					if rng.Intn(3) == 0 && i < size-1 {
						rowMap[i] = -1
						pinnedX[i] = x[i]
					} else {
						rowMap[i] = n
						n++
					}
				}
			}
			a, b := system(n)
			aFull, bFull := clone(a, b)
			m.Stamp(&circuit.StampContext{A: a, B: b, X: x, RowMap: rowMap, PinnedX: pinnedX})
			stampFull(m, &circuit.StampContext{A: aFull, B: bFull, X: x, RowMap: rowMap, PinnedX: pinnedX})
			if !sameBits(a.Data(), aFull.Data()) || !sameBits(b, bFull) {
				t.Fatalf("%s d=%d g=%d s=%d x=%v rowMap=%v: Stamp left\nA %v B %v\nthe full stamp\nA %v B %v",
					m.Name(), d, g, s, x, rowMap, a.Data(), b, aFull.Data(), bFull)
			}
		}

		// −0 entries, which the contract rules out, make any addition
		// visible: the full stamp adds gds, never −0, to the diagonal
		// entry of a non-ground channel terminal, so only a skipped stamp
		// leaves them all −0.
		a, b := numeric.NewMatrix(size, size), make([]float64, size)
		for i := range a.Data() {
			a.Data()[i] = math.Copysign(0, -1)
		}
		for i := range b {
			b[i] = math.Copysign(0, -1)
		}
		aZero, bZero := clone(a, b)
		m.Stamp(&circuit.StampContext{A: a, B: b, X: x})
		skip := sameBits(a.Data(), aZero.Data()) && sameBits(b, bZero)
		if skip != (zero && finite) {
			t.Fatalf("%s d=%d g=%d s=%d x=%v: Stamp skipped=%v, want %v (id=%g gm=%g gds=%g vgs=%g vds=%g)",
				m.Name(), d, g, s, x, skip, zero && finite, id, gm, gds, vgs, vds)
		}
		if skip {
			swapped := 0
			if dEff != d {
				swapped = 1
			}
			skipped[pol][swapped]++
		}
	}
	for pol, name := range []string{"NMOS", "PMOS"} {
		for o := range skipped[pol] {
			if skipped[pol][o] == 0 {
				t.Errorf("%s: no skipped stamp with swapped=%d", name, o)
			}
		}
		if nearOn[pol] == 0 {
			t.Errorf("%s: no operating point within 1 mV above threshold", name)
		}
		if cutInf[pol] == 0 {
			t.Errorf("%s: no cut-off point at a non-finite vgs or vds", name)
		}
	}
	t.Logf("skipped [NMOS, PMOS][normal, swapped] = %v; near threshold %v; cut off at non-finite %v", skipped, nearOn, cutInf)
}
