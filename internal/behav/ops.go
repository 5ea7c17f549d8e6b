package behav

import (
	"fmt"
	"math"

	"github.com/memtest/partialfaults/internal/numeric"
)

// phase describes which control paths are active during an interval,
// mirroring the signals of dram/controller.go.
type phase struct {
	pre, dref      bool
	wl0, wl1, dwlc bool
	sen            bool
	csl, ren, wen  bool
	wdata          int
}

// run integrates the model over dur seconds with the given phase active,
// using a Jacobi-implicit nodal update per step: every node moves to the
// conductance-weighted average of its own state and its neighbours'
// previous values,
//
//	v' = (C/dt·v + Σ g·v_neigh) / (C/dt + Σ g),
//
// which is unconditionally stable (a convex combination) and resolves
// simultaneous competition — e.g. the write driver overpowering the
// sense amplifier — by conductance ratio, like the electrical model.
//
// The step is a straight-line kernel: one update line per node over a
// block of per-phase constants that run builds on its own stack, so an
// operation allocates nothing. Only two terms stay dynamic. The victim
// access conductance is a function of the word-line gate voltage alone
// and is recomputed only when that voltage's bits change; the sense
// amplifier picks one of two precomputed sides by the sign of its input.
//
// The kernel is bit-identical to the term-by-term accumulation it
// replaced (kept as the test oracle in oracle_test.go). Every node sums
// its terms in that accumulation's order. A path the phase lacks enters
// with conductance 0, which leaves every sum unchanged unless a voltage
// is −0; the update never produces one, and a caller that forces −0 can
// change only the sign of a zero. Every product is rounded on its own
// (float64(a*b)), so no target fuses it into a multiply-add, and nothing
// is reassociated or replaced by a reciprocal.
func (m *Model) run(dur float64, ph phase) {
	steps := int(dur/m.P.DT + 0.5)
	if steps < 1 {
		steps = 1
	}
	dt := dur / float64(steps)
	k := m.kernel(ph, dt)
	voff := m.P.VOffset
	gc, den := &k.gc, &k.den
	// The step reads the old voltages from one buffer and writes the new
	// ones to the other; the two swap roles every step.
	buf := [2][numNodes]float64{m.v}
	clock := m.time
	for s := 0; s < steps; s++ {
		v, nv := &buf[s&1], &buf[s&1^1]
		if math.Float64bits(v[nWL0Gate]) != k.wlBits {
			k.victim(v[nWL0Gate])
		}
		// Negated as the accumulation wrote it, so a NaN input picks
		// the same side.
		sa := &k.sa[0]
		if !(v[nBTSA]-v[nBCSA]+voff >= 0) {
			sa = &k.sa[1]
		}
		nv[nWL0Gate] = (float64(gc[nWL0Gate]*v[nWL0Gate]) + k.pWL) / den[nWL0Gate]
		nv[nBTPre] = (float64(gc[nBTPre]*v[nBTPre]) +
			(float64(k.g4*v[nBTCell]) + k.pPreT)) / den[nBTPre]
		nv[nBTCell] = (float64(gc[nBTCell]*v[nBTCell]) +
			(((((float64(k.g4*v[nBTPre]) + float64(k.g5*v[nBTRef])) + float64(k.gv*v[nCell0])) +
				float64(k.gWL1*v[nCell1])) + k.pBLVdd) + float64(k.gBLBL*v[nBCCell]))) / den[nBTCell]
		nv[nBTRef] = (float64(gc[nBTRef]*v[nBTRef]) +
			(float64(k.g5*v[nBTCell]) + float64(k.g6*v[nBTSA]))) / den[nBTRef]
		nv[nBTSA] = (float64(gc[nBTSA]*v[nBTSA]) +
			((float64(k.g6*v[nBTRef]) + float64(k.g8*v[nBTIO])) + sa.pT)) / sa.denT
		nv[nBTIO] = (float64(gc[nBTIO]*v[nBTIO]) +
			(float64(k.g8*v[nBTSA]) + float64(k.gCSL*v[nIO]))) / den[nBTIO]
		nv[nBCPre] = (float64(gc[nBCPre]*v[nBCPre]) +
			(float64(k.gw*v[nBCCell]) + k.pPreC)) / den[nBCPre]
		nv[nBCCell] = (float64(gc[nBCCell]*v[nBCCell]) +
			((float64(k.gw*v[nBCPre]) + float64(k.gw*v[nBCRef])) + float64(k.gBLBL*v[nBTCell]))) / den[nBCCell]
		nv[nBCRef] = (float64(gc[nBCRef]*v[nBCRef]) +
			((float64(k.gw*v[nBCCell]) + float64(k.gw*v[nBCSA])) + float64(k.gDWLC*v[nRefC]))) / den[nBCRef]
		nv[nBCSA] = (float64(gc[nBCSA]*v[nBCSA]) +
			((float64(k.gw*v[nBCRef]) + float64(k.gw*v[nBCIO])) + sa.pC)) / sa.denC
		nv[nBCIO] = (float64(gc[nBCIO]*v[nBCIO]) +
			(float64(k.gw*v[nBCSA]) + float64(k.gCSL*v[nIOB]))) / den[nBCIO]
		// The short to ground adds g·0 = +0 after the victim term, which
		// leaves the sum unchanged; only its conductance enters den.
		nv[nCell0] = (float64(gc[nCell0]*v[nCell0]) +
			(float64(k.gv*v[nBTCell]) + float64(k.gCells*v[nCell1]))) / den[nCell0]
		nv[nCell1] = (float64(gc[nCell1]*v[nCell1]) +
			(float64(k.gWL1*v[nBTCell]) + float64(k.gCells*v[nCell0]))) / den[nCell1]
		nv[nRefC] = (float64(gc[nRefC]*v[nRefC]) +
			(k.pRefC + float64(k.gDWLC*v[nBCRef]))) / den[nRefC]
		nv[nRefT] = (float64(gc[nRefT]*v[nRefT]) + k.pRefT) / den[nRefT]
		nv[nIO] = (float64(gc[nIO]*v[nIO]) +
			((float64(k.gCSL*v[nBTIO]) + k.pIO) + float64(k.gOut*v[nOutBuf]))) / den[nIO]
		nv[nIOB] = (float64(gc[nIOB]*v[nIOB]) +
			(float64(k.gCSL*v[nBCIO]) + k.pIOB)) / den[nIOB]
		nv[nOutBuf] = (float64(gc[nOutBuf]*v[nOutBuf]) + float64(k.gOut*v[nIO])) / den[nOutBuf]
		clock += dt
	}
	m.v, m.time = buf[steps&1], clock
}

// kernel is one phase's constant block for the Jacobi step. A g field
// is a conductance, 0 when the phase lacks the path; a p field is a
// source's g·v_s product, 0 when the phase lacks the source.
type kernel struct {
	gc  [numNodes]float64 // C/dt
	den [numNodes]float64 // gc + Σg; BTSA and BCSA take theirs from sa

	g4, g5, g6, g8 float64 // BT chain through the Open 4, 5, 6 and 8 sites
	gw             float64 // BC chain at the wire floor
	gWL1           float64 // aggressor access device (wl1)
	gDWLC          float64 // reference-cell access device (dwlc)
	gCSL           float64 // column select (csl)
	gOut           float64 // output switch (ren)
	gBLBL, gCells  float64 // bridges
	gBLVdd, gGnd   float64 // shorts

	pWL, pPreT, pPreC, pRefC, pRefT, pBLVdd, pIO, pIOB float64

	// sa holds the sense amplifier's two sides: [0] for a non-negative
	// input (BT pulled to VDD, BC down through the Open 7 site), [1] for
	// a negative one. Without the sense phase both are the same.
	sa [2]struct{ denT, pT, denC, pC float64 }

	// Victim access device, a function of the word-line gate voltage:
	// gv and the dens of BTCell and Cell0 are valid for the voltage
	// whose bits are wlBits.
	gv      float64
	wlBits  uint64
	von     float64 // WLOnFraction·VPP
	g45     float64 // BTCell's conductance sum before the victim term
	rAccess float64
	rOpen1  float64
}

// kernel builds the constant block of one phase for step dt, reading
// the live parameters and site resistances, and sets the victim terms
// for the present word-line gate voltage. Each conductance is 1/r of
// the same r the term-by-term accumulation used.
func (m *Model) kernel(ph phase, dt float64) kernel {
	p := &m.P
	t := &p.Tech
	rw := p.RWire
	site := func(i int) float64 {
		if r := m.sites[i]; r > rw {
			return r
		}
		return rw
	}
	var k kernel
	for n := range k.gc {
		k.gc[n] = m.cap[n] / dt
	}
	k.g4, k.g5, k.g6, k.g8 = 1/site(sOpen4), 1/site(sOpen5), 1/site(sOpen6), 1/site(sOpen8)
	k.gw = 1 / rw
	k.gBLVdd, k.gGnd = 1/m.sites[sShortBLVdd], 1/m.sites[sShortCellGnd]
	k.gBLBL, k.gCells = 1/m.sites[sBridgeBLBL], 1/m.sites[sBridgeCells]
	k.pBLVdd = float64(k.gBLVdd * t.VDD)

	wlTarget := 0.0
	if ph.wl0 {
		wlTarget = t.VPP
	}
	g9 := 1 / (m.sites[sOpen9] + 100)
	k.pWL = float64(g9 * wlTarget)

	var gPreT, gPreC, gRefC, gRefT, gWD, gSA, gDown float64
	if ph.pre {
		gPreT, gPreC = 1/(p.RPre+m.sites[sOpen3]), 1/p.RPre
		k.pPreT, k.pPreC = float64(gPreT*t.VBLEQ), float64(gPreC*t.VBLEQ)
	}
	if ph.dref {
		gRefC, gRefT = 1/(p.RAccess+m.sites[sOpen2]), 1/p.RAccess
		k.pRefC, k.pRefT = float64(gRefC*t.VRefCell), float64(gRefT*t.VRefCell)
	}
	if ph.wl1 {
		k.gWL1 = 1 / p.RAccess
	}
	if ph.dwlc {
		k.gDWLC = 1 / (p.RAccess + m.sites[sOpen2])
	}
	if ph.sen {
		gSA, gDown = 1/p.RSA, 1/(p.RSA+m.sites[sOpen7])
	}
	if ph.csl {
		k.gCSL = 1 / p.RCSL
	}
	if ph.wen {
		hi, lo := 0.0, t.VDD
		if ph.wdata == 1 {
			hi, lo = t.VDD, 0
		}
		gWD = 1 / t.RWriteDriver
		k.pIO, k.pIOB = float64(gWD*hi), float64(gWD*lo)
	}
	if ph.ren {
		k.gOut = 1 / t.ROutSwitch
	}

	gc := &k.gc
	k.den = [numNodes]float64{
		nWL0Gate: gc[nWL0Gate] + g9,
		nBTPre:   gc[nBTPre] + (k.g4 + gPreT),
		nBTRef:   gc[nBTRef] + (k.g5 + k.g6),
		nBTIO:    gc[nBTIO] + (k.g8 + k.gCSL),
		nBCPre:   gc[nBCPre] + (k.gw + gPreC),
		nBCCell:  gc[nBCCell] + ((k.gw + k.gw) + k.gBLBL),
		nBCRef:   gc[nBCRef] + ((k.gw + k.gw) + k.gDWLC),
		nBCIO:    gc[nBCIO] + (k.gw + k.gCSL),
		nCell1:   gc[nCell1] + (k.gWL1 + k.gCells),
		nRefC:    gc[nRefC] + (gRefC + k.gDWLC),
		nRefT:    gc[nRefT] + gRefT,
		nIO:      gc[nIO] + ((k.gCSL + gWD) + k.gOut),
		nIOB:     gc[nIOB] + (k.gCSL + gWD),
		nOutBuf:  gc[nOutBuf] + k.gOut,
	}
	pUp := float64(gSA * t.VDD)
	g68, gww := k.g6+k.g8, k.gw+k.gw
	k.sa[0].denT, k.sa[0].pT = gc[nBTSA]+(g68+gSA), pUp
	k.sa[0].denC = gc[nBCSA] + (gww + gDown)
	k.sa[1].denT = gc[nBTSA] + (g68 + gDown)
	k.sa[1].denC, k.sa[1].pC = gc[nBCSA]+(gww+gSA), pUp

	k.von = float64(p.WLOnFraction * t.VPP)
	k.g45 = k.g4 + k.g5
	k.rAccess, k.rOpen1 = p.RAccess, m.sites[sOpen1]
	k.victim(m.v[nWL0Gate])
	return k
}

// victim sets the victim access device's conductance for word-line gate
// voltage vwl — in series with the Open 1 site, absent below a 1e-6
// on-fraction — and the two node denominators it enters.
func (k *kernel) victim(vwl float64) {
	frac := numeric.Clamp((vwl-1.0)/(k.von-1.0), 0, 1)
	gv := 0.0
	if frac > 1e-6 {
		gv = 1 / (k.rAccess/frac + k.rOpen1)
	}
	k.gv = gv
	k.den[nBTCell] = k.gc[nBTCell] + ((((k.g45 + gv) + k.gWL1) + k.gBLVdd) + k.gBLBL)
	k.den[nCell0] = k.gc[nCell0] + ((gv + k.gGnd) + k.gCells)
	k.wlBits = math.Float64bits(vwl)
}

// Precharge runs one precharge/equalize phase.
func (m *Model) Precharge() error {
	m.run(m.P.Tech.TPre, phase{pre: true, dref: true})
	return nil
}

// access mirrors dram.Column: release precharge, raise word lines, share,
// then sense (which also restores).
func (m *Model) access(cell int) phase {
	t := m.P.Tech
	ph := phase{dwlc: true}
	if cell == 0 {
		ph.wl0 = true
	} else {
		ph.wl1 = true
	}
	m.run(t.TSettle, phase{})
	m.run(t.TShare, ph)
	ph.sen = true
	m.run(t.TSense, ph)
	return ph
}

// closeOp drops the word lines, then the SA.
func (m *Model) closeOp(ph phase) {
	t := m.P.Tech
	ph.wl0, ph.wl1, ph.dwlc = false, false, false
	m.run(t.TClose, ph)
	ph.sen = false
	m.run(t.TClose, ph)
}

// Write performs a w0/w1 to the cell (read-modify-write, like the
// electrical controller): a precharge, then WriteAccess.
func (m *Model) Write(cell, bit int) error {
	if err := m.Precharge(); err != nil {
		return err
	}
	return m.WriteAccess(cell, bit)
}

// WriteAccess runs everything of a write after its leading precharge:
// activate, sense, drive the datum, close. On a precharged model it
// completes the operation Write performs.
func (m *Model) WriteAccess(cell, bit int) error {
	if bit != 0 && bit != 1 {
		panic(fmt.Sprintf("behav: write data %d out of range", bit))
	}
	t := m.P.Tech
	ph := m.access(cell)
	ph.csl, ph.wen, ph.wdata = true, true, bit
	m.run(t.TWrite, ph)
	ph.csl, ph.wen = false, false
	m.run(t.TSettle, ph)
	m.closeOp(ph)
	return nil
}

// Read performs a read and returns the output-buffer value: a
// precharge, then ReadAccess.
func (m *Model) Read(cell int) (int, error) {
	if err := m.Precharge(); err != nil {
		return 0, err
	}
	return m.ReadAccess(cell)
}

// ReadAccess runs everything of a read after its leading precharge and
// returns the output-buffer value. On a precharged model it completes
// the operation Read performs.
func (m *Model) ReadAccess(cell int) (int, error) {
	t := m.P.Tech
	ph := m.access(cell)
	ph.csl, ph.ren = true, true
	m.run(t.TIO, ph)
	ph.csl, ph.ren = false, false
	m.run(t.TSettle, ph)
	m.closeOp(ph)
	return m.OutputBit(), nil
}
