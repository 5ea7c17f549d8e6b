package behav

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/numeric"
)

// oracle is the term-by-term Jacobi accumulation that run's kernel
// replaced: every step clears two accumulators, adds each resistive path
// of the phase in program order, then divides. It is the kernel's test
// oracle; the two must agree to the last bit on every voltage and on the
// clock. Like the kernel, it rounds every product on its own.
type oracle struct {
	m           *Model
	accG, accGV [numNodes]float64
}

// pair accumulates a resistive connection between nodes a and b.
func (o *oracle) pair(a, b int, r float64) {
	g := 1 / r
	va, vb := o.m.v[a], o.m.v[b]
	o.accG[a] += g
	o.accGV[a] += float64(g * vb)
	o.accG[b] += g
	o.accGV[b] += float64(g * va)
}

// src accumulates a resistive connection from node a to a fixed source.
func (o *oracle) src(a int, vs, r float64) {
	g := 1 / r
	o.accG[a] += g
	o.accGV[a] += float64(g * vs)
}

// wlFraction maps the victim's gate voltage to an access-conductance
// fraction in [0,1].
func (o *oracle) wlFraction() float64 {
	m := o.m
	von := float64(m.P.WLOnFraction * m.P.Tech.VPP)
	return numeric.Clamp((m.v[nWL0Gate]-1.0)/(von-1.0), 0, 1)
}

func (o *oracle) step(dt float64, ph phase) {
	m := o.m
	t := &m.P.Tech
	rw := m.P.RWire
	site := func(i int) float64 {
		if r := m.sites[i]; r > rw {
			return r
		}
		return rw
	}
	o.accG = [numNodes]float64{}
	o.accGV = [numNodes]float64{}

	// Word-line gate follows its driver through the Open 9 site.
	wlTarget := 0.0
	if ph.wl0 {
		wlTarget = t.VPP
	}
	o.src(nWL0Gate, wlTarget, m.sites[sOpen9]+100)

	// Bit-line chains (Open 4, 5, 6, 8 sites on BT).
	o.pair(nBTPre, nBTCell, site(sOpen4))
	o.pair(nBTCell, nBTRef, site(sOpen5))
	o.pair(nBTRef, nBTSA, site(sOpen6))
	o.pair(nBTSA, nBTIO, site(sOpen8))
	o.pair(nBCPre, nBCCell, rw)
	o.pair(nBCCell, nBCRef, rw)
	o.pair(nBCRef, nBCSA, rw)
	o.pair(nBCSA, nBCIO, rw)

	if ph.pre {
		o.src(nBTPre, t.VBLEQ, m.P.RPre+m.sites[sOpen3])
		o.src(nBCPre, t.VBLEQ, m.P.RPre)
	}
	if ph.dref {
		o.src(nRefC, t.VRefCell, m.P.RAccess+m.sites[sOpen2])
		o.src(nRefT, t.VRefCell, m.P.RAccess)
	}

	// Victim access device: conductance scales with the (possibly
	// floating) gate voltage; in series with the Open 1 site.
	if frac := o.wlFraction(); frac > 1e-6 {
		o.pair(nBTCell, nCell0, m.P.RAccess/frac+m.sites[sOpen1])
	}
	if ph.wl1 {
		o.pair(nBTCell, nCell1, m.P.RAccess)
	}
	if ph.dwlc {
		o.pair(nBCRef, nRefC, m.P.RAccess+m.sites[sOpen2])
	}

	if ph.sen {
		// Rule-based regenerative sense amplifier with the Open 7 site
		// in the pull-down (NMOS) path. The input-referred offset makes
		// zero differential resolve to 1.
		delta := m.v[nBTSA] - m.v[nBCSA] + m.P.VOffset
		rDown := m.P.RSA + m.sites[sOpen7]
		if delta >= 0 {
			o.src(nBTSA, t.VDD, m.P.RSA)
			o.src(nBCSA, 0, rDown)
		} else {
			o.src(nBCSA, t.VDD, m.P.RSA)
			o.src(nBTSA, 0, rDown)
		}
	}

	if ph.csl {
		o.pair(nBTIO, nIO, m.P.RCSL)
		o.pair(nBCIO, nIOB, m.P.RCSL)
	}
	if ph.wen {
		hi, lo := 0.0, t.VDD
		if ph.wdata == 1 {
			hi, lo = t.VDD, 0
		}
		o.src(nIO, hi, t.RWriteDriver)
		o.src(nIOB, lo, t.RWriteDriver)
	}
	if ph.ren {
		o.pair(nIO, nOutBuf, t.ROutSwitch)
	}

	// Short/bridge sites (negligible conductance when healthy).
	o.src(nCell0, 0, m.sites[sShortCellGnd])
	o.src(nBTCell, t.VDD, m.sites[sShortBLVdd])
	o.pair(nBTCell, nBCCell, m.sites[sBridgeBLBL])
	o.pair(nCell0, nCell1, m.sites[sBridgeCells])

	// Jacobi-implicit nodal update.
	for n := 0; n < numNodes; n++ {
		gc := m.cap[n] / dt
		m.v[n] = (float64(gc*m.v[n]) + o.accGV[n]) / (gc + o.accG[n])
	}
	m.time += dt
}

// run is Model.run over the oracle's step.
func (o *oracle) run(dur float64, ph phase) {
	steps := int(dur/o.m.P.DT + 0.5)
	if steps < 1 {
		steps = 1
	}
	dt := dur / float64(steps)
	for s := 0; s < steps; s++ {
		o.step(dt, ph)
	}
}

// timedPhase is one run call of an operation's schedule.
type timedPhase struct {
	dur float64
	ph  phase
}

// schedule lists the run calls that Precharge ('i'), Write ('0', '1')
// and Read ('r') of a cell make, in order. The oracle replays it, so a
// schedule edit in ops.go that is not mirrored here fails the
// differential tests.
func schedule(p *Params, op byte, cell int) []timedPhase {
	t := &p.Tech
	out := []timedPhase{{t.TPre, phase{pre: true, dref: true}}}
	if op == 'i' {
		return out
	}
	ph := phase{dwlc: true, wl0: cell == 0, wl1: cell == 1}
	out = append(out, timedPhase{t.TSettle, phase{}}, timedPhase{t.TShare, ph})
	ph.sen = true
	out = append(out, timedPhase{t.TSense, ph})
	if op == 'r' {
		ph.csl, ph.ren = true, true
		out = append(out, timedPhase{t.TIO, ph})
		ph.csl, ph.ren = false, false
	} else {
		ph.csl, ph.wen, ph.wdata = true, true, int(op-'0')
		out = append(out, timedPhase{t.TWrite, ph})
		ph.csl, ph.wen = false, false
	}
	out = append(out, timedPhase{t.TSettle, ph})
	ph.wl0, ph.wl1, ph.dwlc = false, false, false
	out = append(out, timedPhase{t.TClose, ph})
	ph.sen = false
	return append(out, timedPhase{t.TClose, ph})
}

// issuedPhases returns every distinct phase Write, Read and Precharge
// run with.
func issuedPhases(p *Params) []phase {
	seen := map[phase]bool{}
	var out []phase
	for _, op := range []byte("i01r") {
		for cell := 0; cell < 2; cell++ {
			for _, tp := range schedule(p, op, cell) {
				if !seen[tp.ph] {
					seen[tp.ph] = true
					out = append(out, tp.ph)
				}
			}
		}
	}
	return out
}

// randomPhase draws every phase flag independently, including
// combinations no operation issues.
func randomPhase(rng *rand.Rand) phase {
	b := rng.Uint32()
	bit := func(i uint) bool { return b>>i&1 == 1 }
	return phase{
		pre: bit(0), dref: bit(1), wl0: bit(2), wl1: bit(3), dwlc: bit(4),
		sen: bit(5), csl: bit(6), ren: bit(7), wen: bit(8), wdata: int(b >> 9 & 1),
	}
}

// sameState fails tb when the kernel's model and the oracle's differ in
// any voltage bit or in the clock's bits.
func sameState(tb testing.TB, got, want *Model, what string) {
	tb.Helper()
	for n := 0; n < numNodes; n++ {
		if math.Float64bits(got.v[n]) != math.Float64bits(want.v[n]) {
			tb.Fatalf("%s: node %d = %v (%#x), oracle %v (%#x)", what, n,
				got.v[n], math.Float64bits(got.v[n]), want.v[n], math.Float64bits(want.v[n]))
		}
	}
	if math.Float64bits(got.time) != math.Float64bits(want.time) {
		tb.Fatalf("%s: clock %v, oracle %v", what, got.time, want.time)
	}
}

// faulty builds the model with one defect site at r ohms.
func faulty(p Params, site int, r float64) *Model {
	m := New(p)
	m.sites[site] = r
	return m
}

// uniform draws from [lo, hi). Like every product in this package's
// code and tests, its product is rounded on its own: the CI check that
// the arm64 build fuses no multiply-add scans the test binary too.
func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + float64((hi-lo)*rng.Float64())
}

// checkPhases draws random states of a model with site at a random
// resistance in 10¹…10⁹ Ω and runs the kernel and the oracle from each
// over every issued phase and as many random ones, for random durations
// of up to 400 steps.
func checkPhases(tb testing.TB, p Params, site int, rng *rand.Rand) {
	tb.Helper()
	phases := issuedPhases(&p)
	for range len(phases) {
		phases = append(phases, randomPhase(rng))
	}
	for _, ph := range phases {
		m := faulty(p, site, math.Pow(10, uniform(rng, 1, 9)))
		for n := range m.v {
			m.v[n] = uniform(rng, 0, 4.6)
		}
		m.time = uniform(rng, 0, 1e-6)
		ref := *m
		dur := p.DT * uniform(rng, 0.6, 400)
		m.run(dur, ph)
		(&oracle{m: &ref}).run(dur, ph)
		sameState(tb, m, &ref, "run")
	}
}

// checkOps applies an op string to a model with site at r ohms through
// Write, Read and Precharge, and to a copy through the oracle's
// schedule, comparing after every action. Each byte is one action:
//
//	'0', '1'  write the bit to the selected cell
//	'r'       read the selected cell
//	'i'       idle (one precharge)
//	'c'       select the other cell
//	'f'       force the nets in the forced mask (bit n = node n) to u
//	'H', 'L'  force the victim cell to VDD or to 0
//
// Any other byte stands for the action its value selects modulo eight.
func checkOps(tb testing.TB, p Params, site int, r float64, forced uint32, u float64, ops string) {
	tb.Helper()
	const actions = "01rifcHL"
	m := faulty(p, site, r)
	ref := *m
	o := &oracle{m: &ref}
	cell := 0
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		if strings.IndexByte(actions, op) < 0 {
			op = actions[op%8]
		}
		switch op {
		case 'c':
			cell ^= 1
			continue
		case 'f':
			for n := 0; n < numNodes; n++ {
				if forced>>n&1 == 1 {
					m.v[n], ref.v[n] = u, u
				}
			}
			continue
		case 'H', 'L':
			v := 0.0
			if op == 'H' {
				v = p.Tech.VDD
			}
			m.v[nCell0], ref.v[nCell0] = v, v
			continue
		case '0', '1':
			if err := m.Write(cell, int(op-'0')); err != nil {
				tb.Fatal(err)
			}
		case 'r':
			if _, err := m.Read(cell); err != nil {
				tb.Fatal(err)
			}
		case 'i':
			if err := m.Precharge(); err != nil {
				tb.Fatal(err)
			}
		}
		for _, tp := range schedule(&p, op, cell) {
			o.run(tp.dur, tp.ph)
		}
		sameState(tb, m, &ref, "op "+ops[:i+1])
	}
}

// Exported to kernel_test.go, which is in package behav_test because it
// derives the stress corners' Params and internal/stress imports behav.
var (
	CheckKernelPhases = checkPhases
	CheckKernelOps    = checkOps
)

// NumSites and NumNodes count the defect sites a site argument indexes
// and the nodes a forced-net mask covers.
const (
	NumSites = numSites
	NumNodes = numNodes
)

// SiteIndex returns the index of a named defect site.
func SiteIndex(site string) int { return siteIndex[site] }

// NetMask returns the forced-net mask of the named nets.
func NetMask(nets ...string) uint32 {
	var mask uint32
	for _, n := range nets {
		mask |= 1 << netIndex[n]
	}
	return mask
}
