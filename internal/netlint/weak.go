package netlint

import (
	"fmt"
	"math"
	"sort"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/numeric"
)

// This file implements the weak-merge divider analysis. A resistive
// bridge below the conductive cutoff but above the hard-short threshold
// is neither an open (it conducts DC) nor an ideal short (it cannot be
// contracted): the merged pair is a voltage divider. For each endpoint
// the analysis computes a Thevenin equivalent — which anchors it
// reaches through the phase's firm conduction graph with the defect
// edges removed, at what open-circuit voltage, and through how much
// conductance — by solving the weighted graph Laplacian with the
// anchors as Dirichlet boundary nodes. Combining the far side's
// equivalent in series with the bridge conductance is exact for the
// resulting three-conductance star, so the loaded endpoint voltages
// follow in closed form, and the verdict reduces to a conductance
// comparison: if the drive arriving through the bridge is within
// WeakRatio of an endpoint's own drive, the divider is a genuine analog
// fight (weak-contested); otherwise the dominant side wins
// (weak-driven).

// defaultOnOhms stands in for Model.OnOhms when the model leaves it
// zero: a generic 1 kΩ channel on-resistance.
const defaultOnOhms = 1e3

// WeakSide is one endpoint of a weak merge: its own drive per phase,
// with the bridge itself (and every other defect element of the
// scenario) excluded from passive traversal.
type WeakSide struct {
	// Net is the endpoint net name.
	Net string
	// Anchors maps phase name to the sorted anchor identifiers the
	// endpoint reaches through the phase's firm conduction graph.
	Anchors map[string][]string
	// Conductance maps phase name to the endpoint's Thevenin drive
	// conductance toward its anchors [S]: +Inf when the endpoint is
	// itself an anchor, 0 when it reaches none (capacitively held).
	Conductance map[string]float64
	// Volts maps phase name to the endpoint's open-circuit Thevenin
	// voltage [V]; NaN when an involved anchor has no declared voltage
	// (e.g. a latch output, whose value is data-dependent).
	Volts map[string]float64

	node int // contracted endpoint node index
}

// WeakMerge is the divider analysis of one sub-cutoff resistive bridge.
type WeakMerge struct {
	// Elem is the defect element; Ohms its bridging resistance.
	Elem string
	Ohms float64
	// A and B are the bridge's two endpoint analyses.
	A, B WeakSide
	// Verdicts maps phase name to the divider verdict: isolated
	// (neither side anchored), weak-driven, or weak-contested.
	Verdicts map[string]ClassVerdict
	// Volts maps phase name to the predicted loaded endpoint voltages
	// {V_A, V_B} with the bridge in place; NaN entries mean an involved
	// anchor voltage is unknown.
	Volts map[string][2]float64
}

// newWeakMerges resolves the weak elements' bridge endpoints (mapped
// through the hard contraction, so a weak bridge landing on a
// hard-merged class sees the whole class) into analysis skeletons.
func (a *Analyzer) newWeakMerges(weakElems []MergeElem, find func(int) int) ([]WeakMerge, error) {
	var out []WeakMerge
	for _, el := range weakElems {
		na, nb, ok := a.mergeEndpoints(el.Name)
		if !ok {
			return nil, fmt.Errorf("netlint: elements [%s] have no conduction branch to merge over", el.Name)
		}
		side := func(n int) WeakSide {
			return WeakSide{
				Net:         a.ckt.NodeName(n),
				Anchors:     map[string][]string{},
				Conductance: map[string]float64{},
				Volts:       map[string]float64{},
				node:        find(n),
			}
		}
		out = append(out, WeakMerge{
			Elem: el.Name, Ohms: el.Ohms,
			A: side(na), B: side(nb),
			Verdicts: map[string]ClassVerdict{},
			Volts:    map[string][2]float64{},
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Elem < out[j].Elem })
	return out, nil
}

// mergeEndpoints returns the node pair of the element's first non-sense
// branch — the two nets a weak merge bridges.
func (a *Analyzer) mergeEndpoints(elem string) (int, int, bool) {
	for _, e := range a.edges {
		if e.elem == elem && e.kind != circuit.PathSense {
			return e.a, e.b, true
		}
	}
	return 0, 0, false
}

// phaseCtx bundles the per-phase machinery shared by the hard-class
// verdicts and the weak-merge dividers: resolved gate levels, the
// latch-enablement fixpoint on the defective graph, per-node anchor
// identifiers, and the passive-conduction edge filter (no defect
// elements, no source edges, no latch channels).
type phaseCtx struct {
	phase   Phase
	anchors map[int][]string
	keep    func(edge) bool
}

// phaseContext builds the context for one phase with the given defect
// elements present. Latch enablement is resolved WITH the defect edges
// conducting (the defect is physically there; a bridge can even help a
// latch's rails connect), while the keep filter excludes them so each
// node's own drive stays visible.
func (a *Analyzer) phaseContext(p Phase, defect map[string]bool) *phaseCtx {
	levels := a.levelsFor(p, nil)
	_, latchOn := a.drivenWith(p, nil, nil, defect)

	latchElem := map[string]bool{}
	for _, l := range a.model.Latches {
		for _, name := range l.Elements {
			latchElem[name] = true
		}
	}

	// Anchor identifiers per node: ground, source-held nets (their own
	// name), and enabled-latch outputs ("latch:<net>").
	anchors := make(map[int][]string)
	anchors[0] = []string{circuit.Ground}
	for _, e := range a.edges {
		if e.kind != circuit.PathSource {
			continue
		}
		for _, n := range []int{e.a, e.b} {
			if n != 0 {
				anchors[n] = append(anchors[n], a.ckt.NodeName(n))
			}
		}
	}
	for _, l := range a.model.Latches {
		if !l.activeIn(p.Name) || !a.latchEnabled(l, latchOn) {
			continue
		}
		rail := map[int]bool{}
		for _, pair := range l.Requires {
			for _, net := range pair[:] {
				if idx, ok := a.ckt.NodeIndex(net); ok {
					rail[idx] = true
				}
			}
		}
		elems := map[string]bool{}
		for _, name := range l.Elements {
			elems[name] = true
		}
		for _, e := range a.edges {
			if !elems[e.elem] || e.kind != circuit.PathGated {
				continue
			}
			for _, n := range []int{e.a, e.b} {
				if n != 0 && !rail[n] {
					anchors[n] = append(anchors[n], "latch:"+a.ckt.NodeName(n))
				}
			}
		}
	}

	keep := func(e edge) bool {
		if defect[e.elem] || latchElem[e.elem] {
			return false
		}
		switch e.kind {
		case circuit.PathConductive:
			return !a.cutOff(e)
		case circuit.PathGated:
			if latchOn[e.elem] {
				return true
			}
			lvl, ok := levels[e.gate]
			return ok && lvl == e.activeHigh
		}
		return false
	}
	return &phaseCtx{phase: p, anchors: anchors, keep: keep}
}

// firmGraph is the phase's passive conduction graph in weighted,
// hard-contracted form — the static stamp the Thevenin analysis solves
// over. Anchored nodes are Dirichlet boundaries.
type firmGraph struct {
	adj  map[int][]firmEdge
	ids  map[int][]string // sorted anchor identifiers per contracted node
	volt map[int]float64  // anchor voltage; NaN when unknown
}

type firmEdge struct {
	to int
	g  float64
}

// firmGraph stamps the phase's firm conduction edges (below-cutoff
// resistors at 1/ohms, conducting channels at 1/OnOhms) onto the
// hard-contracted node set and resolves each anchored node's imposed
// voltage from the model's NetVolts table.
func (a *Analyzer) firmGraph(pc *phaseCtx, find func(int) int) *firmGraph {
	onOhms := a.model.OnOhms
	if onOhms <= 0 {
		onOhms = defaultOnOhms
	}
	fg := &firmGraph{adj: map[int][]firmEdge{}, ids: map[int][]string{}, volt: map[int]float64{}}
	for _, e := range a.edges {
		if e.kind == circuit.PathSense || !pc.keep(e) {
			continue
		}
		var g float64
		switch e.kind {
		case circuit.PathConductive:
			if e.ohms > 0 {
				g = 1 / e.ohms
			} else {
				// Ideal wires appear as zero-ohm resistors; stamp them
				// as 1 mΩ so the Laplacian stays finite.
				g = 1e3
			}
		case circuit.PathGated:
			g = 1 / onOhms
		default:
			continue
		}
		ra, rb := find(e.a), find(e.b)
		if ra == rb {
			continue
		}
		fg.adj[ra] = append(fg.adj[ra], firmEdge{to: rb, g: g})
		fg.adj[rb] = append(fg.adj[rb], firmEdge{to: ra, g: g})
	}
	for n, ids := range pc.anchors {
		r := find(n)
		fg.ids[r] = append(fg.ids[r], ids...)
	}
	for r, ids := range fg.ids {
		sort.Strings(ids)
		fg.ids[r] = dedupeSorted(ids)
		fg.volt[r] = a.anchorVolt(fg.ids[r])
	}
	return fg
}

// anchorVolt resolves an anchored node's imposed voltage from its
// anchor identifiers: ground is 0 V, source-held nets read from
// Model.NetVolts, latch outputs are data-dependent (NaN). Conflicting
// or unknown values yield NaN — the verdict then rests on conductances.
func (a *Analyzer) anchorVolt(ids []string) float64 {
	v := math.NaN()
	for _, id := range ids {
		var this float64
		switch {
		case id == circuit.Ground:
			this = 0
		default:
			declared, ok := a.model.NetVolts[id]
			if !ok {
				return math.NaN() // latch output or undeclared source net
			}
			this = declared
		}
		if math.IsNaN(v) {
			v = this
		} else if math.Abs(v-this) > 1e-9 {
			return math.NaN() // two different rails in one contracted node
		}
	}
	return v
}

func dedupeSorted(ids []string) []string {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// weakPhase fills one phase of a weak merge: both sides' Thevenin
// equivalents, the loaded divider voltages, and the verdict.
func (a *Analyzer) weakPhase(fg *firmGraph, wm *WeakMerge, phase string, weakRatio float64) {
	idsA, gA, vA := a.sideEquivalent(fg, wm.A.node)
	idsB, gB, vB := a.sideEquivalent(fg, wm.B.node)
	wm.A.Anchors[phase], wm.A.Conductance[phase], wm.A.Volts[phase] = idsA, gA, vA
	wm.B.Anchors[phase], wm.B.Conductance[phase], wm.B.Volts[phase] = idsB, gB, vB

	g := math.Inf(1)
	if wm.Ohms > 0 {
		g = 1 / wm.Ohms
	}
	verdict, loadedA, loadedB := dividerVerdict(gA, vA, gB, vB, g, weakRatio, stringSlicesEqual(idsA, idsB))
	wm.Verdicts[phase] = verdict
	wm.Volts[phase] = [2]float64{loadedA, loadedB}
}

// sideEquivalent computes the Thevenin equivalent seen looking into one
// endpoint with the bridge absent: the sorted anchor identifiers its
// firm component reaches, the drive conductance toward them, and the
// open-circuit voltage. Anchored endpoints are ideal (+Inf, own
// voltage); components with no anchors hold charge only (0, NaN).
func (a *Analyzer) sideEquivalent(fg *firmGraph, node int) ([]string, float64, float64) {
	if len(fg.ids[node]) > 0 {
		return fg.ids[node], math.Inf(1), fg.volt[node]
	}
	comp := []int{node}
	seen := map[int]bool{node: true}
	for i := 0; i < len(comp); i++ {
		for _, fe := range fg.adj[comp[i]] {
			if !seen[fe.to] {
				seen[fe.to] = true
				comp = append(comp, fe.to)
			}
		}
	}
	var anchorIDs []string
	unknownIdx := map[int]int{}
	nUnknown := 0
	for _, n := range comp {
		if len(fg.ids[n]) > 0 {
			anchorIDs = append(anchorIDs, fg.ids[n]...)
		} else {
			unknownIdx[n] = nUnknown
			nUnknown++
		}
	}
	sort.Strings(anchorIDs)
	anchorIDs = dedupeSorted(anchorIDs)
	if len(anchorIDs) == 0 {
		return nil, 0, math.NaN()
	}

	// Graph Laplacian over the unanchored nodes; edges into anchored
	// neighbors contribute to the diagonal and, when the anchor voltage
	// is known, to the open-circuit RHS (Dirichlet condition).
	L := numeric.NewMatrix(nUnknown, nUnknown)
	bv := make([]float64, nUnknown)
	voltKnown := true
	for n, i := range unknownIdx {
		for _, fe := range fg.adj[n] {
			L.Add(i, i, fe.g)
			if j, ok := unknownIdx[fe.to]; ok {
				L.Add(i, j, -fe.g)
			} else {
				av := fg.volt[fe.to]
				if math.IsNaN(av) {
					voltKnown = false
				} else {
					bv[i] += float64(fe.g * av)
				}
			}
		}
	}
	ws := numeric.NewWorkspace(nUnknown)
	if err := ws.Factorize(L); err != nil {
		// A singular firm stamp cannot happen for a connected component
		// with at least one Dirichlet node; report "no usable drive"
		// rather than guessing.
		return anchorIDs, 0, math.NaN()
	}
	self := unknownIdx[node]
	voc := math.NaN()
	if voltKnown {
		ws.Solve(bv, bv)
		voc = bv[self]
	}
	// Thevenin resistance: inject a unit current at the endpoint with
	// all anchors grounded; the resulting self-voltage is R_th.
	bi := make([]float64, nUnknown)
	bi[self] = 1
	ws.Solve(bi, bi)
	rth := bi[self]
	if !(rth > 0) {
		return anchorIDs, 0, voc
	}
	return anchorIDs, 1 / rth, voc
}

// dividerVerdict resolves the DC operating point of a weak merge in one
// phase from the two sides' Thevenin equivalents (gA, vA), (gB, vB) and
// the bridge conductance g. The far side in series with the bridge is
// exact for the three-conductance star, so
//
//	V_A = (gA·vA + s(g,gB)·vB) / (gA + s(g,gB)),  s(g,x) = g·x/(g+x)
//
// and symmetrically for V_B. The verdict compares each endpoint's own
// drive with the drive arriving through the bridge: within weakRatio on
// either side means a genuine divider fight.
func dividerVerdict(gA, vA, gB, vB, g, weakRatio float64, sameAnchors bool) (ClassVerdict, float64, float64) {
	switch {
	case gA == 0 && gB == 0:
		return VerdictIsolated, math.NaN(), math.NaN()
	case gA == 0:
		// A has no drive of its own: it follows B through the bridge.
		return VerdictWeakDriven, vB, vB
	case gB == 0:
		return VerdictWeakDriven, vA, vA
	}
	throughA := series(g, gB) // drive reaching A from B's anchors
	throughB := series(g, gA)
	loadedA, loadedB := vA, vB
	if !math.IsInf(gA, 1) {
		loadedA = (float64(gA*vA) + float64(throughA*vB)) / (gA + throughA)
	}
	if !math.IsInf(gB, 1) {
		loadedB = (float64(gB*vB) + float64(throughB*vA)) / (gB + throughB)
	}
	if sameAnchors || (!math.IsNaN(vA) && !math.IsNaN(vB) && math.Abs(vA-vB) <= 1e-9) {
		// Both sides pull toward the same place: no fight to resolve.
		return VerdictWeakDriven, loadedA, loadedB
	}
	if sideRatio(gA, throughA) <= weakRatio || sideRatio(gB, throughB) <= weakRatio {
		return VerdictWeakContested, loadedA, loadedB
	}
	return VerdictWeakDriven, loadedA, loadedB
}

// series combines the bridge conductance with a side conductance.
func series(g, x float64) float64 {
	switch {
	case math.IsInf(x, 1):
		return g
	case math.IsInf(g, 1):
		return x
	case x <= 0 || g <= 0:
		return 0
	}
	return g * x / (g + x)
}

// sideRatio is the own-drive vs through-bridge-drive imbalance at one
// endpoint, always ≥ 1; +Inf when the endpoint is ideally anchored.
func sideRatio(own, through float64) float64 {
	if math.IsInf(own, 1) || own <= 0 || through <= 0 {
		return math.Inf(1)
	}
	if own > through {
		return own / through
	}
	return through / own
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
