// Package circuit provides the netlist representation and the
// modified-nodal-analysis (MNA) stamping contract used by the transient
// simulator in internal/spice.
//
// A Circuit is a collection of named nets and Elements. The simulator
// assembles, for every Newton iteration, a linear system A·x = b where
// x holds the node voltages followed by the branch currents of the
// voltage-source-like elements. Each Element contributes to A and b
// through its Stamp method; nonlinear elements linearize around the
// current iterate available in the StampContext.
package circuit

import (
	"fmt"
	"sort"

	"github.com/memtest/partialfaults/internal/numeric"
)

// Ground is the reserved name of the reference net, always at 0 V.
const Ground = "0"

// Element is a circuit component that can stamp itself into an MNA system.
type Element interface {
	// Name returns the unique designator of the element (e.g. "R1").
	Name() string
	// Stamp adds the element's linearized contribution to the system.
	Stamp(ctx *StampContext)
}

// BranchElement is implemented by elements that introduce an extra MNA
// unknown (a branch current), such as voltage sources. The circuit
// allocates one branch index per such element.
type BranchElement interface {
	Element
	// SetBranch tells the element its branch-current index in x.
	SetBranch(idx int)
}

// SplitStamper is implemented by linear elements whose system
// contribution separates into a matrix part that is constant across the
// Newton iterations of a timestep and a right-hand-side part. The engine
// exploits the split to cache stamps:
//
//   - StampStaticA writes only into ctx.A. It may depend only on ctx.Dt
//     and the element's own parameters, so the engine caches it per dt
//     regime.
//   - StampStepB writes only into ctx.B and may depend on ctx.Time and
//     ctx.XPrev — everything fixed within one step.
//
// Stamp must remain the exact sum of the two parts: the engine falls
// back to it for elements that do not implement the split.
type SplitStamper interface {
	Element
	StampStaticA(ctx *StampContext)
	StampStepB(ctx *StampContext)
}

// Footprinter is implemented by nonlinear elements that can list the
// matrix positions their Stamp may write. The engine watches only those
// positions for entries outside the LU pattern it has learned from the
// static stamp; an element without a footprint makes it watch every
// position.
type Footprinter interface {
	Element
	// Footprint returns every (row, column) position of A, in global x
	// indexing, that Stamp may add to at any iterate.
	Footprint() [][2]int
}

// GroundedSource is implemented by branch elements that force the
// voltage of a single non-ground node relative to ground. The engine
// eliminates both the node unknown and the branch-current unknown of
// such sources from the solve: the node voltage is known a priori, and
// its KCL row only serves to recover the (unused) source current. On the
// DRAM column this shrinks the MNA system by more than half — every
// control signal and supply rail is a grounded source.
type GroundedSource interface {
	Element
	// PinnedNode returns the forced node index, the element's
	// branch-unknown index in x, and whether the element qualifies
	// (i.e. it connects one non-ground node to ground).
	PinnedNode() (node, branch int, ok bool)
	// PinnedValue returns the forced node voltage at time t.
	PinnedValue(t float64) float64
}

// StampContext carries everything an element needs to stamp itself.
//
// The engine keeps two properties that make an addition of ±0 a no-op:
//
//   - A and B never hold −0: every entry starts at +0 and only receives
//     additions, and in round-to-nearest a sum that starts at +0 is never
//     −0. Adding ±0 to an entry that is not −0 leaves its bits as they
//     were.
//   - X at every eliminated node equals its PinnedX, so an element that
//     reads finite terminal voltages knows that a ±0 written into a
//     pinned column moves −(±0·PinnedX) = ±0 to B.
//
// An element may therefore omit any addition whose value is an exact
// zero, provided the X values it read were finite: the result is the
// same bits. A cut-off MOSFET (internal/device) omits its whole stamp
// this way.
type StampContext struct {
	A *numeric.Matrix // MNA matrix to accumulate into
	B []float64       // right-hand side to accumulate into

	X     []float64 // current Newton iterate (voltages + branch currents)
	XPrev []float64 // converged solution of the previous timestep

	Dt   float64 // timestep in seconds; <= 0 means DC operating point
	Time float64 // absolute simulation time at the end of this step

	// RowMap, when non-nil, redirects the stamp helpers into a reduced
	// system from which grounded-source unknowns have been eliminated:
	// RowMap[i] is the reduced index of global x index i, or negative
	// when that unknown was eliminated. A matrix entry landing in an
	// eliminated column is a coupling to a known voltage and moves to
	// the right-hand side using PinnedX, which holds the forced voltage
	// for every eliminated x slot (in global indexing). X stays in
	// global indexing either way, so V and VPrev are unaffected.
	RowMap  []int
	PinnedX []float64
}

// V returns the voltage of node n in the current Newton iterate.
// Node index 0 is ground.
func (ctx *StampContext) V(n int) float64 {
	if n == 0 {
		return 0
	}
	return ctx.X[n-1]
}

// VPrev returns the voltage of node n at the previous timestep.
func (ctx *StampContext) VPrev(n int) float64 {
	if n == 0 {
		return 0
	}
	return ctx.XPrev[n-1]
}

// addA accumulates into matrix entry (r, c) in global x indexing,
// honouring the reduced-system mapping when one is installed.
func (ctx *StampContext) addA(r, c int, v float64) {
	if ctx.RowMap == nil {
		ctx.A.Add(r, c, v)
		return
	}
	rr := ctx.RowMap[r]
	if rr < 0 {
		return // the row's equation was eliminated
	}
	if rc := ctx.RowMap[c]; rc >= 0 {
		// Straight into the storage: both indices come from RowMap, so
		// Matrix.Add's per-entry range check would only repeat it.
		ctx.A.Data()[rr*ctx.A.Cols()+rc] += v
	} else {
		// Coupling to a known voltage: A[r][c]·x[c] moves to the RHS.
		ctx.B[rr] -= float64(v * ctx.PinnedX[c])
	}
}

// addB accumulates into right-hand-side entry r in global x indexing,
// honouring the reduced-system mapping when one is installed.
func (ctx *StampContext) addB(r int, v float64) {
	if ctx.RowMap == nil {
		ctx.B[r] += v
		return
	}
	if rr := ctx.RowMap[r]; rr >= 0 {
		ctx.B[rr] += v
	}
}

// StampConductance adds a conductance g between nodes a and b
// (either may be ground).
func (ctx *StampContext) StampConductance(a, b int, g float64) {
	if a != 0 {
		ctx.addA(a-1, a-1, g)
	}
	if b != 0 {
		ctx.addA(b-1, b-1, g)
	}
	if a != 0 && b != 0 {
		ctx.addA(a-1, b-1, -g)
		ctx.addA(b-1, a-1, -g)
	}
}

// StampCurrent adds an independent current i flowing from node a to
// node b (i.e. out of a, into b).
func (ctx *StampContext) StampCurrent(a, b int, i float64) {
	if a != 0 {
		ctx.addB(a-1, -i)
	}
	if b != 0 {
		ctx.addB(b-1, i)
	}
}

// StampTransconductance adds a current at (out+, out−) controlled by the
// voltage between (in+, in−) with gain gm: a VCCS stamp used by the
// linearized MOSFET model.
func (ctx *StampContext) StampTransconductance(outP, outN, inP, inN int, gm float64) {
	if outP != 0 {
		if inP != 0 {
			ctx.addA(outP-1, inP-1, gm)
		}
		if inN != 0 {
			ctx.addA(outP-1, inN-1, -gm)
		}
	}
	if outN != 0 {
		if inP != 0 {
			ctx.addA(outN-1, inP-1, -gm)
		}
		if inN != 0 {
			ctx.addA(outN-1, inN-1, gm)
		}
	}
}

// Circuit is a mutable netlist.
type Circuit struct {
	names    map[string]int // net name → node index (Ground → 0)
	nodeName []string       // node index → name
	elements []Element
	elemByID map[string]Element
	branches int
	frozen   bool
}

// New returns an empty circuit containing only the ground net.
func New() *Circuit {
	return &Circuit{
		names:    map[string]int{Ground: 0},
		nodeName: []string{Ground},
		elemByID: map[string]Element{},
	}
}

// Node returns the index for the named net, creating it if necessary.
// The name "0" is ground.
func (c *Circuit) Node(name string) int {
	if idx, ok := c.names[name]; ok {
		return idx
	}
	idx := len(c.nodeName)
	c.names[name] = idx
	c.nodeName = append(c.nodeName, name)
	return idx
}

// NodeIndex returns the index of an existing net and whether it exists.
func (c *Circuit) NodeIndex(name string) (int, bool) {
	idx, ok := c.names[name]
	return idx, ok
}

// NodeName returns the net name for a node index.
func (c *Circuit) NodeName(idx int) string {
	if idx < 0 || idx >= len(c.nodeName) {
		return fmt.Sprintf("node#%d", idx)
	}
	return c.nodeName[idx]
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeName) - 1 }

// NumBranches returns the number of branch-current unknowns.
func (c *Circuit) NumBranches() int { return c.branches }

// Size returns the dimension of the MNA system.
func (c *Circuit) Size() int { return c.NumNodes() + c.branches }

// Add registers an element. Branch elements are assigned their branch
// index here. Add rejects duplicate element designators and (for elements
// that describe their topology) self-looped two-terminal elements —
// both always indicate a netlist construction bug, and letting them
// through would stamp a silently wrong or singular system.
func (c *Circuit) Add(e Element) error {
	if c.frozen {
		return fmt.Errorf("circuit: cannot add element %q after Freeze: branch indices are already final", e.Name())
	}
	if _, dup := c.elemByID[e.Name()]; dup {
		return fmt.Errorf("circuit: duplicate element name %q", e.Name())
	}
	if te, ok := e.(Topological); ok {
		if err := c.validateTopology(te); err != nil {
			return err
		}
	}
	if be, ok := e.(BranchElement); ok {
		be.SetBranch(c.NumNodes() + c.branches) // provisional; fixed up in Freeze
		c.branches++
	}
	c.elements = append(c.elements, e)
	c.elemByID[e.Name()] = e
	return nil
}

// MustAdd registers an element and panics on a construction error; for
// tests and examples where the netlist is known-good by construction.
func (c *Circuit) MustAdd(e Element) {
	if err := c.Add(e); err != nil {
		panic(err)
	}
}

// Element returns a registered element by name, or nil.
func (c *Circuit) Element(name string) Element { return c.elemByID[name] }

// Elements returns the registered elements in insertion order.
// The returned slice must not be modified.
func (c *Circuit) Elements() []Element { return c.elements }

// Freeze finalizes node numbering and reassigns branch indices so they
// follow all node unknowns. It must be called once all nets and elements
// are added and before simulation: until then branch indices are
// provisional (Add hands them out under a node count that later nets can
// invalidate), so consumers that stamp or solve must refuse an unfrozen
// circuit rather than index a stale slot. Freeze is idempotent; Add
// rejects further elements once the circuit is frozen.
func (c *Circuit) Freeze() {
	branch := c.NumNodes()
	for _, e := range c.elements {
		if be, ok := e.(BranchElement); ok {
			be.SetBranch(branch)
			branch++
		}
	}
	c.frozen = true
}

// Frozen reports whether Freeze has been called, i.e. whether branch
// indices are final and the circuit is safe to stamp.
func (c *Circuit) Frozen() bool { return c.frozen }

// MergeName returns the canonical display name for an electrical
// equivalence class of nets, as produced when a short or bridge defect
// merges previously distinct nets. Ground sorts first (a class containing
// ground IS ground), the rest alphabetically, joined with "=" so that
// "btC=vddn" reads as "btC identified with vddn". Duplicates are
// dropped; an empty class yields "".
func MergeName(names []string) string {
	seen := map[string]bool{}
	var rest []string
	ground := false
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		if n == Ground {
			ground = true
			continue
		}
		rest = append(rest, n)
	}
	sort.Strings(rest)
	if ground {
		rest = append([]string{Ground}, rest...)
	}
	out := ""
	for i, n := range rest {
		if i > 0 {
			out += "="
		}
		out += n
	}
	return out
}

// NodeNames returns all non-ground net names in sorted order.
func (c *Circuit) NodeNames() []string {
	out := make([]string, 0, c.NumNodes())
	for name, idx := range c.names {
		if idx != 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
