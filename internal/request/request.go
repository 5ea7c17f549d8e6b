// Package request is the one typed request layer behind pfserve and the
// command-line tools. Each cacheable analysis kind — Inventory,
// Coverage, TwoCell, Matrix, Predict and Stress — is a struct whose
// JSON form is the service request body, with three methods:
//
//   - Normalize(env) applies every default, lookup and validation and
//     fails with a BadRequest error;
//   - Key(env) builds the content-addressed store key from the
//     normalized request;
//   - Run(ctx, env) computes the typed library result.
//
// The CLIs build the same values from their flags, so a CLI run and a
// service request that normalize to one key compute one result. Every
// request decision (engine names, test and open lookup, grid axes,
// geometry, aggressor offsets, stress corners) has exactly one resolver
// here; every march request runs on the one bit-plane engine.
package request

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/numeric"
)

// Inventory engine names: each picks a simulation model.
const (
	engineBehav = "behav"
	engineSpice = "spice"
)

// BadRequest is the error Normalize returns when the request itself is
// at fault: an unknown name, a malformed grid, a missing field.
type BadRequest string

func (e BadRequest) Error() string { return string(e) }

func badRequest(format string, args ...any) error {
	return BadRequest(fmt.Sprintf(format, args...))
}

// Env is what every request runs over: the model parameters and their
// fingerprints, the catalog fingerprint, and the shared pool and trace
// counters.
type Env struct {
	Params behav.Params
	Tech   dram.Technology
	// BehavModel and SpiceModel fingerprint the two inventory engines
	// over Params and Tech; Catalog fingerprints every fault/defect
	// catalog a request can range over.
	BehavModel analysis.Fingerprint
	SpiceModel analysis.Fingerprint
	Catalog    string
	// Pool bounds concurrent simulations across all requests; Trace is
	// shared by every sweep run over this Env.
	Pool  *analysis.Pool
	Trace *analysis.TraceCounters
	// Progress, when non-nil, receives pipeline progress lines.
	Progress func(string)
}

// NewEnv builds an Env. A nil params means behav.DefaultParams and a nil
// tech means dram.Default; a given tech also becomes the analytical
// model's technology. parallelism bounds the pool (0 means GOMAXPROCS).
func NewEnv(params *behav.Params, tech *dram.Technology, parallelism int) (*Env, error) {
	env := &Env{
		Params: behav.DefaultParams(),
		Tech:   dram.Default(),
		Pool:   analysis.NewPool(parallelism),
		Trace:  &analysis.TraceCounters{},
	}
	if params != nil {
		env.Params = *params
	}
	if tech != nil {
		env.Tech = *tech
		env.Params.Tech = *tech
	}
	env.BehavModel = behav.Fingerprint(env.Params)
	spice, err := analysis.SpiceFingerprint(env.Tech)
	if err != nil {
		return nil, fmt.Errorf("request: %w", err)
	}
	env.SpiceModel = spice
	env.Catalog = catalogFingerprint()
	return env, nil
}

// catalogFingerprint digests every fault/defect catalog a request
// ranges over: the simulated opens, the short/bridge catalog, the march
// test library, and the single- and two-cell fault catalogs. Any
// catalog change invalidates every stored result that could depend on
// it.
func catalogFingerprint() string {
	var parts []string
	for _, o := range defect.SimulatedOpens() {
		parts = append(parts, fmt.Sprintf("open:%d:%s:%v", o.ID, o.Site, o.Floats))
	}
	for _, sb := range defect.ShortsAndBridges() {
		parts = append(parts, "sb:"+sb.Site)
	}
	for _, t := range march.All() {
		parts = append(parts, "test:"+t.Name+":"+t.String())
	}
	for _, e := range march.ClassicalFaultCatalog() {
		parts = append(parts, "single:"+e.Name)
	}
	for _, e := range march.PaperFaultCatalog() {
		parts = append(parts, "paper:"+e.Name)
	}
	for _, e := range march.TwoCellCatalog() {
		parts = append(parts, "two:"+e.Name)
	}
	return string(analysis.NewFingerprint("catalog", parts...))
}

// model resolves an inventory engine name to its model fingerprint;
// it is the validation half of Factory, cheap enough for the store-hit
// path.
func (e *Env) model(engine string) (analysis.Fingerprint, error) {
	switch engine {
	case "", engineBehav:
		return e.BehavModel, nil
	case engineSpice:
		return e.SpiceModel, nil
	}
	return "", badRequest("unknown engine %q (want behav or spice)", engine)
}

// Factory resolves an inventory engine name ("" or "behav" for the
// analytical model, "spice" for the pooled transient column) to its
// Factory.
func (e *Env) Factory(engine string) (analysis.Factory, error) {
	if _, err := e.model(engine); err != nil {
		return nil, err
	}
	if engine == engineSpice {
		return analysis.NewPooledSpiceFactory(e.Tech), nil
	}
	return behav.NewFactory(e.Params), nil
}

// bitPlane is the one march engine every request runs on. It holds no
// state, so all requests share it.
var bitPlane = bitsim.New()

// Tests resolves march test names against the library; no names means
// the whole library.
func Tests(names []string) ([]march.Test, error) {
	all := march.All()
	if len(names) == 0 {
		return all, nil
	}
	out := make([]march.Test, 0, len(names))
	for _, n := range names {
		i := slices.IndexFunc(all, func(t march.Test) bool { return t.Name == n })
		if i < 0 {
			return nil, badRequest("unknown march test %q", n)
		}
		out = append(out, all[i])
	}
	return out, nil
}

// Opens resolves open IDs against the paper's catalog; no IDs means nil
// (every simulated open).
func Opens(ids []int) ([]defect.Open, error) {
	var out []defect.Open
	for _, id := range ids {
		o, ok := defect.ByID(id)
		if !ok {
			return nil, badRequest("unknown open %d", id)
		}
		out = append(out, o)
	}
	return out, nil
}

// maxSide caps rows and cols. The largest array the repository runs is
// 1024×1024; the cap keeps every scenario count of a march walk far
// inside an int.
const maxSide = 1 << 16

// marchWalk normalizes the fields every march request shares. The
// engine field stays only so that bodies naming it still decode: empty
// and "bitsim" both normalize to "bitsim", so both spellings address
// one store key. Zero sides take the default 4×2 geometry; a negative
// side or one over maxSide is rejected.
func marchWalk(engine *string, rows, cols *int) error {
	if *engine != "" && *engine != bitPlane.Name() {
		return badRequest("unknown march engine %q: requests run on bitsim (the scalar memsim walk is a test oracle and is not served)", *engine)
	}
	if *rows < 0 || *cols < 0 || *rows > maxSide || *cols > maxSide {
		return badRequest("rows and cols take 1 to %d (0 takes the default), not %dx%d", maxSide, *rows, *cols)
	}
	*engine, *rows, *cols = bitPlane.Name(), cmp.Or(*rows, 4), cmp.Or(*cols, 2)
	return nil
}

// CheckOffsets validates an aggressor-offset list (march.CheckOffsets)
// as a client error.
func CheckOffsets(offsets []int) error {
	if err := march.CheckOffsets(offsets); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

// Grid is the (R_def, U) sweep grid of Inventory and Stress. RDefs and
// Us are explicit axes; when one is empty its Min/Max/Steps triple
// applies (log-spaced resistances, linear voltages).
type Grid struct {
	RDefs     []float64 `json:"rdefs,omitempty"`
	Us        []float64 `json:"us,omitempty"`
	RDefMin   float64   `json:"rdef_min,omitempty"`
	RDefMax   float64   `json:"rdef_max,omitempty"`
	RDefSteps int       `json:"rdef_steps,omitempty"`
	UMin      float64   `json:"u_min,omitempty"`
	UMax      float64   `json:"u_max,omitempty"`
	USteps    int       `json:"u_steps,omitempty"`
}

// maxAxisPoints caps every grid axis, explicit or derived from a step
// count. The largest axis the repository sweeps has 25 points; the cap
// only stops a tiny body from asking for an unbounded allocation.
const maxAxisPoints = 256

// Normalize derives the explicit axes — a zero triple field takes the
// Table 1 default (1 kΩ…10 MΩ in 13 steps, 0…3.3 V in 12) — and zeroes
// the consumed triples, so every spelling of one grid encodes the same.
// Step counts must not be negative, no axis may exceed maxAxisPoints,
// resistances must be positive and every value finite.
func (g *Grid) Normalize() error {
	for _, n := range []int{g.RDefSteps, g.USteps, len(g.RDefs), len(g.Us)} {
		if n < 0 || n > maxAxisPoints {
			return badRequest("a grid axis takes 1 to %d points (a zero step count takes the default), not %d", maxAxisPoints, n)
		}
	}
	if len(g.RDefs) == 0 {
		if g.RDefMin < 0 || g.RDefMax < 0 {
			return badRequest("rdef_min and rdef_max must be positive")
		}
		g.RDefs = numeric.Logspace(cmp.Or(g.RDefMin, 1e3), cmp.Or(g.RDefMax, 1e7), cmp.Or(g.RDefSteps, 13))
	}
	if len(g.Us) == 0 {
		g.Us = numeric.Linspace(g.UMin, cmp.Or(g.UMax, 3.3), cmp.Or(g.USteps, 12))
	}
	*g = Grid{RDefs: g.RDefs, Us: g.Us}
	for _, r := range g.RDefs {
		if !(r > 0) || math.IsInf(r, 0) {
			return badRequest("resistance %g is not positive and finite", r)
		}
	}
	for _, u := range g.Us {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return badRequest("voltage %g is not finite", u)
		}
	}
	return nil
}

// sweepMode resolves the sweep field. Dense is the default and is
// rendered as the omitted field, so dense specs keep one key; "traced"
// stays in the spec because traced and dense results may differ (a
// fault region that holds no sample can be missed — DESIGN.md §14).
func sweepMode(sweep *string) (analysis.SweepMode, error) {
	mode, err := analysis.ParseSweepMode(*sweep)
	if err != nil {
		return "", badRequest("%v", err)
	}
	if mode == analysis.SweepDense {
		*sweep = ""
	}
	return mode, nil
}
