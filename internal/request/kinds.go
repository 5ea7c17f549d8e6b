package request

import (
	"cmp"
	"context"
	"encoding/json"
	"slices"
	"strings"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/analysis/store"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/netlint"
	"github.com/memtest/partialfaults/internal/stress"
)

// key renders a normalized request as a store key. json.Marshal of a
// struct is deterministic (fields in declaration order), so equal
// requests produce equal specs. Normalize has rejected every value
// json cannot encode, so a failure here is a bug.
func key(env *Env, model, kind string, q any) store.Key {
	spec, err := json.Marshal(q)
	if err != nil {
		panic("request: unencodable normalized request: " + err.Error())
	}
	return store.Key{Model: model, Catalog: env.Catalog, Kind: kind, Spec: string(spec)}
}

// Do normalizes q and runs it over env: the store-less path of the
// command-line tools.
func Do[V any](ctx context.Context, env *Env, q interface {
	Normalize(*Env) error
	Run(context.Context, *Env) (V, error)
}) (V, error) {
	if err := q.Normalize(env); err != nil {
		var zero V
		return zero, err
	}
	return q.Run(ctx, env)
}

// inPool runs f in one slot of the env's pool, giving up with ctx's
// error while it waits.
func inPool[V any](ctx context.Context, env *Env, f func() (V, error)) (v V, err error) {
	if perr := env.Pool.DoContext(ctx, func() { v, err = f() }); perr != nil {
		return v, perr
	}
	return v, err
}

// Inventory asks for the Table 1 pipeline over a grid.
type Inventory struct {
	// Engine is "behav" (default) or "spice".
	Engine string `json:"engine,omitempty"`
	// Opens restricts the analyzed opens by ID; empty means all
	// simulated opens. A repeated ID counts once.
	Opens []int `json:"opens,omitempty"`
	Grid
	// Sweep is "dense" (default) or "traced". Traced planes equal dense
	// ones only where every fault region holds a sample, so the two
	// modes are keyed apart.
	Sweep string `json:"sweep,omitempty"`

	opens []defect.Open
	mode  analysis.SweepMode
}

// Normalize validates the request and derives its grid axes.
func (q *Inventory) Normalize(env *Env) (err error) {
	q.mode, q.opens, err = normalizeSweep(env, &q.Engine, &q.Sweep, &q.Opens, &q.Grid)
	return err
}

// normalizeSweep applies the rules Inventory and Stress share: the
// sweep mode, the inventory engine (default behav), the grid axes and
// the resolved open IDs. The IDs are sorted and compacted in place, so
// a repeated ID runs one open's units once and keys as one ID does.
func normalizeSweep(env *Env, engine, sweep *string, ids *[]int, g *Grid) (analysis.SweepMode, []defect.Open, error) {
	mode, err := sweepMode(sweep)
	if err != nil {
		return "", nil, err
	}
	*engine = cmp.Or(*engine, engineBehav)
	if _, err := env.model(*engine); err != nil {
		return "", nil, err
	}
	if err := g.Normalize(); err != nil {
		return "", nil, err
	}
	slices.Sort(*ids)
	*ids = slices.Compact(*ids)
	opens, err := Opens(*ids)
	return mode, opens, err
}

// Key addresses the result under the engine's model fingerprint.
func (q *Inventory) Key(env *Env) store.Key {
	model, _ := env.model(q.Engine)
	return key(env, string(model), "inventory", q)
}

// Run sweeps the inventory.
func (q *Inventory) Run(ctx context.Context, env *Env) ([]analysis.Row, error) {
	factory, err := env.Factory(q.Engine)
	if err != nil {
		return nil, err
	}
	return analysis.BuildInventory(analysis.InventoryConfig{
		Factory: factory,
		Opens:   q.opens,
		RDefs:   q.RDefs, Us: q.Us,
		Ctx:   ctx,
		Pool:  env.Pool,
		Sweep: q.mode, Trace: env.Trace,
		Progress: env.Progress,
	})
}

// Coverage asks for a coverage matrix.
type Coverage struct {
	// Tests are march test names; empty means the whole library.
	Tests []string `json:"tests,omitempty"`
	// Catalog is "classical" (default) or "paper".
	Catalog string `json:"catalog,omitempty"`
	// Engine is "bitsim", the default and the only march engine.
	Engine string `json:"engine,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`

	tests   []march.Test
	catalog []march.CatalogEntry
}

// Normalize fills the defaults and resolves the tests and catalog.
func (q *Coverage) Normalize(*Env) (err error) {
	q.Catalog = cmp.Or(q.Catalog, "classical")
	if err := marchWalk(&q.Engine, &q.Rows, &q.Cols); err != nil {
		return err
	}
	if q.tests, err = Tests(q.Tests); err != nil {
		return err
	}
	switch q.Catalog {
	case "classical":
		q.catalog = march.ClassicalFaultCatalog()
	case "paper":
		q.catalog = march.PaperFaultCatalog()
	default:
		return badRequest("unknown catalog %q (want classical or paper)", q.Catalog)
	}
	return nil
}

// Key addresses the result under the march engine: march-walk results
// depend on the discrete fault model only, not the electrical one.
func (q *Coverage) Key(env *Env) store.Key {
	return key(env, "march:"+q.Engine, "coverage", q)
}

// Run simulates the coverage matrix in one pool slot.
func (q *Coverage) Run(ctx context.Context, env *Env) ([]march.CoverageResult, error) {
	return inPool(ctx, env, func() ([]march.CoverageResult, error) {
		return march.CoverageMatrixWith(bitPlane, q.tests, q.catalog, q.Rows, q.Cols)
	})
}

// TwoCell asks for a two-cell coverage certificate.
type TwoCell struct {
	Test string `json:"test"`
	// Engine is "bitsim", the default and the only march engine.
	Engine string `json:"engine,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`
	// Offsets restricts the aggressor set (aggressor = victim + δ);
	// empty means all ordered pairs.
	Offsets []int `json:"offsets,omitempty"`

	test march.Test
}

// maxTwoCellPasses caps the aggressor-offset passes of a certificate,
// which cost the same at any geometry: 8 190 is the all-pairs count at
// 64×64.
const maxTwoCellPasses = 8190

// Normalize fills the defaults, resolves the test and bounds the
// offset passes: one per listed offset, or 2(rows·cols−1) for all
// ordered pairs.
func (q *TwoCell) Normalize(*Env) error {
	if q.Test == "" {
		return badRequest("missing march test name")
	}
	if err := marchWalk(&q.Engine, &q.Rows, &q.Cols); err != nil {
		return err
	}
	if err := CheckOffsets(q.Offsets); err != nil {
		return err
	}
	passes := len(q.Offsets)
	if passes == 0 {
		passes = 2 * (q.Rows*q.Cols - 1)
	}
	if passes > maxTwoCellPasses {
		return badRequest("a %dx%d certificate makes %d aggressor-offset passes, more than %d; name its offsets (e.g. [1,-1,%d,-%d], the physical neighbours)", q.Rows, q.Cols, passes, maxTwoCellPasses, q.Cols, q.Cols)
	}
	tests, err := Tests([]string{q.Test})
	if err != nil {
		return err
	}
	q.test = tests[0]
	return nil
}

// Key addresses the certificate under the march engine.
func (q *TwoCell) Key(env *Env) store.Key {
	return key(env, "march:"+q.Engine, "twocell", q)
}

// Run builds the certificate over the two-cell catalog in one pool slot.
func (q *TwoCell) Run(ctx context.Context, env *Env) (march.TwoCellCertificate, error) {
	return inPool(ctx, env, func() (march.TwoCellCertificate, error) {
		return march.TwoCellCertificateOffsetsWith(bitPlane, q.test, march.TwoCellCatalog(), q.Rows, q.Cols, q.Offsets)
	})
}

// Matrix asks for the three-valued static detection matrix.
type Matrix struct {
	Tests []string `json:"tests,omitempty"`

	tests []march.Test
}

// Normalize resolves the tests.
func (q *Matrix) Normalize(*Env) (err error) {
	q.tests, err = Tests(q.Tests)
	return err
}

// Key addresses the matrix: the prover is purely symbolic — no model,
// no geometry.
func (q *Matrix) Key(env *Env) store.Key {
	return key(env, "prover", "matrix", q)
}

// Run proves the matrix against the paper and two-cell catalogs in one
// pool slot.
func (q *Matrix) Run(ctx context.Context, env *Env) (march.DetectionMatrix, error) {
	return inPool(ctx, env, func() (march.DetectionMatrix, error) {
		return march.BuildDetectionMatrix(q.tests, march.PaperFaultCatalog(), march.TwoCellCatalog()), nil
	})
}

// Predict asks the static net prover for a verdict: either the
// floating-net prediction of an open, or the merge analysis of one or
// more short/bridge defects.
type Predict struct {
	// Open is an open ID (1-9) for a float prediction.
	Open int `json:"open,omitempty"`
	// Defects are short/bridge sites for a merge prediction, each
	// optionally resistive.
	Defects []PredictDefect `json:"defects,omitempty"`

	opens   []defect.Open // the one Open, resolved
	defects []defect.ShortOrBridge
}

// PredictDefect is one short/bridge site, optionally resistive.
type PredictDefect struct {
	Site string  `json:"site"`
	Ohms float64 `json:"ohms,omitempty"`
}

// Prediction is a Predict result: the float prediction of Open (whose
// site element is Element) when Merges is nil, else the merge analysis
// of Defects.
type Prediction struct {
	Open    defect.Open
	Element string
	Floats  netlint.Prediction
	Defects []defect.ShortOrBridge
	Merges  *netlint.MergePrediction
}

// Normalize checks that exactly one of open and defects is given and
// resolves it.
func (q *Predict) Normalize(*Env) (err error) {
	if (q.Open == 0) == (len(q.Defects) == 0) {
		return badRequest("want exactly one of open or defects")
	}
	if q.Open != 0 {
		q.opens, err = Opens([]int{q.Open})
		return err
	}
	catalog := defect.ShortsAndBridges()
	for _, d := range q.Defects {
		i := slices.IndexFunc(catalog, func(sb defect.ShortOrBridge) bool { return sb.Site == d.Site })
		if i < 0 {
			return badRequest("unknown defect site %q", d.Site)
		}
		q.defects = append(q.defects, catalog[i])
	}
	return nil
}

// Key addresses the prediction under the electrical model: predictions
// depend on the netlist graph and phase model, which it covers.
func (q *Predict) Key(env *Env) store.Key {
	return key(env, string(env.SpiceModel), "predict", q)
}

// Run analyzes the column netlist.
func (q *Predict) Run(_ context.Context, env *Env) (Prediction, error) {
	col, err := dram.NewColumn(env.Tech)
	if err != nil {
		return Prediction{}, err
	}
	az := netlint.New(col.Circuit(), dram.LintModel())
	if q.Open != 0 {
		open := q.opens[0]
		elem := dram.SiteElementName(open.Site)
		return Prediction{Open: open, Element: elem, Floats: az.PredictFloats([]string{elem})}, nil
	}
	var ms netlint.MergeSpec
	for _, d := range q.Defects {
		ms.Elems = append(ms.Elems, netlint.MergeElem{Name: dram.SiteElementName(d.Site), Ohms: d.Ohms})
	}
	pred, err := az.PredictMergeSet(ms)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Defects: q.defects, Merges: &pred}, nil
}

// Stress asks for the stress-condition scenario matrix: the defect
// catalog swept at every operating corner, with per-corner inventories
// and coverage, deltas against nominal, and the worst-corner coverage
// certificate.
type Stress struct {
	// Engine is "behav" (default) or "spice".
	Engine string `json:"engine,omitempty"`
	// MarchEngine is "bitsim", the default and the only march engine.
	MarchEngine string `json:"march_engine,omitempty"`
	// Corners is a semicolon-separated corner list (built-in names or
	// name:key=val,... derivations); empty means the built-in default
	// corners. A nominal corner is always ensured, and the list takes at
	// most 16 corners, nominal included.
	Corners string `json:"corners,omitempty"`
	// Tests restricts the certified march tests; empty means the whole
	// library.
	Tests []string `json:"tests,omitempty"`
	// Opens restricts the analyzed opens by ID; a repeated ID counts
	// once.
	Opens []int `json:"opens,omitempty"`
	Grid
	// Rows and Cols set the coverage-simulation geometry (default 4×2).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Sweep is "dense" (default) or "traced", keyed apart as in
	// Inventory.
	Sweep string `json:"sweep,omitempty"`

	corners []stress.Spec
	opens   []defect.Open
	tests   []march.Test
	mode    analysis.SweepMode
}

// Normalize validates the request, derives the grid axes and rewrites
// Corners into its canonical form (parsed, nominal ensured, re-rendered
// via Spec.String) so equivalent corner lists share one key. A corner
// that cannot derive a lint-clean technology is rejected here: it is a
// client error, not a cacheable result.
func (q *Stress) Normalize(env *Env) (err error) {
	if q.mode, q.opens, err = normalizeSweep(env, &q.Engine, &q.Sweep, &q.Opens, &q.Grid); err != nil {
		return err
	}
	if err := marchWalk(&q.MarchEngine, &q.Rows, &q.Cols); err != nil {
		return err
	}
	if q.corners, q.Corners, err = corners(q.Corners, env.Tech); err != nil {
		return err
	}
	q.tests, err = Tests(q.Tests)
	return err
}

// maxCorners caps a stress request's corner list, nominal included:
// every corner's inventory runs at once. The built-in set has 6.
const maxCorners = 16

// corners resolves a corner list — the built-in set when empty, nominal
// ensured, at most maxCorners, every corner derivable from tech — and
// renders it canonically.
func corners(spec string, tech dram.Technology) ([]stress.Spec, string, error) {
	cs := stress.DefaultCorners()
	if spec != "" {
		var err error
		if cs, err = stress.ParseSpecs(spec); err != nil {
			return nil, "", badRequest("%v", err)
		}
	}
	cs = stress.EnsureNominal(cs)
	if len(cs) > maxCorners {
		return nil, "", badRequest("a stress request takes at most %d corners, nominal included, not %d", maxCorners, len(cs))
	}
	rendered := make([]string, len(cs))
	for i, c := range cs {
		if _, err := c.Derive(tech); err != nil {
			return nil, "", badRequest("%v", err)
		}
		rendered[i] = c.String()
	}
	return cs, strings.Join(rendered, ";"), nil
}

// Key addresses the matrix under the base model: every corner
// derivation is a pure function of the base model and the corner list
// (in the spec), so a base technology change invalidates every corner.
func (q *Stress) Key(env *Env) store.Key {
	model, _ := env.model(q.Engine)
	return key(env, string(model), "stress", q)
}

// Run sweeps the matrix.
func (q *Stress) Run(ctx context.Context, env *Env) (*stress.Result, error) {
	return stress.Analyze(stress.Config{
		Corners: q.corners,
		Engine:  q.Engine,
		Params:  env.Params, Tech: env.Tech,
		MarchEngine: bitPlane,
		Opens:       q.opens,
		RDefs:       q.RDefs, Us: q.Us,
		Tests: q.tests,
		Rows:  q.Rows, Cols: q.Cols,
		Pool:  env.Pool,
		Ctx:   ctx,
		Sweep: q.mode, Trace: env.Trace,
		Progress: env.Progress,
	})
}
