package stress

import (
	"context"
	"fmt"
	"sync"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
	"github.com/memtest/partialfaults/internal/numeric"
)

// Config parameterizes the stress matrix.
type Config struct {
	// Corners to sweep; nil means DefaultCorners(). A nominal corner is
	// ensured (prepended when absent) — the deltas and the certificate
	// need the reference point. Corner order is otherwise preserved.
	Corners []Spec
	// Engine selects the inventory backend: "behav" (default) or
	// "spice".
	Engine string
	// Params is the base analytical parameter set for the behav engine;
	// the zero value means behav.DefaultParams().
	Params behav.Params
	// Tech is the base electrical technology for the spice engine; the
	// zero value means dram.Default().
	Tech dram.Technology
	// MarchEngine evaluates per-corner coverage; nil means the
	// bit-plane engine.
	MarchEngine march.Engine
	// Opens restricts the analyzed opens; nil means all simulated opens.
	Opens []defect.Open
	// RDefs and Us are the per-corner sweep grid — shared across
	// corners so region deltas compare like with like; nil means the
	// standard Table 1 grid.
	RDefs, Us []float64
	// Tests are the march tests certified; nil means the whole library.
	Tests []march.Test
	// Rows and Cols set the coverage-simulation geometry (default 4×2).
	Rows, Cols int
	// Parallelism bounds concurrent simulations when Pool is nil.
	Parallelism int
	// Pool and Ctx thread through to every corner's pipeline: one
	// concurrency bound and one cancellation for the whole matrix.
	Pool *analysis.Pool
	Ctx  context.Context
	// Sweep and Trace select and instrument the plane-sweep strategy,
	// exactly as in analysis.InventoryConfig.
	Sweep analysis.SweepMode
	Trace *analysis.TraceCounters
	// Progress, when non-nil, receives one line per corner milestone.
	Progress func(string)
}

// DefaultRDefs and DefaultUs return the standard Table 1 grid axes.
func DefaultRDefs() []float64 { return numeric.Logspace(1e3, 1e7, 13) }
func DefaultUs() []float64    { return numeric.Linspace(0, 3.3, 12) }

// CornerRun is one corner's slice of the matrix.
type CornerRun struct {
	// Spec is the corner as submitted (after nominal normalization).
	Spec Spec
	// Tech is the derived technology the corner simulated under.
	Tech dram.Technology
	// Model is the corner's model fingerprint — distinct per distinct
	// corner, equal to the base model's for the nominal corner.
	Model analysis.Fingerprint
	// Rows is the corner's Table-1-style inventory.
	Rows []analysis.Row
	// Catalog is the fault catalog derived from Rows, one entry per row.
	Catalog []march.CatalogEntry
	// Uninjectable maps catalog-entry names the functional engine cannot
	// inject (e.g. a corner-found completion mixing victim and bit-line
	// operations) to the engine's reason. Such entries are skipped by the
	// coverage simulation and their certificate claims withheld.
	Uninjectable map[string]string
	// Coverage is the per-corner march coverage matrix over the
	// injectable part of Catalog.
	Coverage []march.CoverageResult
}

// Result is the full stress matrix: per-corner runs in submission
// order, deltas against the nominal corner, and the worst-corner
// coverage certificate.
type Result struct {
	// Engine and MarchEngineName record the backends.
	Engine, MarchEngineName string
	// Rows and Cols are the coverage geometry.
	Rows, Cols int
	// Corners holds one run per corner, in submission order.
	Corners []CornerRun
	// NominalIndex locates the nominal corner within Corners.
	NominalIndex int
	// Deltas reports, per non-nominal corner (in corner order), how the
	// inventory moved against nominal.
	Deltas []CornerDelta
	// Certificate is the worst-corner coverage certificate.
	Certificate Certificate
}

// Nominal returns the nominal corner's run.
func (r *Result) Nominal() CornerRun { return r.Corners[r.NominalIndex] }

// FamilyKey identifies a fault family across corners: the simulated
// FFM, the open and the mediating floating line. Completions may differ
// per corner; the family is the stable cross-corner identity.
type FamilyKey struct {
	FFM    fp.FFM
	OpenID int
	Float  defect.FloatVar
}

// String renders the family for reports and coverage-row names.
func (k FamilyKey) String() string {
	return fmt.Sprintf("%s via %s (Open %d)", k.FFM, k.Float, k.OpenID)
}

// familyOf projects an inventory row onto its family key.
func familyOf(r analysis.Row) FamilyKey {
	return FamilyKey{FFM: r.SimFFM, OpenID: r.Open.ID, Float: r.Float}
}

// less orders families deterministically: FFM, open, float.
func (k FamilyKey) less(o FamilyKey) bool {
	if k.FFM != o.FFM {
		return k.FFM < o.FFM
	}
	if k.OpenID != o.OpenID {
		return k.OpenID < o.OpenID
	}
	return k.Float < o.Float
}

// CatalogFromRows converts a corner's inventory into an injectable
// march catalog, one entry per row in row order: possible rows carry
// their corner-specific completed FP, "Not possible" rows become
// uncompletable entries (undetectable under guarantee semantics —
// exactly the paper's point about them). Entry names are the family
// keys, so coverage rows join back to families across corners.
func CatalogFromRows(rows []analysis.Row) []march.CatalogEntry {
	out := make([]march.CatalogEntry, 0, len(rows))
	for _, r := range rows {
		e := march.CatalogEntry{
			Name:  familyOf(r).String(),
			Float: r.Float, Partial: true,
		}
		if r.Possible {
			e.FP = r.Completed
		} else {
			e.FP = r.Partial.Example
			e.Uncompletable = true
		}
		out = append(out, e)
	}
	return out
}

// Injectable reports whether the march engines can inject the entry,
// probing the fault compiler both of them share directly. A
// corner's completion search can legitimately find completing prefixes
// the engine cannot express — most commonly a prefix mixing victim and
// bit-line writes — and such entries must be withheld from the
// certificate rather than silently mis-simulated.
func Injectable(e march.CatalogEntry) (bool, string) {
	if _, err := memsim.CompileFault(e.Make(0)); err != nil {
		return false, err.Error()
	}
	return true, ""
}

// Analyze runs the full stress matrix: every corner's technology is
// derived and lint-validated, its inventory swept through the shared
// pool under its own factory and model fingerprint, its
// coverage matrix simulated over the derived catalog, and the deltas
// and worst-corner certificate assembled. Corners run at once, one
// analysis.ForEach worker each, and share one pool (cfg.Pool, else a
// new one of cfg.Parallelism slots); a corner only coordinates and
// holds no slot. The result, and the error returned, are deterministic
// in submission order.
func Analyze(cfg Config) (*Result, error) {
	corners := cfg.Corners
	if corners == nil {
		corners = DefaultCorners()
	}
	corners = EnsureNominal(corners)
	engine := cfg.Engine
	if engine == "" {
		engine = "behav"
	}
	if engine != "behav" && engine != "spice" {
		return nil, fmt.Errorf("stress: unknown engine %q (want behav or spice)", engine)
	}
	marchEng := cfg.MarchEngine
	if marchEng == nil {
		marchEng = bitsim.New()
	}
	params := cfg.Params
	if params == (behav.Params{}) {
		params = behav.DefaultParams()
	}
	baseTech := cfg.Tech
	if baseTech == (dram.Technology{}) {
		baseTech = dram.Default()
	}
	tests := cfg.Tests
	if tests == nil {
		tests = march.All()
	}
	rows, cols := cfg.Rows, cfg.Cols
	if rows == 0 {
		rows = 4
	}
	if cols == 0 {
		cols = 2
	}
	rdefs := cfg.RDefs
	if rdefs == nil {
		rdefs = DefaultRDefs()
	}
	us := cfg.Us
	if us == nil {
		us = DefaultUs()
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	var progressMu sync.Mutex
	report := func(format string, args ...any) {
		progressMu.Lock()
		defer progressMu.Unlock()
		progress(fmt.Sprintf(format, args...))
	}

	pool := cfg.Pool
	if pool == nil {
		pool = analysis.NewPool(cfg.Parallelism)
	}

	// Derive every corner up front: a bad corner fails the whole matrix
	// before any simulation runs.
	type derived struct {
		factory analysis.Factory
		model   analysis.Fingerprint
		tech    dram.Technology
	}
	ds := make([]derived, len(corners))
	seenModels := map[analysis.Fingerprint]string{}
	for i, spec := range corners {
		var d derived
		switch engine {
		case "behav":
			p, err := spec.DeriveParams(params)
			if err != nil {
				return nil, err
			}
			d = derived{factory: behav.NewFactory(p), model: behav.Fingerprint(p), tech: p.Tech}
		case "spice":
			t, err := spec.Derive(baseTech)
			if err != nil {
				return nil, err
			}
			fpnt, err := analysis.SpiceFingerprint(t)
			if err != nil {
				return nil, err
			}
			d = derived{factory: analysis.NewPooledSpiceFactory(t), model: fpnt, tech: t}
		}
		if prev, dup := seenModels[d.model]; dup {
			return nil, fmt.Errorf("stress: corners %q and %q derive the same model fingerprint %s — they alias one model and would compute the same results; drop one",
				prev, spec.Name, d.model)
		}
		seenModels[d.model] = spec.Name
		ds[i] = d
	}

	runs := make([]CornerRun, len(corners))
	err := analysis.ForEach(cfg.Ctx, len(corners), len(corners), func(i int) error {
		spec, d := corners[i], ds[i]
		report("corner %s: sweeping inventory under model %s", spec.Name, d.model)
		invRows, err := analysis.BuildInventory(analysis.InventoryConfig{
			Factory: d.factory,
			Opens:   cfg.Opens,
			RDefs:   rdefs, Us: us,
			Ctx: cfg.Ctx, Pool: pool,
			Sweep: cfg.Sweep, Trace: cfg.Trace,
		})
		if err != nil {
			return fmt.Errorf("stress: corner %s: %w", spec.Name, err)
		}
		catalog := CatalogFromRows(invRows)
		injectable := make([]march.CatalogEntry, 0, len(catalog))
		uninjectable := map[string]string{}
		for _, e := range catalog {
			if ok, why := Injectable(e); !ok {
				uninjectable[e.Name] = why
				continue
			}
			injectable = append(injectable, e)
		}
		report("corner %s: %d inventory rows (%d injectable); simulating coverage on %dx%d",
			spec.Name, len(invRows), len(injectable), rows, cols)
		var coverage []march.CoverageResult
		var werr error
		if err := pool.DoContext(cfg.Ctx, func() {
			coverage, werr = march.CoverageMatrixWith(marchEng, tests, injectable, rows, cols)
		}); err != nil {
			return fmt.Errorf("stress: corner %s coverage: %w", spec.Name, err)
		}
		if werr != nil {
			return fmt.Errorf("stress: corner %s coverage: %w", spec.Name, werr)
		}
		runs[i] = CornerRun{
			Spec: spec, Tech: d.tech, Model: d.model,
			Rows: invRows, Catalog: catalog,
			Uninjectable: uninjectable, Coverage: coverage,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	nominalIdx := 0
	for i, s := range corners {
		if s.IsNominal() {
			nominalIdx = i
			break
		}
	}
	res := &Result{
		Engine: engine, MarchEngineName: marchEng.Name(),
		Rows: rows, Cols: cols,
		Corners: runs, NominalIndex: nominalIdx,
	}
	res.Deltas = buildDeltas(res)
	res.Certificate = buildCertificate(res, tests)
	return res, nil
}
