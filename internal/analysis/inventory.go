package analysis

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
)

// Row is one entry of the partial-fault inventory — the shape of the
// paper's Table 1: the simulated FFM, the FFM of the complementary
// defect, the open, the completed FP (or "Not possible"), and the
// floating voltage that mediates the fault.
type Row struct {
	// SimFFM is the partial fault observed in simulation.
	SimFFM fp.FFM
	// ComFFM is the behaviour of the complementary defect [Al-Ars00].
	ComFFM fp.FFM
	// Open is the injected defect.
	Open defect.Open
	// Float is the mediating floating voltage ("Initialized volt.").
	Float defect.FloatVar
	// Possible is false for the "Not possible" entries.
	Possible bool
	// Completed is the completed FP when Possible.
	Completed fp.FP
	// Partial is the underlying partial finding.
	Partial PartialFinding
}

// CompletedString renders the Completed column as the paper does.
func (r Row) CompletedString() string {
	if !r.Possible {
		return "Not possible"
	}
	return r.Completed.String()
}

// InventoryConfig parameterizes the full Table 1 pipeline.
type InventoryConfig struct {
	// Factory builds devices under analysis.
	Factory Factory
	// Opens to analyze; defaults to defect.SimulatedOpens().
	Opens []defect.Open
	// RDefs and Us are the sweep grid; probe subsets are derived.
	RDefs, Us []float64
	// Parallelism sizes the pipeline's one pool when Pool is nil; 0
	// means GOMAXPROCS.
	Parallelism int
	// Progress, when non-nil, receives one line per pipeline step.
	Progress func(string)
	// Sweep selects the plane-sweep strategy; the zero value is dense.
	// Traced sweeps run far fewer simulations and give the same planes
	// wherever every fault region holds a sample (see RunSweep).
	Sweep SweepMode
	// Trace, when non-nil, accumulates traced-sweep statistics across
	// all the pipeline's plane sweeps.
	Trace *TraceCounters

	// Ctx, when non-nil, cancels the pipeline: in-flight units abort at
	// their next simulation and the context error is returned.
	Ctx context.Context
	// Pool, when non-nil, replaces the pipeline-private worker pool so
	// concurrent pipelines share one concurrency bound.
	Pool *Pool
}

// StaticSOSes returns the eight single-cell SOSes with #O ≤ 1 — the
// sequences whose faulty outcomes are the 12 static FPs of [vdGoor00].
func StaticSOSes() []fp.SOS {
	return []fp.SOS{
		fp.NewSOS(fp.Init0),
		fp.NewSOS(fp.Init1),
		fp.NewSOS(fp.Init0, fp.W(0)),
		fp.NewSOS(fp.Init0, fp.W(1)),
		fp.NewSOS(fp.Init1, fp.W(0)),
		fp.NewSOS(fp.Init1, fp.W(1)),
		fp.NewSOS(fp.Init0, fp.R(0)),
		fp.NewSOS(fp.Init1, fp.R(1)),
	}
}

// maxProbeRDefs caps how many partial R_def rows a completion search
// re-simulates: smallest, largest, median and first third.
const maxProbeRDefs = 4

// BuildInventory runs the full paper pipeline: for every open and every
// floating-voltage group, sweep each static SOS over the (R_def, U) grid,
// apply the partial-fault rule, and search completing operations for
// every partial FFM found.
//
// The (open, group) units are independent and run at once, one ForEach
// worker each: a unit only coordinates and holds no slot. All units
// share one pool (cfg.Pool, else a new one of cfg.Parallelism slots),
// so total simulation concurrency stays at its slots regardless of unit
// count. A repeated open in cfg.Opens runs, and reports, twice. Within
// a unit the SOSes run in order (the first-FFM-wins dedup depends on
// it), backed by a unit-scoped replay cache, which also serves the
// unit's completion searches and is released when the unit finishes.
// Each search starts in its own goroutine as soon as its finding passes
// the dedup, so it runs beside the unit's remaining sweeps. Rows are
// assembled in deterministic unit order, and within a unit in finding
// order, so the result is identical to the sequential pipeline's; so is
// the error returned, the first in the sequential order of sweeps and
// searches.
func BuildInventory(cfg InventoryConfig) ([]Row, error) {
	opens := cfg.Opens
	if opens == nil {
		opens = defect.SimulatedOpens()
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	var progressMu sync.Mutex
	report := func(s string) {
		progressMu.Lock()
		defer progressMu.Unlock()
		progress(s)
	}

	type unit struct {
		open  defect.Open
		group defect.FloatGroup
	}
	var units []unit
	for _, open := range opens {
		for _, group := range open.Floats {
			units = append(units, unit{open, group})
		}
	}

	pool := cfg.Pool
	if pool == nil {
		pool = NewPool(cfg.Parallelism)
	}
	unitRows := make([][]Row, len(units))
	err := ForEach(cfg.Ctx, len(units), len(units), func(ui int) (err error) {
		unitRows[ui], err = inventoryUnit(cfg, pool, units[ui].open, units[ui].group, report)
		return err
	})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, ur := range unitRows {
		rows = append(rows, ur...)
	}
	sortRows(rows)
	return rows, nil
}

// inventoryUnit runs one (open, floating group) unit of BuildInventory:
// the plane loop in SOS order, and one completion search per new
// finding, each started as soon as the finding passes the dedup. It
// returns the rows in finding order once the last search returns. A
// failed search stops the plane loop before its next sweep; findings
// the loop reported meanwhile stay reported.
func inventoryUnit(cfg InventoryConfig, pool *Pool, open defect.Open, group defect.FloatGroup, report func(string)) ([]Row, error) {
	replay := NewReplayCache(cfg.Factory, open, group.Nets)
	defer replay.Close()
	type search struct {
		finding PartialFinding
		comp    Completion
		err     error
	}
	var (
		searches []*search
		wg       sync.WaitGroup
		failed   atomic.Bool // a search failed: the sequential pipeline stops there
		sweepErr error
	)
	seen := map[fp.FFM]bool{}
	for _, sos := range StaticSOSes() {
		if failed.Load() {
			break
		}
		plane, err := RunSweep(cfg.Sweep, cfg.Trace, SweepConfig{
			Factory: cfg.Factory, Open: open, Float: group, SOS: sos,
			RDefs: cfg.RDefs, Us: cfg.Us,
			Ctx: cfg.Ctx, Replay: replay, Pool: pool,
		})
		if err != nil {
			sweepErr = fmt.Errorf("analysis: %s %s sweep %q: %w", open.Name(), group.Var, sos, err)
			break
		}
		for _, finding := range IdentifyPartialFaults(plane) {
			if seen[finding.FFM] {
				continue
			}
			seen[finding.FFM] = true
			report(fmt.Sprintf("%s / %s: partial %s via %q", open.Name(), group.Var, finding.FFM, sos))
			s := &search{finding: finding}
			searches = append(searches, s)
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.comp, s.err = SearchCompletion(CompletionConfig{
					Factory: cfg.Factory, Open: open, Float: group,
					Base:  finding.Example.Base(),
					RDefs: probeRDefs(finding.RDefWithPartial, maxProbeRDefs), Us: cfg.Us,
					Ctx: cfg.Ctx, Replay: replay, Pool: pool,
				})
				if s.err != nil {
					failed.Store(true)
				}
			}()
		}
	}
	wg.Wait()
	// Every search started before the sweep that failed, if one did, so
	// the first failed search in start order precedes the sweep's error.
	rows := make([]Row, 0, len(searches))
	for _, s := range searches {
		if s.err != nil {
			return nil, fmt.Errorf("analysis: completing %s for %s: %w", s.finding.FFM, open.Name(), s.err)
		}
		rows = append(rows, Row{
			SimFFM:    s.finding.FFM,
			ComFFM:    s.finding.FFM.Complement(),
			Open:      open,
			Float:     group.Var,
			Possible:  s.comp.Possible,
			Completed: s.comp.Completed,
			Partial:   s.finding,
		})
	}
	if sweepErr != nil {
		return nil, sweepErr
	}
	return rows, nil
}

// probeRDefs picks up to n representative resistances (smallest,
// largest, median, first-third, then ascending fill) for the completion
// search; the search only needs one of them to admit a full-U
// completion. Indices are deduplicated so no resistance is ever probed
// twice.
func probeRDefs(rdefs []float64, n int) []float64 {
	if len(rdefs) <= n {
		return rdefs
	}
	taken := make(map[int]bool, n)
	out := make([]float64, 0, n)
	take := func(i int) {
		if len(out) < n && !taken[i] {
			taken[i] = true
			out = append(out, rdefs[i])
		}
	}
	take(0)
	take(len(rdefs) - 1)
	take(len(rdefs) / 2)
	take(len(rdefs) / 3)
	for i := 0; len(out) < n && i < len(rdefs); i++ {
		take(i)
	}
	return out
}

// sortRows orders like the paper's Table 1: grouped by FFM, then open.
func sortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].SimFFM != rows[j].SimFFM {
			return rows[i].SimFFM < rows[j].SimFFM
		}
		return rows[i].Open.ID < rows[j].Open.ID
	})
}
