package analysis

import (
	"context"
	"fmt"
	"sort"
	"sync"

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
	// BaseSOSes are the sensitizing sequences to sweep; defaults to the
	// eight static single-cell SOSes (covering all 12 static FPs).
	BaseSOSes []fp.SOS
	// MaxCompletingOps bounds the completion search (default 3).
	MaxCompletingOps int
	// MaxProbeRDefs caps how many partial R_def rows the completion
	// search re-simulates (default 4: smallest, largest, median, first-third).
	MaxProbeRDefs int
	// Parallelism bounds concurrent simulations per sweep.
	Parallelism int
	// Progress, when non-nil, receives one line per pipeline step.
	Progress func(string)
	// Sweep selects the plane-sweep strategy; the zero value is dense.
	// Traced sweeps run far fewer simulations and give the same planes
	// wherever every fault region holds a sample (see RunSweep).
	Sweep SweepMode
	// TraceStride overrides the traced sweep's seed stride (0 = default).
	TraceStride int
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

// BuildInventory runs the full paper pipeline: for every open and every
// floating-voltage group, sweep each base SOS over the (R_def, U) grid,
// apply the partial-fault rule, and search completing operations for
// every partial FFM found.
//
// The (open, group) units are independent and run concurrently, all
// sharing one bounded worker pool so total simulation concurrency stays
// at cfg.Parallelism regardless of unit count. Within a unit the SOSes
// run in order (the first-FFM-wins dedup depends on it), backed by a
// unit-scoped replay cache, which also serves the unit's completion
// searches and is released when the unit finishes. Rows are assembled
// in deterministic unit order, so the result is identical to the
// sequential pipeline's.
func BuildInventory(cfg InventoryConfig) ([]Row, error) {
	opens := cfg.Opens
	if opens == nil {
		opens = defect.SimulatedOpens()
	}
	soses := cfg.BaseSOSes
	if soses == nil {
		soses = StaticSOSes()
	}
	maxProbe := cfg.MaxProbeRDefs
	if maxProbe <= 0 {
		maxProbe = 4
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
	unitErrs := make([]error, len(units))
	var wg sync.WaitGroup
	for ui, un := range units {
		wg.Add(1)
		go func(ui int, open defect.Open, group defect.FloatGroup) {
			defer wg.Done()
			replay := NewReplayCache(cfg.Factory, open, group.Nets)
			defer replay.Close()
			seen := map[fp.FFM]bool{}
			for _, sos := range soses {
				plane, err := RunSweep(cfg.Sweep, cfg.TraceStride, cfg.Trace, SweepConfig{
					Factory: cfg.Factory, Open: open, Float: group, SOS: sos,
					RDefs: cfg.RDefs, Us: cfg.Us,
					Ctx: cfg.Ctx, Replay: replay, Pool: pool,
				})
				if err != nil {
					unitErrs[ui] = fmt.Errorf("analysis: %s %s sweep %q: %w", open.Name(), group.Var, sos, err)
					return
				}
				for _, finding := range IdentifyPartialFaults(plane) {
					if seen[finding.FFM] {
						continue
					}
					seen[finding.FFM] = true
					report(fmt.Sprintf("%s / %s: partial %s via %q", open.Name(), group.Var, finding.FFM, sos))
					probes := probeRDefs(finding.RDefWithPartial, maxProbe)
					comp, err := SearchCompletion(CompletionConfig{
						Factory: cfg.Factory, Open: open, Float: group,
						Base:  finding.Example.Base(),
						RDefs: probes, Us: cfg.Us, MaxOps: cfg.MaxCompletingOps,
						Ctx: cfg.Ctx, Replay: replay, Pool: pool,
					})
					if err != nil {
						unitErrs[ui] = fmt.Errorf("analysis: completing %s for %s: %w", finding.FFM, open.Name(), err)
						return
					}
					unitRows[ui] = append(unitRows[ui], Row{
						SimFFM:    finding.FFM,
						ComFFM:    finding.FFM.Complement(),
						Open:      open,
						Float:     group.Var,
						Possible:  comp.Possible,
						Completed: comp.Completed,
						Partial:   finding,
					})
				}
			}
		}(ui, un.open, un.group)
	}
	wg.Wait()
	for _, err := range unitErrs {
		if err != nil {
			return nil, err
		}
	}
	var rows []Row
	for _, ur := range unitRows {
		rows = append(rows, ur...)
	}
	sortRows(rows)
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
