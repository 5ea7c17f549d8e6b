package analysis

import (
	"fmt"
	"sort"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/netlint"
)

// Preflight runs every static check that can invalidate an analysis run
// before any transient simulation: the technology-parameter range lint,
// the netlist structural proofs (floating nets, MNA solvability) and
// phase-model verification, the per-open floating-line cross-check
// against the defect package's Table 1 inventory, the march-test lint,
// and the three-valued detection pre-pass, which brackets every library
// test against the fault catalogs with proved Detects/Misses verdicts;
// its proved-miss findings tell a coverage run which (test, fault) pairs
// are statically undetectable and need no simulation. A finding at
// error severity means the pipeline's inputs are inconsistent and its
// results would be untrustworthy.
func Preflight(tech dram.Technology) (lint.Findings, error) {
	techFindings := dram.LintTechnology(tech)
	if techFindings.Count(lint.Error) > 0 {
		// An unphysical technology may not even build a solvable
		// netlist; report the parameter findings alone.
		return techFindings, nil
	}
	col, err := dram.NewColumn(tech)
	if err != nil {
		return nil, fmt.Errorf("analysis: preflight netlist build: %w", err)
	}
	az := netlint.New(col.Circuit(), dram.LintModelFor(tech))
	out := techFindings
	out = append(out, az.Check()...)
	out = append(out, CrossCheckOpens(az)...)
	out = append(out, CrossCheckShortsBridges(az)...)
	out = append(out, CrossCheckMergeScenarios(az)...)
	out = append(out, march.LintAll(march.All())...)
	out = append(out, march.DetectionPrePass(march.All(), march.PaperFaultCatalog(), march.TwoCellCatalog())...)
	out.Sort()
	return out, nil
}

// CrossCheckOpens predicts, for each of the paper's nine opens, the
// floating-line set from the netlist graph alone and compares it with
// the defect package's declared float groups (the Table 1 inventory).
// The comparison is restricted to the universe of nets any open
// declares: the graph analysis also sees nets the paper's sweep
// protocol does not initialize (e.g. the unused cell 1 and the BC-side
// segments), and those carry no declared expectation to check against.
//
// Disagreement on the primary (directly starved) set is an error — the
// netlist and the inventory have drifted apart. Secondary floats (nets
// starved only because a floating control net stops reaching a gate,
// e.g. the cell behind Open 9's dead word line) are reported as
// informational findings: the paper models them through the mediating
// variable, not as separately initialized nets.
func CrossCheckOpens(az *netlint.Analyzer) lint.Findings {
	var out lint.Findings
	universe := map[string]bool{}
	for _, o := range defect.Opens() {
		for _, g := range o.Floats {
			for _, n := range g.Nets {
				universe[n] = true
			}
		}
	}
	inUniverse := func(nets []string) []string {
		var kept []string
		for _, n := range nets {
			if universe[n] {
				kept = append(kept, n)
			}
		}
		return kept
	}
	for _, o := range defect.Opens() {
		pred := az.PredictFloats([]string{dram.SiteElementName(o.Site)})
		var want []string
		for _, g := range o.Floats {
			want = append(want, g.Nets...)
		}
		sort.Strings(want)
		got := inUniverse(pred.Primary)
		if !equalStrings(got, want) {
			out = append(out, lint.Finding{
				Layer: "netlist", Rule: "float-prediction-mismatch", Severity: lint.Error,
				Subject: o.Name(),
				Message: fmt.Sprintf("graph analysis predicts floating lines %v but the defect inventory declares %v; netlist and Table 1 expectations have drifted apart", got, want),
			})
		}
		if sec := inUniverse(pred.Secondary); len(sec) > 0 {
			out = append(out, lint.Finding{
				Layer: "netlist", Rule: "float-secondary", Severity: lint.Info,
				Subject: o.Name(),
				Message: fmt.Sprintf("nets %v additionally lose drive because a floating control net starves their access gates; the sweep models this through the mediating variable", sec),
			})
		}
	}
	out.Sort()
	return out
}

// CrossCheckShortsBridges runs the static net-merge prover over every
// catalog short/bridge and verifies the netlist against the catalog's
// declarations: each defect must merge exactly the two nets the catalog
// says it does (merge-mismatch otherwise — the netlist and the Section 2
// inventory have drifted apart), and the prover's standing findings
// apply — no floating group may appear on the merged graph and no class
// may contain two supplies. The per-class verdicts ride along as
// informational merge-class findings so reports show what each defect
// does per phase.
func CrossCheckShortsBridges(az *netlint.Analyzer) lint.Findings {
	var out lint.Findings
	for _, sb := range defect.ShortsAndBridges() {
		pred, err := az.PredictMerges([]string{dram.SiteElementName(sb.Site)})
		if err != nil {
			out = append(out, lint.Finding{
				Layer: "netlist", Rule: "merge-analysis", Severity: lint.Error,
				Subject: sb.Name(), Message: err.Error(),
			})
			continue
		}
		want := circuit.MergeName(sb.Merges[:])
		var got []string
		for _, mc := range pred.Classes {
			got = append(got, mc.Name)
		}
		if len(got) != 1 || got[0] != want {
			out = append(out, lint.Finding{
				Layer: "netlist", Rule: "merge-mismatch", Severity: lint.Error,
				Subject: sb.Name(),
				Message: fmt.Sprintf("graph contraction yields classes %v but the defect catalog declares the merge %q; netlist and catalog have drifted apart", got, want),
			})
		}
		out = append(out, pred.Findings()...)
	}
	out.Sort()
	return out
}

// MergeSpecFor translates a catalog merge scenario into the static
// prover's input: each declared site's element with its resistance
// (0 = ideal short, contracted hard).
func MergeSpecFor(sc defect.MergeScenario) netlint.MergeSpec {
	var spec netlint.MergeSpec
	for _, s := range sc.Sites {
		spec.Elems = append(spec.Elems, netlint.MergeElem{
			Name: dram.SiteElementName(s.Site), Ohms: s.Ohms,
		})
	}
	return spec
}

// CrossCheckMergeScenarios runs the multi-defect prover over every
// merge scenario in the catalog and verifies the declarations against
// the prover's output: the hard-merged classes (names and per-phase
// verdicts) and the weak-merge divider verdicts must match exactly
// (merge-scenario-mismatch otherwise — the catalog and the netlist have
// drifted apart). The prover's standing findings ride along, so a
// scenario that transitively joins two rails or floats a net surfaces
// here too.
func CrossCheckMergeScenarios(az *netlint.Analyzer) lint.Findings {
	var out lint.Findings
	mismatch := func(name, format string, args ...any) {
		out = append(out, lint.Finding{
			Layer: "netlist", Rule: "merge-scenario-mismatch", Severity: lint.Error,
			Subject: name, Message: fmt.Sprintf(format, args...),
		})
	}
	for _, sc := range defect.MergeScenarios() {
		pred, err := az.PredictMergeSet(MergeSpecFor(sc))
		if err != nil {
			out = append(out, lint.Finding{
				Layer: "netlist", Rule: "merge-analysis", Severity: lint.Error,
				Subject: sc.Name, Message: err.Error(),
			})
			continue
		}

		gotClasses := map[string]netlint.MergedClass{}
		for _, mc := range pred.Classes {
			got := mc
			gotClasses[mc.Name] = got
		}
		if len(pred.Classes) != len(sc.Classes) {
			var names []string
			for _, mc := range pred.Classes {
				names = append(names, mc.Name)
			}
			mismatch(sc.Name, "graph contraction yields %d classes %v but the scenario declares %d", len(pred.Classes), names, len(sc.Classes))
		}
		for name, phases := range sc.Classes {
			mc, ok := gotClasses[name]
			if !ok {
				mismatch(sc.Name, "declared class %q not produced by the contraction", name)
				continue
			}
			for ph, wantStr := range phases {
				want, err := netlint.ParseVerdict(wantStr)
				if err != nil {
					mismatch(sc.Name, "class %q phase %q: %v", name, ph, err)
					continue
				}
				if got := mc.Verdicts[ph]; got != want {
					mismatch(sc.Name, "class %q phase %q: prover says %s, catalog declares %s", name, ph, got, want)
				}
			}
		}

		gotWeak := map[string]netlint.WeakMerge{}
		for _, wm := range pred.Weak {
			gotWeak[wm.Elem] = wm
		}
		if len(pred.Weak) != len(sc.Weak) {
			mismatch(sc.Name, "prover analyzed %d weak merges but the scenario declares %d", len(pred.Weak), len(sc.Weak))
		}
		for _, we := range sc.Weak {
			elem := dram.SiteElementName(we.Site)
			wm, ok := gotWeak[elem]
			if !ok {
				mismatch(sc.Name, "declared weak merge %q not analyzed (is its resistance above the hard threshold?)", elem)
				continue
			}
			for ph, wantStr := range we.Verdicts {
				want, err := netlint.ParseVerdict(wantStr)
				if err != nil {
					mismatch(sc.Name, "weak %q phase %q: %v", elem, ph, err)
					continue
				}
				if got := wm.Verdicts[ph]; got != want {
					mismatch(sc.Name, "weak %q phase %q: prover says %s, catalog declares %s", elem, ph, got, want)
				}
			}
		}
		pf := pred.Findings()
		for i := range pf {
			// A contested divider the catalog itself declares (enforced
			// above) is expected behaviour, not drift — demote the
			// standing warning so a clean preflight stays clean.
			if pf[i].Rule == "merge-weak-contested" {
				pf[i].Severity = lint.Info
			}
		}
		out = append(out, pf...)
	}
	out.Sort()
	return out
}

func equalStrings(a, b []string) bool {
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
