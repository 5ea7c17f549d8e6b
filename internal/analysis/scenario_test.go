// Differential equivalence tests for the multi-defect and weak-merge
// catalog: every scenario's statically declared verdicts must hold
// bit-for-bit against both the prover and the pooled electrical
// pipeline. Three claims are checked per scenario:
//
//  1. The static prover reproduces the catalog's declared class and
//     weak-merge verdicts exactly, and predicts zero floating groups —
//     the Section 2 negative result survives defect co-occurrence.
//  2. The electrical sweep's outcome at every (R_def, SOS) point is
//     identical for every initialization voltage U, and no partial
//     fault emerges: merged nets (hard or weak) never float.
//  3. Where the catalog pins a divider voltage (WeakCheck), the
//     transient engine's settled net voltage matches the static
//     Thevenin-divider prediction within the declared tolerance.
package analysis_test

import (
	"math"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/netlint"
	"github.com/memtest/partialfaults/internal/numeric"
)

func TestMergeScenarioProverMatchesSweep(t *testing.T) {
	tech := dram.Default()
	col, err := dram.NewColumn(tech)
	if err != nil {
		t.Fatal(err)
	}
	az := netlint.New(col.Circuit(), dram.LintModelFor(tech))

	factory := analysis.NewPooledSpiceFactory(tech)
	us := []float64{0, 1.65, 3.3}
	soses := []fp.SOS{
		fp.NewSOS(fp.Init0),
		fp.NewSOS(fp.Init1),
		fp.NewSOS(fp.Init1, fp.R(1)),
		fp.NewSOS(fp.Init0, fp.W(1)),
	}

	scenarios := defect.MergeScenarios()
	if len(scenarios) < 4 {
		t.Fatalf("scenario catalog has %d entries; the tentpole requires ≥2 multi-defect and ≥2 weak entries", len(scenarios))
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			pred, err := az.PredictMergeSet(analysis.MergeSpecFor(sc))
			if err != nil {
				t.Fatal(err)
			}

			// (1a) Zero floating groups on the merged graph.
			if len(pred.Floats.Primary)+len(pred.Floats.Secondary)+len(pred.Floats.Unknown) != 0 {
				t.Fatalf("static prover predicts floats %+v for %s", pred.Floats, sc.Name)
			}

			// (1b) Declared hard-class verdicts, bit for bit.
			classes := map[string]netlint.MergedClass{}
			for _, mc := range pred.Classes {
				classes[mc.Name] = mc
			}
			if len(pred.Classes) != len(sc.Classes) {
				t.Errorf("prover yields %d classes, catalog declares %d", len(pred.Classes), len(sc.Classes))
			}
			for name, phases := range sc.Classes {
				mc, ok := classes[name]
				if !ok {
					t.Errorf("declared class %q not produced", name)
					continue
				}
				for ph, wantStr := range phases {
					want, err := netlint.ParseVerdict(wantStr)
					if err != nil {
						t.Fatal(err)
					}
					if got := mc.Verdicts[ph]; got != want {
						t.Errorf("class %q phase %q: prover %s, catalog %s", name, ph, got, want)
					}
				}
			}

			// (1c) Declared weak-merge verdicts, bit for bit.
			weak := map[string]netlint.WeakMerge{}
			for _, wm := range pred.Weak {
				weak[wm.Elem] = wm
			}
			if len(pred.Weak) != len(sc.Weak) {
				t.Errorf("prover yields %d weak merges, catalog declares %d", len(pred.Weak), len(sc.Weak))
			}
			for _, we := range sc.Weak {
				elem := dram.SiteElementName(we.Site)
				wm, ok := weak[elem]
				if !ok {
					t.Errorf("declared weak merge %q not analyzed", elem)
					continue
				}
				for ph, wantStr := range we.Verdicts {
					want, err := netlint.ParseVerdict(wantStr)
					if err != nil {
						t.Fatal(err)
					}
					if got := wm.Verdicts[ph]; got != want {
						t.Errorf("weak %q phase %q: prover %s, catalog %s", elem, ph, got, want)
					}
				}
			}

			// (2) Electrical sweep: U-independence bit for bit, no
			// partial faults. Hard scenarios sweep R_def (all sites with
			// Ohms 0 follow it); weak scenarios run at their declared
			// fixed resistance.
			o := sc.AsOpenDescriptor()
			rdefs := numeric.Logspace(1e2, 1e6, 3)
			if sc.Sites[0].Ohms != 0 {
				rdefs = []float64{sc.Sites[0].Ohms}
			}
			for _, sos := range soses {
				plane, err := analysis.SweepPlane(analysis.SweepConfig{
					Factory: factory, Open: o, Float: sc.Probe, SOS: sos,
					RDefs: rdefs, Us: us,
				})
				if err != nil {
					t.Fatalf("%s / %q: %v", sc.Name, sos, err)
				}
				for i := range plane.RDefs {
					ref := plane.Points[i][0]
					for j := 1; j < len(plane.Us); j++ {
						pt := plane.Points[i][j]
						if pt.Faulty != ref.Faulty || pt.FP.F != ref.FP.F || pt.FP.R != ref.FP.R || pt.FFM != ref.FFM {
							t.Errorf("%s / %q at R_def=%.3g: U=%.3g gives (faulty=%v fp=%v) but U=%.3g gives (faulty=%v fp=%v); a merge outcome must not depend on U",
								sc.Name, sos, plane.RDefs[i], plane.Us[j], pt.Faulty, pt.FP, plane.Us[0], ref.Faulty, ref.FP)
						}
					}
				}
				if findings := analysis.IdentifyPartialFaults(plane); len(findings) != 0 {
					t.Errorf("%s / %q: partial findings %v; Section 2 excludes merges from partial faults", sc.Name, sos, findings)
				}
			}

			// (2b) Hard stuck-to-ground classes must behave as stuck-at-0
			// at the hardest short, exactly as in the single-defect test.
			stuckToGround := false
			for _, mc := range pred.Classes {
				if len(mc.Supplies) == 1 && mc.Supplies[0] == "0" {
					for _, v := range mc.Verdicts {
						if v == netlint.VerdictStuck {
							stuckToGround = true
						}
					}
				}
			}
			if stuckToGround {
				for _, init := range []fp.Init{fp.Init1, fp.Init0} {
					out, err := analysis.RunSOS(factory, o, rdefs[0], sc.Probe.Nets, 0, fp.NewSOS(init))
					if err != nil {
						t.Fatal(err)
					}
					if out.F != 0 {
						t.Errorf("prover says stuck to ground, but hard short holds %d after init %v", out.F, init)
					}
				}
			}

			// (3) Weak divider voltage: settle the engine in the checked
			// phase and compare against the static Thevenin prediction.
			for _, we := range sc.Weak {
				if we.Check == nil {
					continue
				}
				ck := we.Check
				wm, ok := weak[dram.SiteElementName(we.Site)]
				if !ok {
					continue // already reported above
				}
				var predicted float64
				switch ck.Net {
				case wm.A.Net:
					predicted = wm.Volts[ck.Phase][0]
				case wm.B.Net:
					predicted = wm.Volts[ck.Phase][1]
				default:
					t.Errorf("weak check net %q is neither endpoint (%s, %s)", ck.Net, wm.A.Net, wm.B.Net)
					continue
				}
				if math.IsNaN(predicted) {
					t.Errorf("weak check for %s phase %s: static prediction is NaN, nothing to pin", we.Site, ck.Phase)
					continue
				}
				mem, err := factory(o, rdefs[0])
				if err != nil {
					t.Fatal(err)
				}
				mem.ForceVictim(ck.InitBit)
				for i := 0; i < ck.SettleIdles; i++ {
					if err := mem.Idle(); err != nil {
						t.Fatal(err)
					}
				}
				prober, ok := mem.(analysis.VoltageProber)
				if !ok {
					t.Fatal("spice memory does not implement VoltageProber")
				}
				got := prober.NetVoltage(ck.Net)
				if r, ok := mem.(analysis.Releaser); ok {
					r.Release()
				}
				if math.Abs(got-predicted) > ck.TolVolts {
					t.Errorf("weak %s: settled %s = %.3f V in %s, static divider predicts %.3f V (tol %.2f)",
						we.Site, ck.Net, got, ck.Phase, predicted, ck.TolVolts)
				}
			}
		})
	}
}
