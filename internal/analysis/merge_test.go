// Equivalence tests for the net-merge prover: the paper's Section 2
// negative result proven two ways. The static prover shows no floating
// group appears under any catalog short/bridge; the electrical sweep
// shows the simulated outcome of every (R_def, SOS) point is identical
// for every initialization voltage U — bit for bit. These are the same
// claim at two levels: faulty behavior under a merge defect cannot
// depend on an initialized floating voltage, because nothing floats.
package analysis_test

import (
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/netlint"
	"github.com/memtest/partialfaults/internal/numeric"
)

func TestMergeProverMatchesSimulatedSweep(t *testing.T) {
	col, err := dram.NewColumn(dram.Default())
	if err != nil {
		t.Fatal(err)
	}
	az := netlint.New(col.Circuit(), dram.LintModel())

	// One pooled factory across all defects and SOSes: the sweep is the
	// expensive half of this test, and column pooling exists precisely
	// to make cross-checks like this cheap.
	factory := analysis.NewPooledSpiceFactory(dram.Default())
	rdefs := numeric.Logspace(1e2, 1e6, 3) // low resistance = severe short
	us := []float64{0, 1.65, 3.3}
	soses := []fp.SOS{
		fp.NewSOS(fp.Init0),
		fp.NewSOS(fp.Init1),
		fp.NewSOS(fp.Init1, fp.R(1)),
		fp.NewSOS(fp.Init0, fp.W(1)),
	}

	for _, sb := range defect.ShortsAndBridges() {
		sb := sb
		t.Run(sb.Site, func(t *testing.T) {
			pred, err := az.PredictMerges([]string{dram.SiteElementName(sb.Site)})
			if err != nil {
				t.Fatal(err)
			}
			// Static half: zero floating groups.
			if len(pred.Floats.Primary)+len(pred.Floats.Secondary)+len(pred.Floats.Unknown) != 0 {
				t.Fatalf("static prover predicts floats %+v for %s", pred.Floats, sb.Site)
			}

			// Simulated half: every U column of every (R_def, SOS) row
			// must agree bit for bit, and no partial fault may emerge.
			o := sb.AsOpenDescriptor()
			for _, sos := range soses {
				plane, err := analysis.SweepPlane(analysis.SweepConfig{
					Factory: factory, Open: o, Float: sb.Probe, SOS: sos,
					RDefs: rdefs, Us: us,
				})
				if err != nil {
					t.Fatalf("%s / %q: %v", sb.Name(), sos, err)
				}
				for i := range plane.RDefs {
					ref := plane.Points[i][0]
					for j := 1; j < len(plane.Us); j++ {
						pt := plane.Points[i][j]
						// The SOS inside FP is the plane's own; the observed
						// faulty state and read output are the per-point bits.
						if pt.Faulty != ref.Faulty || pt.FP.F != ref.FP.F || pt.FP.R != ref.FP.R || pt.FFM != ref.FFM {
							t.Errorf("%s / %q at R_def=%.3g: U=%.3g gives (faulty=%v fp=%v) but U=%.3g gives (faulty=%v fp=%v); a short/bridge outcome must not depend on U",
								sb.Name(), sos, plane.RDefs[i], plane.Us[j], pt.Faulty, pt.FP, plane.Us[0], ref.Faulty, ref.FP)
						}
					}
				}
				if findings := analysis.IdentifyPartialFaults(plane); len(findings) != 0 {
					t.Errorf("%s / %q: partial findings %v; Section 2 excludes shorts/bridges from partial faults", sb.Name(), sos, findings)
				}
			}

			// Verdict-to-behavior cross-check: a class the prover calls
			// stuck with ground as its only supply must behave as a
			// stuck-at-0 in the electrical model — writing 1 fails,
			// writing 0 is clean, at the hardest short.
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
				out1, err := analysis.RunSOS(factory, o, rdefs[0], sb.Probe.Nets, 0, fp.NewSOS(fp.Init1))
				if err != nil {
					t.Fatal(err)
				}
				if out1.F != 0 {
					t.Errorf("prover says stuck to ground, but hard short holds %d after writing 1", out1.F)
				}
				out0, err := analysis.RunSOS(factory, o, rdefs[0], sb.Probe.Nets, 0, fp.NewSOS(fp.Init0))
				if err != nil {
					t.Fatal(err)
				}
				if out0.F != 0 {
					t.Errorf("stuck-to-ground short holds %d after writing 0, want 0", out0.F)
				}
			}
		})
	}
}
