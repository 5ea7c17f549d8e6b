package march

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/memsim"
)

// fullSingleCatalog is the classical + paper single-cell evaluation set.
func fullSingleCatalog() []CatalogEntry {
	return append(ClassicalFaultCatalog(), PaperFaultCatalog()...)
}

// TestProveDetectsMarchPFPaperColumn pins the prover's March PF column
// for the paper catalog — the positive control. March PF provably
// detects exactly the four completable partial FPs its construction
// targets on the functional model (the cell-internal RDF pair and the
// bit-line TF pair) and provably misses the remaining twelve entries,
// with no Unknown: the abstract domain is exhaustive for this column.
func TestProveDetectsMarchPFPaperColumn(t *testing.T) {
	wantDetect := map[string]bool{
		"RDF0 partial (cell, Open 1)":         true,
		"RDF1 partial (cell, com. Open 1)":    true,
		"TF↓ partial (bit line, Open 5)":      true,
		"TF↑ partial (bit line, com. Open 5)": true,
	}
	pf := MarchPF()
	for _, e := range PaperFaultCatalog() {
		p := ProveDetects(pf, e)
		want := VerdictMisses
		if wantDetect[e.Name] {
			want = VerdictDetects
		}
		if p.Verdict != want {
			t.Errorf("March PF vs %s: verdict %s, want %s (%s)", e.Name, p.Verdict, want, p.Witness)
			continue
		}
		switch p.Verdict {
		case VerdictDetects:
			if p.Trace == nil {
				t.Errorf("March PF vs %s: proved Detects without a trace", e.Name)
			}
			if p.Detecting != p.Scenarios || p.Scenarios == 0 {
				t.Errorf("March PF vs %s: Detects with %d/%d scenarios", e.Name, p.Detecting, p.Scenarios)
			}
		case VerdictMisses:
			if p.Witness == "" {
				t.Errorf("March PF vs %s: proved Misses without a witness", e.Name)
			}
		}
	}
}

// TestProveDetectsClassicalPositiveControls: the classical library
// results are well known — March C- provably detects every classical
// single-cell FP except the deceptive/dynamic-style ones it was never
// designed for; at minimum, all SF/TF/RDF/IRF entries must be proved
// detected, with traces.
func TestProveDetectsClassicalPositiveControls(t *testing.T) {
	mc := MarchCMinus()
	for _, e := range ClassicalFaultCatalog() {
		mustDetect := false
		for _, prefix := range []string{"SF", "TF", "RDF", "IRF"} {
			if strings.HasPrefix(e.Name, prefix) {
				mustDetect = true
			}
		}
		if !mustDetect {
			continue
		}
		p := ProveDetects(mc, e)
		if p.Verdict != VerdictDetects {
			t.Errorf("March C- vs %s: verdict %s, want Detects (%s)", e.Name, p.Verdict, p.Witness)
		} else if p.Trace == nil {
			t.Errorf("March C- vs %s: no proof trace", e.Name)
		}
	}
}

// TestProveDetectsOrderSplitMonotonicity: a proved verdict quantifies
// over every ⇕ resolution, so fixing one ⇕ element to ⇑ or ⇓ — a subset
// of the quantified scenarios — must never flip a proved verdict to its
// opposite: Detects cannot become Misses and Misses cannot become
// Detects, for either prover.
func TestProveDetectsOrderSplitMonotonicity(t *testing.T) {
	for _, tst := range All() {
		for _, e := range fullSingleCatalog() {
			parent := ProveDetects(tst, e).Verdict
			if parent == VerdictUnknown {
				continue
			}
			for i, el := range tst.Elements {
				if el.Order != Any {
					continue
				}
				for _, o := range []Order{Up, Down} {
					split := ProveDetects(withElementOrder(tst, i, o), e).Verdict
					if parent == VerdictDetects && split == VerdictMisses {
						t.Errorf("%s vs %s: Detects flipped to Misses when element %d fixed to %v", tst.Name, e.Name, i, o)
					}
					if parent == VerdictMisses && split == VerdictDetects {
						t.Errorf("%s vs %s: Misses flipped to Detects when element %d fixed to %v", tst.Name, e.Name, i, o)
					}
				}
			}
		}
		for _, e := range TwoCellCatalog() {
			parent := ProveDetectsTwoCell(tst, e).Verdict
			if parent == VerdictUnknown {
				continue
			}
			for i, el := range tst.Elements {
				if el.Order != Any {
					continue
				}
				for _, o := range []Order{Up, Down} {
					split := ProveDetectsTwoCell(withElementOrder(tst, i, o), e).Verdict
					if parent == VerdictDetects && split == VerdictMisses {
						t.Errorf("%s vs twocell %s: Detects flipped to Misses when element %d fixed to %v", tst.Name, e.Name, i, o)
					}
					if parent == VerdictMisses && split == VerdictDetects {
						t.Errorf("%s vs twocell %s: Misses flipped to Detects when element %d fixed to %v", tst.Name, e.Name, i, o)
					}
				}
			}
		}
	}
}

// TestProverSubsumesCannotComplete: every claim of the two-cell
// certificate's static column must land in the prover's Misses — "the
// fault can never fire" implies "the test never mismatches" — across
// the full two-cell catalog, for the library and for random
// structurally consistent tests. It is the evidence that the column can
// come from the prover once the march-bitplane digest is re-pinned.
func TestProverSubsumesCannotComplete(t *testing.T) {
	check := func(tst Test) {
		for _, e := range TwoCellCatalog() {
			if cannot, why := cannotCompleteTwoCell(tst, e); cannot {
				if p := ProveDetectsTwoCell(tst, e); p.Verdict != VerdictMisses {
					t.Errorf("%s vs twocell %s: certificate column proves cannot fire (%s) but prover verdict is %s", tst.Name, e.Name, why, p.Verdict)
				}
			}
		}
	}
	for _, tst := range All() {
		check(tst)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		check(randomConsistentTest(rng))
	}
}

// TestDetectionMatrixDifferentialSoundness is the central certificate of
// this layer: every non-Unknown verdict the prover emits for the
// library against the full catalogs is checked against the brute-force
// simulator on 2×2, 2×4 and 4×4 — a proved Detects must detect on every
// geometry and a proved Misses must catch zero scenarios on every
// geometry. Both directions, zero tolerance, and the suite must verify
// a substantial claim count (≥ 100) so the certificate cannot silently
// degrade into vacuity.
func TestDetectionMatrixDifferentialSoundness(t *testing.T) {
	geos := [][2]int{{2, 2}, {2, 4}, {4, 4}}
	m := BuildDetectionMatrix(All(), fullSingleCatalog(), TwoCellCatalog())
	singlesByName := map[string]CatalogEntry{}
	for _, e := range fullSingleCatalog() {
		singlesByName[e.Name] = e
	}
	twosByName := map[string]TwoCellCatalogEntry{}
	for _, e := range TwoCellCatalog() {
		twosByName[e.Name] = e
	}
	testsByName := map[string]Test{}
	for _, tst := range All() {
		testsByName[tst.Name] = tst
	}

	claims := 0
	for _, row := range m.Rows {
		if row.Proof.Verdict == VerdictUnknown {
			continue
		}
		claims++
		tst := testsByName[row.Test]
		for _, g := range geos {
			var det bool
			var caught, total int
			var err error
			if row.TwoCell {
				det, caught, total, err = DetectsTwoCellEntry(tst, g[0], g[1], twosByName[row.Fault])
			} else {
				det, caught, total, err = Detects(tst, g[0], g[1], singlesByName[row.Fault].Make)
			}
			if err != nil {
				t.Fatalf("%s vs %s on %dx%d: %v", row.Test, row.Fault, g[0], g[1], err)
			}
			switch row.Proof.Verdict {
			case VerdictDetects:
				if !det {
					t.Errorf("FALSE STATIC CLAIM: %s proved to detect %s but missed on %dx%d (caught %d/%d)",
						row.Test, row.Fault, g[0], g[1], caught, total)
				}
			case VerdictMisses:
				if caught != 0 {
					t.Errorf("FALSE STATIC CLAIM: %s proved to miss %s but caught %d/%d scenarios on %dx%d",
						row.Test, row.Fault, caught, total, g[0], g[1])
				}
			}
		}
	}
	if claims < 100 {
		t.Errorf("differential suite verified only %d non-Unknown claims; want ≥ 100 — the prover has degraded into Unknown", claims)
	}
}

// TestProveDetectsContradictoryTest: a test failing on fault-free
// memory detects everything — on every geometry some healthy cell's
// contradictory read mismatches — and the prover proves it rather than
// going Unknown.
func TestProveDetectsContradictoryTest(t *testing.T) {
	bad := Test{Name: "contradictory", Elements: []Element{
		{Order: Any, Ops: []Op{W(0)}},
		{Order: Up, Ops: []Op{R(1)}},
	}}
	for _, e := range fullSingleCatalog()[:3] {
		if p := ProveDetects(bad, e); p.Verdict != VerdictDetects {
			t.Errorf("contradictory test vs %s: %s, want Detects", e.Name, p.Verdict)
		}
	}
	if p := ProveDetectsTwoCell(bad, TwoCellCatalog()[0]); p.Verdict != VerdictDetects {
		t.Errorf("contradictory test vs twocell: %s, want Detects", p.Verdict)
	}
}

// TestProveDetectsUnsupportedShapesAreUnknown: shapes outside the
// abstract domain must return Unknown with a reason, never a claim.
func TestProveDetectsUnsupportedShapesAreUnknown(t *testing.T) {
	for _, dyn := range memsim.DynamicFaultCatalog() {
		e := CatalogEntry{Name: dyn.String(), FP: dyn}
		p := ProveDetects(MarchRAW(), e)
		if p.Verdict != VerdictUnknown {
			t.Errorf("dynamic %s: verdict %s, want Unknown", e.Name, p.Verdict)
		}
		if p.Witness == "" {
			t.Errorf("dynamic %s: Unknown without a reason", e.Name)
		}
	}
}

// TestDetectionPrePassFindings: the pre-pass emits the per-test matrix
// summary and exactly one Info proved-miss finding per matrix Miss, and
// nothing else.
func TestDetectionPrePassFindings(t *testing.T) {
	fs := DetectionPrePass(All(), PaperFaultCatalog(), TwoCellCatalog())
	_, misses, _ := BuildDetectionMatrix(All(), PaperFaultCatalog(), TwoCellCatalog()).Counts()
	rules := map[string]int{}
	for _, f := range fs {
		rules[f.Rule]++
		if f.Severity != lint.Info {
			t.Errorf("%s finding at %s, want info", f.Rule, f.Severity)
		}
	}
	if rules["detection-matrix"] != len(All()) {
		t.Errorf("detection-matrix findings = %d, want one per test (%d)", rules["detection-matrix"], len(All()))
	}
	if misses == 0 || rules["proved-miss"] != misses {
		t.Errorf("proved-miss findings = %d, want one per matrix Miss (%d)", rules["proved-miss"], misses)
	}
	if len(rules) != 2 {
		t.Errorf("unexpected rules %v", rules)
	}
}
