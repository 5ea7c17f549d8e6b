package march

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/memsim"
)

func TestTwoCellCatalogShape(t *testing.T) {
	cat := TwoCellCatalog()
	classical, partial, uncompletable := 0, 0, 0
	for _, e := range cat {
		if err := e.FP.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		switch {
		case e.Uncompletable:
			uncompletable++
			partial++
		case e.Partial:
			partial++
			if e.Comp == nil {
				t.Errorf("%s: partial entry without a completing op", e.Name)
			}
			if !strings.Contains(e.Name, "[") {
				t.Errorf("%s: partial entry name lacks the completed form", e.Name)
			}
		default:
			classical++
		}
		// Every entry must inject cleanly.
		arr := memsim.NewArray(2, 2)
		if err := arr.InjectTwoCell(e.Make(0, 3)); err != nil {
			t.Errorf("%s: inject: %v", e.Name, err)
		}
	}
	if classical != fp.CountTwoCellStaticFPs() {
		t.Errorf("classical entries = %d, want %d", classical, fp.CountTwoCellStaticFPs())
	}
	if partial < 6 || uncompletable != 2 {
		t.Errorf("partial = %d (uncompletable %d), want ≥6 with exactly 2 uncompletable", partial, uncompletable)
	}
}

// TestCannotCompleteTwoCellSoundAgainstDetects is the differential
// soundness harness: across the whole library × the whole catalog
// (including all 36 classical static two-cell FPs) × three geometries,
// every static "cannot complete" claim must be confirmed by the
// exhaustive simulator — not one scenario caught. The reverse direction
// is not required (the prover is allowed to stay silent), but the run
// must not be vacuous.
func TestCannotCompleteTwoCellSoundAgainstDetects(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	geoms := [][2]int{{2, 2}, {2, 4}, {4, 4}}
	catalog := TwoCellCatalog()
	claims := 0
	for _, tst := range All() {
		for _, e := range catalog {
			cannot, why := cannotCompleteTwoCell(tst, e)
			if !cannot {
				continue
			}
			claims++
			if why == "" {
				t.Errorf("%s / %s: claim without a reason", tst.Name, e.Name)
			}
			for _, g := range geoms {
				det, caught, total, err := DetectsTwoCellEntry(tst, g[0], g[1], e)
				if err != nil {
					t.Fatalf("%s / %s on %dx%d: %v", tst.Name, e.Name, g[0], g[1], err)
				}
				if det || caught > 0 {
					t.Errorf("FALSE CLAIM: %s claims it cannot complete %s, but on %dx%d the simulator caught %d/%d scenarios",
						tst.Name, e.Name, g[0], g[1], caught, total)
				}
			}
		}
	}
	if claims == 0 {
		t.Fatal("the pre-pass claimed nothing across the whole library; the differential harness is vacuous")
	}
	t.Logf("verified %d static claims against the simulator on %d geometries", claims, len(geoms))
}

// TestCannotCompleteTwoCellPositiveControls pins known-detecting cases:
// a claim on any of them would be a false claim even without running
// the simulator.
func TestCannotCompleteTwoCellPositiveControls(t *testing.T) {
	catalog := TwoCellCatalog()
	// March SS detects the full static two-cell space, so no classical
	// entry may ever be claimed against it.
	for _, e := range catalog {
		if e.Partial {
			continue
		}
		if cannot, why := cannotCompleteTwoCell(MarchSS(), e); cannot {
			t.Errorf("March SS claimed for %s (%s) although it detects all 36 static FPs", e.Name, why)
		}
	}
	// March C- detects 24 of the 36; none of those may be claimed either
	// (checked dynamically on the cheapest geometry).
	for _, e := range catalog {
		if e.Partial {
			continue
		}
		det, _, _, err := DetectsTwoCellEntry(MarchCMinus(), 2, 2, e)
		if err != nil {
			t.Fatal(err)
		}
		cannot, _ := cannotCompleteTwoCell(MarchCMinus(), e)
		if det && cannot {
			t.Errorf("March C- detects %s on 2x2 yet the pre-pass claims it cannot", e.Name)
		}
	}
	// And the expected claims do land: March C- has no non-transition
	// write anywhere, so all four CFwd entries and the four
	// non-transition-write CFds entries are provable misses.
	wantClaims := 0
	for _, e := range catalog {
		if e.Partial {
			continue
		}
		k := e.FP.Classify()
		nonTransDs := k == fp.CFds && e.FP.AggOp.Kind == fp.OpWrite && e.FP.AggOp.Data == e.FP.AggState
		if k == fp.CFwd || nonTransDs {
			wantClaims++
			if cannot, _ := cannotCompleteTwoCell(MarchCMinus(), e); !cannot {
				t.Errorf("expected March C- claim for %s (no non-transition write exists), got none", e.Name)
			}
		}
	}
	if wantClaims != 8 {
		t.Fatalf("control set has %d entries, want 8 (4 CFwd + 4 non-transition CFds)", wantClaims)
	}
}

// TestCannotCompleteTwoCellUncompletable: word-line-mediated entries
// are claimed for every healthy library test, and never fire in memsim.
func TestCannotCompleteTwoCellUncompletable(t *testing.T) {
	for _, e := range TwoCellCatalog() {
		if !e.Uncompletable {
			continue
		}
		for _, tst := range All() {
			cannot, why := cannotCompleteTwoCell(tst, e)
			if !cannot {
				t.Errorf("%s: uncompletable %s not claimed", tst.Name, e.Name)
			}
			if !strings.Contains(why, "Not possible") {
				t.Errorf("%s: reason %q does not cite the Not-possible rule", e.Name, why)
			}
		}
		det, caught, _, err := DetectsTwoCellEntry(MarchSS(), 2, 2, e)
		if err != nil {
			t.Fatal(err)
		}
		if det || caught > 0 {
			t.Errorf("%s: never-triggering fault caught %d scenarios", e.Name, caught)
		}
	}
}

// TestCannotCompleteTwoCellContradictoryGuard: a test that fails on
// fault-free memory "detects" everything, so the proof must claim
// nothing for it — including uncompletable entries.
func TestCannotCompleteTwoCellContradictoryGuard(t *testing.T) {
	bad := MustParse("bad", "{m(w0); u(r1)}")
	for _, e := range TwoCellCatalog() {
		if cannot, _ := cannotCompleteTwoCell(bad, e); cannot {
			t.Errorf("claimed %s for a test that fails on fault-free memory", e.Name)
		}
	}
}

// withElementOrder returns a copy of the test with element i forced to
// the given order; the element slice is copied so the input is shared
// safely.
func withElementOrder(t Test, i int, o Order) Test {
	els := make([]Element, len(t.Elements))
	copy(els, t.Elements)
	els[i] = Element{Order: o, Ops: els[i].Ops}
	return Test{Name: t.Name, Elements: els}
}

// TestCannotCompleteTwoCellOrderSplitInvariance: splitting a ⇕ element
// into either fixed order must not weaken a "cannot complete" claim —
// the claim quantifies over all order assignments, and a fixed order is
// a subset of them.
func TestCannotCompleteTwoCellOrderSplitInvariance(t *testing.T) {
	catalog := TwoCellCatalog()
	check := func(tst Test) {
		for _, e := range catalog {
			cannot, _ := cannotCompleteTwoCell(tst, e)
			if !cannot {
				continue
			}
			for i, el := range tst.Elements {
				if el.Order != Any {
					continue
				}
				for _, o := range []Order{Up, Down} {
					split := withElementOrder(tst, i, o)
					if c2, _ := cannotCompleteTwoCell(split, e); !c2 {
						t.Errorf("%s: claim for %s lost when element %d is split to %v", tst.Name, e.Name, i, o)
					}
				}
			}
		}
	}
	for _, tst := range All() {
		check(tst)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 25; i++ {
		check(randomConsistentTest(rng))
	}
}

// TestTwoCellCertificate: the certificate confirms every static claim
// dynamically (no violations) and carries both detected and
// proved-miss rows for March C-.
func TestTwoCellCertificate(t *testing.T) {
	cert, err := TwoCellCertificateOffsetsWith(ScalarEngine{}, MarchCMinus(), TwoCellCatalog(), 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := cert.Violations(); len(v) != 0 {
		t.Fatalf("certificate violated: %+v", v)
	}
	detected, proved := 0, 0
	for _, r := range cert.Entries {
		if r.Detected {
			detected++
		}
		if r.ProvedMiss {
			proved++
		}
		if r.Detected && r.Caught != r.Scenarios {
			t.Errorf("%s: detected but caught %d/%d", r.Entry, r.Caught, r.Scenarios)
		}
	}
	if detected == 0 || proved == 0 {
		t.Fatalf("degenerate certificate: %d detected, %d proved misses", detected, proved)
	}
}

// TestPartialTwoCellMemsimMechanics exercises the partial coupling
// trigger directly: the bit-line-mediated CFds↑ entry fires only while
// the victim's bit line floats at the completing value.
func TestPartialTwoCellMemsimMechanics(t *testing.T) {
	var entry TwoCellCatalogEntry
	for _, e := range TwoCellCatalog() {
		if e.Partial && !e.Uncompletable && e.FP.AggOp != nil {
			entry = e // CFds↑ partial (bit line) <0w1; [w0BL] 1/0/->
			break
		}
	}
	if entry.Comp == nil {
		t.Fatal("no partial CFds entry in the catalog")
	}
	// 2×2 array: victim 0 (column 0), aggressor 1 (column 1); cell 2
	// shares the victim's column and sets its floating bit line.
	armedRun := func(blValue int) int {
		arr := memsim.NewArray(2, 2)
		arr.MustInjectTwoCell(entry.Make(0, 1))
		arr.Write(0, 1)       // victim ← 1 (the FP's victim state)
		arr.Write(2, blValue) // drive the victim-column bit line
		arr.Write(1, 0)       // aggressor ← 0 (the FP's aggressor state)
		arr.Write(1, 1)       // aggressor 0w1: the sensitizing op
		return arr.Read(0)
	}
	if got := armedRun(entry.Comp.Data); got != entry.FP.F {
		t.Errorf("armed run: victim reads %d, want the faulty %d", got, entry.FP.F)
	}
	if got := armedRun(1 - entry.Comp.Data); got != 1 {
		t.Errorf("disarmed run: victim reads %d, want the healthy 1", got)
	}

	// Unsupported mediating lines are rejected at injection.
	arr := memsim.NewArray(2, 2)
	f := entry.Make(0, 1)
	f.Float = defect.FloatMemoryCell
	if err := arr.InjectTwoCell(f); err == nil {
		t.Error("InjectTwoCell accepted a memory-cell-mediated coupling fault")
	}
	f = entry.Make(0, 1)
	f.Comp = 7
	if err := arr.InjectTwoCell(f); err == nil {
		t.Error("InjectTwoCell accepted a non-bit completing value")
	}
}
