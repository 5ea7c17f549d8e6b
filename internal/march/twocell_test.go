package march

import (
	"testing"

	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/memsim"
)

// classicalTwoCellRows returns the rows of tst's two-cell certificate on
// a 2×2 array for the classical static FPs, the catalog's first 36
// entries, evaluated by the scalar engine.
func classicalTwoCellRows(t *testing.T, tst Test) []TwoCellCertRow {
	t.Helper()
	catalog := TwoCellCatalog()[:fp.CountTwoCellStaticFPs()]
	cert, err := TwoCellCertificateOffsetsWith(ScalarEngine{}, tst, catalog, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cert.Entries {
		if r.Partial {
			t.Fatalf("%s: a partial entry among the classical rows", r.Entry)
		}
	}
	return cert.Entries
}

// TestMarchSSDetectsAllTwoCellStaticFaults validates the functional
// simulator against March SS's published property: it detects all 36
// static two-cell FPs (the full simple-static coupling space).
func TestMarchSSDetectsAllTwoCellStaticFaults(t *testing.T) {
	detected := 0
	for _, r := range classicalTwoCellRows(t, MarchSS()) {
		if r.Detected {
			detected++
		}
	}
	if detected != 36 {
		t.Errorf("March SS detects %d/36 two-cell FPs, want 36", detected)
	}
}

// TestMarchCMinusTwoCellCoverage pins March C-'s known coupling
// coverage: all CFst/CFtr/CFrd/CFir, the transition-write and read CFds,
// but no CFwd/CFdr (they need same-address write-read / read-read pairs)
// and no non-transition-write CFds.
func TestMarchCMinusTwoCellCoverage(t *testing.T) {
	detected, total := map[fp.CFKind]int{}, map[fp.CFKind]int{}
	all := 0
	for _, r := range classicalTwoCellRows(t, MarchCMinus()) {
		total[r.Class]++
		if r.Detected {
			detected[r.Class]++
			all++
		}
	}
	want := map[fp.CFKind]int{
		fp.CFst: 4, fp.CFds: 8, fp.CFtr: 4, fp.CFwd: 0,
		fp.CFrd: 4, fp.CFdr: 0, fp.CFir: 4,
	}
	for k, n := range want {
		if detected[k] != n {
			t.Errorf("March C- detects %d/%d %s, want %d", detected[k], total[k], k, n)
		}
	}
	if all != 24 {
		t.Errorf("March C- total = %d/36, want 24", all)
	}
}

func TestCFdsMechanics(t *testing.T) {
	// <0w1_a; 1_v/0/->: an up-transition write on the aggressor flips a
	// victim holding 1.
	w1 := fp.W(1)
	p := fp.TwoCellFP{AggState: 0, AggOp: &w1, VictimState: 1, F: 0}
	a := memsim.NewArray(2, 2)
	a.MustInjectTwoCell(memsim.TwoCellFault{Victim: 3, Aggressor: 0, FP: p})
	a.Write(3, 1)
	a.Write(0, 0)
	a.Write(0, 1) // 0w1 on the aggressor → victim flips
	if got := a.Read(3); got != 0 {
		t.Errorf("victim reads %d after aggressor up-transition, want 0", got)
	}
	// Non-matching transition does not fire.
	b := memsim.NewArray(2, 2)
	b.MustInjectTwoCell(memsim.TwoCellFault{Victim: 3, Aggressor: 0, FP: p})
	b.Write(3, 1)
	b.Write(0, 1)
	b.Write(0, 0) // 1w0: wrong transition
	if got := b.Read(3); got != 1 {
		t.Errorf("victim reads %d after non-matching transition, want 1", got)
	}
}

func TestCFstMechanics(t *testing.T) {
	// <1; 0/1/->: victim cannot hold 0 while the aggressor holds 1.
	p := fp.TwoCellFP{AggState: 1, VictimState: 0, F: 1}
	a := memsim.NewArray(2, 2)
	a.MustInjectTwoCell(memsim.TwoCellFault{Victim: 1, Aggressor: 2, FP: p})
	a.Write(2, 1)
	a.Write(1, 0) // immediately flips back to 1 (state coupling)
	if got := a.Read(1); got != 1 {
		t.Errorf("victim reads %d with aggressor at 1, want 1", got)
	}
	a.Write(2, 0) // release the aggressor
	a.Write(1, 0)
	if got := a.Read(1); got != 0 {
		t.Errorf("victim reads %d with aggressor at 0, want 0", got)
	}
}

func TestCFtrMechanics(t *testing.T) {
	// <1; 0w1/0/->: the victim's up-transition fails when the aggressor
	// holds 1.
	w1 := fp.W(1)
	p := fp.TwoCellFP{AggState: 1, VictimState: 0, VictimOp: &w1, F: 0}
	if p.Classify() != fp.CFtr {
		t.Fatalf("classified %s, want CFtr", p.Classify())
	}
	a := memsim.NewArray(2, 2)
	a.MustInjectTwoCell(memsim.TwoCellFault{Victim: 0, Aggressor: 3, FP: p})
	a.Write(3, 1)
	a.Write(0, 0)
	a.Write(0, 1) // fails
	if got := a.Read(0); got != 0 {
		t.Errorf("victim reads %d after failed transition, want 0", got)
	}
}

func TestInjectTwoCellValidation(t *testing.T) {
	a := memsim.NewArray(2, 2)
	if err := a.InjectTwoCell(memsim.TwoCellFault{Victim: 1, Aggressor: 1}); err == nil {
		t.Error("victim == aggressor must be rejected")
	}
	if err := a.InjectTwoCell(memsim.TwoCellFault{Victim: 0, Aggressor: 1}); err == nil {
		t.Error("unclassifiable FP must be rejected")
	}
}

func TestDetectsTwoCellCounts(t *testing.T) {
	// A 2×2 array has 4·3 = 12 ordered pairs; MATS+ has 2 order
	// assignments → 24 scenarios.
	p := fp.TwoCellFP{AggState: 1, VictimState: 0, F: 1}
	_, _, total, err := DetectsTwoCellEntry(MATSPlus(), 2, 2, TwoCellCatalogEntry{FP: p})
	if err != nil {
		t.Fatal(err)
	}
	if total != 24 {
		t.Errorf("scenarios = %d, want 24", total)
	}
}
