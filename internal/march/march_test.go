package march

import (
	"reflect"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/memsim"
)

func TestNotationRoundTrip(t *testing.T) {
	for _, tst := range All() {
		s := tst.String()
		parsed, err := Parse(tst.Name, s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if parsed.String() != s {
			t.Errorf("round trip %q → %q", s, parsed.String())
		}
	}
}

func TestParseASCIIForm(t *testing.T) {
	// The paper's ASCII notation with m/u/d order tokens.
	tst := MustParse("March PF", "{m(w0,w1); m(r1,w1,w0,w0,w1,r1); m(w1,w0); m(r0,w0,w1,w1,w0,r0)}")
	if tst.String() != MarchPF().String() {
		t.Errorf("ASCII parse = %s, want %s", tst, MarchPF())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"{x(w0)}",
		"{⇑ w0}",
		"{⇑(w2)}",
		"{⇑()}",
		"{⇑(q0)}",
	}
	for _, s := range bad {
		if _, err := Parse("bad", s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestLibraryLengths(t *testing.T) {
	// The classical complexity figures (operations per cell).
	want := map[string]int{
		"MATS+": 5, "MATS++": 6, "March X": 6, "March Y": 8,
		"March C-": 10, "March A": 15, "March B": 17, "March LR": 14,
		"March SS": 22, "March RAW": 26, "March PF": 16,
	}
	for _, tst := range All() {
		if got := tst.Length(); got != want[tst.Name] {
			t.Errorf("%s length = %dN, want %dN", tst.Name, got, want[tst.Name])
		}
		if err := tst.Validate(); err != nil {
			t.Errorf("%s invalid: %v", tst.Name, err)
		}
	}
}

func TestMarchPFMatchesPaper(t *testing.T) {
	want := "{⇕(w0,w1); ⇕(r1,w1,w0,w0,w1,r1); ⇕(w1,w0); ⇕(r0,w0,w1,w1,w0,r0)}"
	if got := MarchPF().String(); got != want {
		t.Errorf("March PF = %s, want %s", got, want)
	}
}

func TestRunFaultFree(t *testing.T) {
	for _, tst := range All() {
		arr := memsim.NewArray(4, 4)
		ms, err := tst.Run(arr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Errorf("%s on fault-free memory reported %v", tst.Name, ms)
		}
	}
}

func TestOrderAssignments(t *testing.T) {
	pf := MarchPF() // four ⇕ elements → 16 assignments
	if got := len(pf.OrderAssignments()); got != 16 {
		t.Errorf("March PF assignments = %d, want 16", got)
	}
	up := MATSPlus() // one ⇕ element → 2 assignments
	if got := len(up.OrderAssignments()); got != 2 {
		t.Errorf("MATS+ assignments = %d, want 2", got)
	}
}

// TestResolvedOrders: each assignment fixes the ⇕ elements in
// occurrence order, the first ⇕ element varying fastest, and leaves
// every other element's order alone.
func TestResolvedOrders(t *testing.T) {
	tst := MustParse("t", "{⇕(w0); ⇓(r0,w1); ⇕(r1)}")
	want := [][]Order{
		{Up, Down, Up}, {Down, Down, Up}, {Up, Down, Down}, {Down, Down, Down},
	}
	if got := tst.ResolvedOrders(); !reflect.DeepEqual(got, want) {
		t.Errorf("ResolvedOrders() = %v, want %v", got, want)
	}
}

// anyTest returns a test of k ⇕ write elements.
func anyTest(k int) Test {
	t := Test{Name: "any"}
	for range k {
		t.Elements = append(t.Elements, Element{Order: Any, Ops: []Op{W(0)}})
	}
	return t
}

// TestValidateCapsAnyElements: a guarantee analysis walks all 2^k
// order assignments of k ⇕ elements, so Validate refuses more than
// MaxAnyElements with an error that names the cap. Uncapped, 64
// elements counted 1<<64 = 0 assignments (a divide by zero in the
// bit-plane engine) and 63 a negative slice capacity.
func TestValidateCapsAnyElements(t *testing.T) {
	if err := anyTest(16).Validate(); err != nil {
		t.Fatalf("16 ⇕ elements: %v", err)
	}
	for _, k := range []int{17, 63, 64} {
		err := anyTest(k).Validate()
		if err == nil || !strings.Contains(err.Error(), "16") {
			t.Errorf("%d ⇕ elements: err %v, want one naming the cap of 16", k, err)
		}
		notation := "{" + strings.Repeat("m(w0); ", k) + "}"
		if _, err := Parse("any", notation); err == nil {
			t.Errorf("Parse of %d ⇕ elements succeeded", k)
		}
		if _, err := (ScalarEngine{}).Detects(anyTest(k), 2, 2, ClassicalFaultCatalog()[0]); err == nil {
			t.Errorf("ScalarEngine.Detects of %d ⇕ elements succeeded", k)
		}
		if p := ProveDetects(anyTest(k), ClassicalFaultCatalog()[0]); p.Verdict != VerdictUnknown {
			t.Errorf("ProveDetects of %d ⇕ elements: %v, want unknown", k, p.Verdict)
		}
		if p := ProveDetectsTwoCell(anyTest(k), TwoCellCatalog()[0]); p.Verdict != VerdictUnknown {
			t.Errorf("ProveDetectsTwoCell of %d ⇕ elements: %v, want unknown", k, p.Verdict)
		}
	}
}

// TestMarchSSDetectsAllStaticFaults validates the functional simulator
// against the published property of March SS (and March RAW): they
// detect all twelve static single-cell FPs.
func TestMarchSSDetectsAllStaticFaults(t *testing.T) {
	for _, tst := range []Test{MarchSS(), MarchRAW()} {
		for _, e := range ClassicalFaultCatalog() {
			det, caught, total, err := Detects(tst, 4, 2, e.Make)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if !det {
				t.Errorf("%s misses %s (%d/%d)", tst.Name, e.Name, caught, total)
			}
		}
	}
}

// TestMarchRAWDetectsDRDFViaDoubleReads: the back-to-back reads are what
// DRDF needs — the corrupted cell is re-read before any write hides it.
func TestMarchRAWDetectsDRDFViaDoubleReads(t *testing.T) {
	for _, name := range []string{"<0r0/1/0>", "<1r1/0/1>"} {
		e := CatalogEntry{Name: name, FP: fp.MustParse(name)}
		det, _, _, err := Detects(MarchRAW(), 4, 2, e.Make)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			t.Errorf("March RAW misses %s", name)
		}
		// MATS+ (no double reads) must miss it.
		det, _, _, err = Detects(MATSPlus(), 4, 2, e.Make)
		if err != nil {
			t.Fatal(err)
		}
		if det {
			t.Errorf("MATS+ unexpectedly detects %s", name)
		}
	}
}

// TestMarchCMinusKnownGaps: March C- famously misses WDF and DRDF (they
// need a write-then-read resp. read-after-read at the same address).
func TestMarchCMinusKnownGaps(t *testing.T) {
	for _, e := range ClassicalFaultCatalog() {
		det, _, _, err := Detects(MarchCMinus(), 4, 2, e.Make)
		if err != nil {
			t.Fatal(err)
		}
		missExpected := strings.HasPrefix(e.Name, "WDF") || strings.HasPrefix(e.Name, "DRDF")
		if det == missExpected {
			t.Errorf("March C- vs %s: detected=%v, want %v", e.Name, det, !missExpected)
		}
	}
}

// TestPaperSection1Example reproduces the paper's motivating example:
// the march test {⇕(w1,r1)} detects the plain RDF1 but NOT the partial
// RDF1 <1v [w0BL] r1v/0/0>, because its own w1 preconditions the
// floating bit line high.
func TestPaperSection1Example(t *testing.T) {
	w1r1 := Test{Name: "{m(w1,r1)}", Elements: []Element{el(Any, W(1), R(1))}}
	plain := CatalogEntry{Name: "RDF1", FP: fp.MustParse("<1r1/0/0>")}
	partial := CatalogEntry{
		Name: "RDF1 partial", FP: fp.MustParse("<1v [w0BL] r1v/0/0>"),
		Float: defect.FloatBitLine,
	}
	det, _, _, err := Detects(w1r1, 4, 1, plain.Make)
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Error("{m(w1,r1)} must detect the plain RDF1")
	}
	det, caught, _, err := Detects(w1r1, 4, 1, partial.Make)
	if err != nil {
		t.Fatal(err)
	}
	if det || caught != 0 {
		t.Errorf("{m(w1,r1)} must never detect the partial RDF1 (caught %d)", caught)
	}
}

// TestMarchPFDetectsCellInternalCompletions: the paper's March PF embeds
// the Open 1 completing sequences [w1 w1 w0]r0 / [w0 w0 w1]r1 in its
// elements 4 and 2 and must detect both completed FPs — which MATS+,
// March X and March Y all miss.
func TestMarchPFDetectsCellInternalCompletions(t *testing.T) {
	faults := []CatalogEntry{
		{Name: "RDF0 cell", FP: fp.MustParse("<[w1 w1 w0] r0/1/1>"), Float: defect.FloatMemoryCell},
		{Name: "RDF1 cell", FP: fp.MustParse("<[w0 w0 w1] r1/0/0>"), Float: defect.FloatMemoryCell},
	}
	for _, e := range faults {
		det, caught, total, err := Detects(MarchPF(), 3, 3, e.Make)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			t.Errorf("March PF misses %s (%d/%d)", e.Name, caught, total)
		}
	}
	// MATS+ — which detects the plain RDF0 — must miss the completed
	// RDF0: its element structure never performs the [w1 w1 w0]
	// completion before an r0. (Richer classical tests can stumble into
	// the sequence via read restores; MATS+ cannot.)
	plainRDF0 := CatalogEntry{Name: "RDF0", FP: fp.MustParse("<0r0/1/1>")}
	det, _, _, err := Detects(MATSPlus(), 3, 3, plainRDF0.Make)
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Error("MATS+ must detect the plain RDF0")
	}
	det, _, _, err = Detects(MATSPlus(), 3, 3, faults[0].Make)
	if err != nil {
		t.Fatal(err)
	}
	if det {
		t.Errorf("MATS+ unexpectedly detects %s; the paper's point is that the partial form escapes", faults[0].Name)
	}
}

// TestMarchPFDetectsPartialTransitionFaults: the bit-line mediated TF
// pair of Table 1.
func TestMarchPFDetectsPartialTransitionFaults(t *testing.T) {
	faults := []CatalogEntry{
		{Name: "TF↓ partial", FP: fp.MustParse("<1v [w1BL] w0v/1/->"), Float: defect.FloatBitLine},
		{Name: "TF↑ partial", FP: fp.MustParse("<0v [w0BL] w1v/0/->"), Float: defect.FloatBitLine},
	}
	for _, e := range faults {
		det, caught, total, err := Detects(MarchPF(), 4, 2, e.Make)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			t.Errorf("March PF misses %s (%d/%d)", e.Name, caught, total)
		}
	}
}

// TestNotPossibleFaultsEvadeEverything: the word-line mediated partial
// faults of Table 1 have no completing operations, so no march test can
// guarantee their detection — they must evade the entire library.
func TestNotPossibleFaultsEvadeEverything(t *testing.T) {
	var uncompletable []CatalogEntry
	for _, e := range PaperFaultCatalog() {
		if e.Uncompletable {
			uncompletable = append(uncompletable, e)
		}
	}
	if len(uncompletable) != 4 {
		t.Fatalf("catalog has %d uncompletable entries, want 4", len(uncompletable))
	}
	for _, tst := range All() {
		for _, e := range uncompletable {
			det, caught, _, err := Detects(tst, 4, 2, e.Make)
			if err != nil {
				t.Fatal(err)
			}
			if det || caught != 0 {
				t.Errorf("%s claims to detect %s, which the paper proves impossible", tst.Name, e.Name)
			}
		}
	}
}

// TestPartialFaultsEscapeClassicalTests quantifies the paper's message:
// MATS+ (which handles plain RDF/IRF) must miss the majority of the
// completable partial-fault catalog.
func TestPartialFaultsEscapeClassicalTests(t *testing.T) {
	catalog := PaperFaultCatalog()
	missed := 0
	completable := 0
	for _, e := range catalog {
		if e.Uncompletable {
			continue
		}
		completable++
		det, _, _, err := Detects(MATSPlus(), 4, 1, e.Make)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			missed++
		}
	}
	if missed*2 < completable {
		t.Errorf("MATS+ misses only %d of %d completable partial faults; expected the majority", missed, completable)
	}
}

// TestCoverageMatrixShape sanity-checks the matrix generator.
func TestCoverageMatrixShape(t *testing.T) {
	tests := []Test{MATSPlus(), MarchPF()}
	catalog := ClassicalFaultCatalog()
	res, err := CoverageMatrixWith(ScalarEngine{}, tests, catalog, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(tests)*len(catalog) {
		t.Fatalf("matrix has %d entries, want %d", len(res), len(tests)*len(catalog))
	}
	for _, r := range res {
		if r.Scenarios == 0 {
			t.Errorf("%s vs %s evaluated zero scenarios", r.Test, r.Fault)
		}
		if r.Detected && r.Caught != r.Scenarios {
			t.Errorf("%s vs %s: detected but %d/%d", r.Test, r.Fault, r.Caught, r.Scenarios)
		}
	}
}

func TestOpValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("W(3) should panic")
		}
	}()
	W(3)
}
