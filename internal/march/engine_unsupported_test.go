package march

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// refusingEngine wraps the scalar oracle but refuses one catalog entry
// by name — a controllable stand-in for the bit-plane engine's
// line-mediated CFst refusal.
type refusingEngine struct {
	ScalarEngine
	refuse string
}

func (r refusingEngine) Name() string { return "refuser" }

func (r refusingEngine) Detects(t Test, rows, cols int, e CatalogEntry) (Detection, error) {
	if e.Name == r.refuse {
		return Detection{}, fmt.Errorf("refuser: %s: %w", e.Name, ErrEngineUnsupported)
	}
	return r.ScalarEngine.Detects(t, rows, cols, e)
}

func (r refusingEngine) DetectsTwoCell(t Test, rows, cols int, e TwoCellCatalogEntry) (Detection, error) {
	if e.Name == r.refuse {
		return Detection{}, fmt.Errorf("refuser: %s: %w", e.Name, ErrEngineUnsupported)
	}
	return r.ScalarEngine.DetectsTwoCell(t, rows, cols, e)
}

// brokenEngine fails an entry with a non-sentinel error, which must
// abort the certificate as it is, not as ErrEngineUnsupported.
type brokenEngine struct {
	ScalarEngine
	breakName string
}

func (b brokenEngine) Name() string { return "broken" }

func (b brokenEngine) DetectsTwoCell(t Test, rows, cols int, e TwoCellCatalogEntry) (Detection, error) {
	if e.Name == b.breakName {
		return Detection{}, fmt.Errorf("broken: internal failure on %s", e.Name)
	}
	return b.ScalarEngine.DetectsTwoCell(t, rows, cols, e)
}

// TestCoverageMatrixRefusedEntryFails: an entry the engine refuses
// ends the matrix with the engine's ErrEngineUnsupported, naming the
// engine, the test and the entry; no other engine answers for it.
func TestCoverageMatrixRefusedEntryFails(t *testing.T) {
	tests := []Test{MATSPlus()}
	catalog := ClassicalFaultCatalog()[:3]
	got, err := CoverageMatrixWith(refusingEngine{refuse: catalog[1].Name}, tests, catalog, 2, 2)
	if !errors.Is(err, ErrEngineUnsupported) {
		t.Fatalf("refused entry: err = %v, want ErrEngineUnsupported", err)
	}
	if want := "refuser: " + tests[0].Name + " × " + catalog[1].Name; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q does not start with %q", err, want)
	}
	if got != nil {
		t.Fatalf("failed matrix returned %d rows", len(got))
	}
}

// TestTwoCellCertificateRefusedEntryFails is the certificate's half of
// TestCoverageMatrixRefusedEntryFails.
func TestTwoCellCertificateRefusedEntryFails(t *testing.T) {
	test := MATSPlus()
	catalog := TwoCellCatalog()[:4]
	_, err := TwoCellCertificateOffsetsWith(refusingEngine{refuse: catalog[2].Name}, test, catalog, 2, 2, nil)
	if !errors.Is(err, ErrEngineUnsupported) {
		t.Fatalf("refused entry: err = %v, want ErrEngineUnsupported", err)
	}
	if want := "refuser: " + test.Name + " × " + catalog[2].Name; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q does not start with %q", err, want)
	}
}

func TestTwoCellCertificateRealErrorStillAborts(t *testing.T) {
	catalog := TwoCellCatalog()[:2]
	_, err := TwoCellCertificateOffsetsWith(brokenEngine{breakName: catalog[0].Name}, MATSPlus(), catalog, 2, 2, nil)
	if err == nil || errors.Is(err, ErrEngineUnsupported) {
		t.Fatalf("non-sentinel engine failure did not abort: %v", err)
	}
}

func TestDetectsTwoCellEntryOffsetsMatchesFullWalk(t *testing.T) {
	test := MATSPlus()
	rows, cols := 2, 3
	n := rows * cols
	all := make([]int, 0, 2*(n-1))
	for d := -(n - 1); d <= n-1; d++ {
		if d != 0 {
			all = append(all, d)
		}
	}
	for _, e := range []TwoCellCatalogEntry{TwoCellCatalog()[0], TwoCellCatalog()[37]} {
		fdet, fc, ft, err := DetectsTwoCellEntry(test, rows, cols, e)
		if err != nil {
			t.Fatal(err)
		}
		odet, oc, ot, err := DetectsTwoCellEntryOffsets(test, rows, cols, e, all)
		if err != nil {
			t.Fatal(err)
		}
		if odet != fdet || oc != fc || ot != ft {
			t.Fatalf("%s: all-offsets walk (%v %d/%d) differs from pair walk (%v %d/%d)",
				e.Name, odet, oc, ot, fdet, fc, ft)
		}
	}
}

func TestDetectsTwoCellEntryOffsetsScenarioCount(t *testing.T) {
	test := MATSPlus()
	rows, cols := 3, 3
	n := rows * cols
	offsets := []int{1, -1, cols, -cols}
	e := TwoCellCatalog()[0]
	_, _, total, err := DetectsTwoCellEntryOffsets(test, rows, cols, e, offsets)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := 0
	for _, d := range offsets {
		abs := d
		if abs < 0 {
			abs = -abs
		}
		wantPairs += n - abs
	}
	want := wantPairs * len(test.OrderAssignments())
	if total != want {
		t.Fatalf("scenario count %d, want Σ_δ(n−|δ|)×assignments = %d", total, want)
	}
}

func TestDetectsTwoCellEntryOffsetsValidation(t *testing.T) {
	e := TwoCellCatalog()[0]
	for name, offsets := range map[string][]int{
		"zero offset": {1, 0},
		"duplicate":   {1, -1, 1},
		"empty":       {},
	} {
		if _, _, _, err := DetectsTwoCellEntryOffsets(MATSPlus(), 2, 2, e, offsets); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// offsetlessEngine implements Engine but not TwoCellOffsetEngine (no
// embedding — ScalarEngine would leak its offsets method).
type offsetlessEngine struct{}

func (offsetlessEngine) Name() string { return "offsetless" }

func (offsetlessEngine) Detects(t Test, rows, cols int, e CatalogEntry) (Detection, error) {
	return ScalarEngine{}.Detects(t, rows, cols, e)
}

func (offsetlessEngine) DetectsTwoCell(t Test, rows, cols int, e TwoCellCatalogEntry) (Detection, error) {
	return ScalarEngine{}.DetectsTwoCell(t, rows, cols, e)
}

func TestTwoCellCertificateOffsets(t *testing.T) {
	test := MATSPlus()
	catalog := TwoCellCatalog()[:3]
	offsets := []int{1, -1, 2}
	cert, err := TwoCellCertificateOffsetsWith(ScalarEngine{}, test, catalog, 2, 2, offsets)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Offsets) != 3 || cert.Offsets[2] != 2 {
		t.Fatalf("certificate offsets = %v", cert.Offsets)
	}
	for i, row := range cert.Entries {
		det, caught, total, err := DetectsTwoCellEntryOffsets(test, 2, 2, catalog[i], offsets)
		if err != nil {
			t.Fatal(err)
		}
		if row.Detected != det || row.Caught != caught || row.Scenarios != total {
			t.Fatalf("row %d (%s): cert %+v vs direct (%v %d/%d)", i, row.Entry, row, det, caught, total)
		}
	}

	// An engine that cannot restrict offsets refuses them.
	if _, err := TwoCellCertificateOffsetsWith(offsetlessEngine{}, test, catalog, 2, 2, offsets); !errors.Is(err, ErrEngineUnsupported) {
		t.Fatalf("offset-incapable engine: err = %v, want ErrEngineUnsupported", err)
	}

	// Nil offsets degrade to the full-pair walk.
	full, err := TwoCellCertificateOffsetsWith(ScalarEngine{}, test, catalog, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range full.Entries {
		det, caught, total, err := DetectsTwoCellEntry(test, 2, 2, catalog[i])
		if err != nil {
			t.Fatal(err)
		}
		if row.Detected != det || row.Caught != caught || row.Scenarios != total {
			t.Fatalf("nil-offsets row %d (%s): cert %+v vs full walk (%v %d/%d)", i, row.Entry, row, det, caught, total)
		}
	}

	// FP-only sanity: an offset-restricted scenario space is a subset,
	// so Caught can never exceed the full walk's.
	for i := range cert.Entries {
		if cert.Entries[i].Caught > full.Entries[i].Caught {
			t.Fatalf("restricted walk caught more than the full walk for %s", cert.Entries[i].Entry)
		}
	}
}
