package bitsim

import (
	"errors"
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/march"
)

// lineMediatedCFst builds the fault-entry shape the bit-plane engine
// deliberately does not model: state coupling gated by a floating bit
// line. The standard catalog excludes it by design, but the entry is
// injectable through the public API, and memsim defines its semantics —
// so harnesses must fall back to the scalar oracle, not abort.
func lineMediatedCFst() march.TwoCellCatalogEntry {
	comp := fp.CWBL(0)
	return march.TwoCellCatalogEntry{
		Name:    "CFst partial (bit line) <1;0/1> test-only",
		FP:      fp.TwoCellFP{AggState: 1, VictimState: 0, F: 1},
		Comp:    &comp,
		Float:   defect.FloatBitLine,
		Partial: true,
	}
}

func TestLineMediatedCFstReportsUnsupported(t *testing.T) {
	eng := New()
	_, err := eng.DetectsTwoCell(march.MATSPlus(), 2, 2, lineMediatedCFst())
	if err == nil {
		t.Fatal("line-mediated CFst did not error")
	}
	if !errors.Is(err, march.ErrEngineUnsupported) {
		t.Fatalf("error %v does not wrap march.ErrEngineUnsupported", err)
	}
	_, err = eng.DetectsTwoCellOffsets(march.MATSPlus(), 2, 2, lineMediatedCFst(), []int{1, -1})
	if !errors.Is(err, march.ErrEngineUnsupported) {
		t.Fatalf("offsets path: error %v does not wrap march.ErrEngineUnsupported", err)
	}
}

// TestCertificateFallsBackForLineMediatedCFst is the end-to-end bugfix
// test: before the per-entry fallback, one such entry aborted the whole
// certificate run under the bit-plane engine.
func TestCertificateFallsBackForLineMediatedCFst(t *testing.T) {
	test := march.MATSPlus()
	catalog := append(march.TwoCellCatalog()[:3], lineMediatedCFst())
	eng := New()
	cert, err := march.TwoCellCertificateOffsetsWith(eng, test, catalog, 2, 2, nil)
	if err != nil {
		t.Fatalf("certificate aborted on the unsupported entry: %v", err)
	}
	if len(cert.Entries) != len(catalog) {
		t.Fatalf("%d rows, want %d", len(cert.Entries), len(catalog))
	}
	for i, row := range cert.Entries {
		want := eng.Name()
		if i == len(catalog)-1 {
			want = march.ScalarEngine{}.Name()
		}
		if row.Engine != want {
			t.Fatalf("row %d (%s) engine = %q, want %q", i, row.Entry, row.Engine, want)
		}
	}
	// The fallback row must carry the scalar oracle's verdict.
	det, caught, total, err := march.DetectsTwoCellEntry(test, 2, 2, lineMediatedCFst())
	if err != nil {
		t.Fatal(err)
	}
	last := cert.Entries[len(cert.Entries)-1]
	if last.Detected != det || last.Caught != caught || last.Scenarios != total {
		t.Fatalf("fallback row %+v, oracle (%v %d/%d)", last, det, caught, total)
	}
}

// TestTwoCellOffsetsScalarBitsimEquivalence differentially checks the
// new scalar offsets walk against the bit-plane offsets engine on a
// physical-neighbor set.
func TestTwoCellOffsetsScalarBitsimEquivalence(t *testing.T) {
	rows, cols := 4, 4
	offsets := []int{1, -1, cols, -cols}
	eng := New()
	scalar := march.ScalarEngine{}
	for _, test := range []march.Test{march.MATSPlus(), march.MarchCMinus()} {
		for _, e := range march.TwoCellCatalog()[:6] {
			want, err := scalar.DetectsTwoCellOffsets(test, rows, cols, e, offsets)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.DetectsTwoCellOffsets(test, rows, cols, e, offsets)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Errorf("%s × %s: scalar %+v, bitsim %+v", test.Name, e.Name, want, got)
			}
		}
	}
}

// TestTwoCellCertificateOffsetsWithBitsim drives the offsets-restricted
// certificate through the bit-plane engine, mixing in the unsupported
// entry so both new paths compose.
func TestTwoCellCertificateOffsetsWithBitsim(t *testing.T) {
	test := march.MATSPlus()
	catalog := append(march.TwoCellCatalog()[:2], lineMediatedCFst())
	offsets := []int{1, -1}
	eng := New()
	cert, err := march.TwoCellCertificateOffsetsWith(eng, test, catalog, 3, 3, offsets)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range cert.Entries {
		det, caught, total, err := march.DetectsTwoCellEntryOffsets(test, 3, 3, catalog[i], offsets)
		if err != nil {
			t.Fatal(err)
		}
		if row.Detected != det || row.Caught != caught || row.Scenarios != total {
			t.Fatalf("row %d (%s): %+v vs scalar (%v %d/%d)", i, row.Entry, row, det, caught, total)
		}
	}
	if last := cert.Entries[len(cert.Entries)-1]; last.Engine != (march.ScalarEngine{}).Name() {
		t.Fatalf("unsupported entry engine = %q", last.Engine)
	}
}
