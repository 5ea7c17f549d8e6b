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
// injectable through the public API, so the engine and the harnesses
// must refuse it with march.ErrEngineUnsupported.
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

// TestCertificateFailsForLineMediatedCFst: a certificate whose catalog
// holds the line-mediated CFst entry fails on the bit-plane engine, with
// or without offsets, instead of answering that entry some other way.
func TestCertificateFailsForLineMediatedCFst(t *testing.T) {
	test := march.MATSPlus()
	catalog := append(march.TwoCellCatalog()[:3], lineMediatedCFst())
	for _, offsets := range [][]int{nil, {1, -1}} {
		_, err := march.TwoCellCertificateOffsetsWith(New(), test, catalog, 2, 2, offsets)
		if !errors.Is(err, march.ErrEngineUnsupported) {
			t.Fatalf("offsets %v: err = %v, want march.ErrEngineUnsupported", offsets, err)
		}
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
// certificate through the bit-plane engine and checks every row against
// the scalar offsets walk.
func TestTwoCellCertificateOffsetsWithBitsim(t *testing.T) {
	test := march.MATSPlus()
	catalog := march.TwoCellCatalog()[:3]
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
		if row.Engine != eng.Name() {
			t.Fatalf("row %d (%s) engine = %q, want %q", i, row.Entry, row.Engine, eng.Name())
		}
	}
}
