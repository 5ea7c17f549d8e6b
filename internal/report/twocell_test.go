package report

import (
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/march"
)

func TestWriteTwoCellCoverage(t *testing.T) {
	cert, err := march.TwoCellCertificateOffsetsWith(march.ScalarEngine{}, march.MarchCMinus(), march.TwoCellCatalog(), 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteTwoCellCoverage(&b, cert); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"two-cell coverage certificate — March C- on 2x2",
		"| class | detected | proved miss |",
		"| CFst |",
		"statically proved misses:",
		"certificate: sound",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("certificate output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATION") {
		t.Errorf("sound certificate reports a violation:\n%s", out)
	}

	// A hand-built violated certificate renders as unsound.
	bad := march.TwoCellCertificate{
		Test: "bogus", Rows: 2, Cols: 2,
		Entries: []march.TwoCellCertRow{{
			Entry: "CFst <0; 1/0/->", ProvedMiss: true, Reason: "r", Caught: 3, Scenarios: 12,
		}},
	}
	b.Reset()
	if err := WriteTwoCellCoverage(&b, bad); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "UNSOUND") || !strings.Contains(b.String(), "VIOLATION") {
		t.Errorf("violated certificate not flagged:\n%s", b.String())
	}
}
