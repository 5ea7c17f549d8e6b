package report

import (
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/march"
)

// TestWriteDetectionMatrixSingleTest: single-test mode prints the grid
// plus per-verdict evidence for the real March PF paper column.
func TestWriteDetectionMatrixSingleTest(t *testing.T) {
	m := march.BuildDetectionMatrix([]march.Test{march.MarchPF()}, march.PaperFaultCatalog(), nil)
	var sb strings.Builder
	if err := WriteDetectionMatrix(&sb, m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"static detection matrix — 1 tests × 16 faults",
		"| fault | March PF |",
		"| RDF0 partial (cell, Open 1) | D |",
		"| WDF1 partial (bit line, Open 4) | M |",
		"  D RDF0 partial (cell, Open 1): sensitized at element",
		"  M WDF1 partial (bit line, Open 4):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "certificate") {
		t.Errorf("the prover is the only static analysis; nothing to certify against:\n%s", out)
	}
}

// TestWriteDetectionMatrixMultiTest: multi-test mode prints one verdict
// column per test and no evidence lines.
func TestWriteDetectionMatrixMultiTest(t *testing.T) {
	tests := []march.Test{march.MarchCMinus(), march.MarchPF()}
	m := march.BuildDetectionMatrix(tests, march.PaperFaultCatalog()[:4], nil)
	var sb strings.Builder
	if err := WriteDetectionMatrix(&sb, m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "| fault | March C- | March PF |") {
		t.Errorf("missing two-column header:\n%s", out)
	}
	if strings.Contains(out, "  D ") || strings.Contains(out, "  M ") {
		t.Errorf("evidence lines must only appear in single-test mode:\n%s", out)
	}
}
