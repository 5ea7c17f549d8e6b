package march

import (
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/memsim"
)

// CatalogEntry is one injectable fault family for coverage evaluation.
type CatalogEntry struct {
	// Name labels the family (FFM plus mediation).
	Name string
	// FP is the injected fault primitive (completed form for partial
	// faults, plain form for classical ones).
	FP fp.FP
	// Float is the mediating floating voltage for partial faults.
	Float defect.FloatVar
	// Uncompletable marks Table 1's "Not possible" rows.
	Uncompletable bool
	// Partial distinguishes partial faults from classical always-armed
	// FPs.
	Partial bool
}

// Make builds the fault for a victim address.
func (e CatalogEntry) Make(victim int) memsim.Fault {
	return memsim.Fault{Victim: victim, FP: e.FP, Float: e.Float, Uncompletable: e.Uncompletable}
}

// ClassicalFaultCatalog returns the twelve static single-cell FPs in
// their plain (always sensitized) form.
func ClassicalFaultCatalog() []CatalogEntry {
	var out []CatalogEntry
	for _, f := range fp.AllFFMs() {
		p, _ := f.CanonicalFP()
		out = append(out, CatalogEntry{Name: f.String(), FP: p})
	}
	return out
}

// PaperFaultCatalog returns the completed partial FPs of the paper's
// Table 1 (simulated and complementary), as injectable functional
// models. The "Not possible" rows are included as uncompletable faults —
// under guarantee semantics no march test can detect them, which is
// exactly the paper's point about them.
func PaperFaultCatalog() []CatalogEntry {
	mk := func(name, s string, v defect.FloatVar) CatalogEntry {
		return CatalogEntry{Name: name, FP: fp.MustParse(s), Float: v, Partial: true}
	}
	bl := defect.FloatBitLine
	ob := defect.FloatOutBuffer
	out := []CatalogEntry{
		// RDF0 via Open 1 (cell-internal) and its complement — the
		// flagship pair of Figure 4.
		mk("RDF0 partial (cell, Open 1)", "<[w1 w1 w0] r0/1/1>", defect.FloatMemoryCell),
		mk("RDF1 partial (cell, com. Open 1)", "<[w0 w0 w1] r1/0/0>", defect.FloatMemoryCell),
		// RDF via bit line (Opens 3–5) and output buffer (Open 8).
		mk("RDF0 partial (bit line, Open 5)", "<0v [w1BL] r0v/1/1>", bl),
		mk("RDF1 partial (bit line, Opens 3-5)", "<1v [w0BL] r1v/0/0>", bl),
		mk("RDF0 partial (output buffer, Open 8)", "<0v [w1BL] r0v/1/1>", ob),
		mk("RDF1 partial (output buffer, Open 8)", "<1v [w0BL] r1v/0/0>", ob),
		// Deceptive and incorrect read faults.
		mk("DRDF1 partial (bit line, Open 4)", "<1v [w1BL] r1v/0/1>", bl),
		mk("IRF0 partial (output buffer, Open 8)", "<0v [w1BL] r0v/0/1>", ob),
		mk("IRF1 partial (bit line, Open 5)", "<1v [w0BL] r1v/1/0>", bl),
		// Write destructive and transition faults.
		mk("WDF1 partial (bit line, Open 4)", "<1v [w0BL] w1v/0/->", bl),
		mk("TF↓ partial (bit line, Open 5)", "<1v [w1BL] w0v/1/->", bl),
		mk("TF↑ partial (bit line, com. Open 5)", "<0v [w0BL] w1v/0/->", bl),
	}
	// The uncompletable (word-line mediated) rows: SF0/SF1, IRF0, TF↓.
	for _, u := range []struct{ name, s string }{
		{"SF0 partial (word line, Open 9) — Not possible", "<0/1/->"},
		{"SF1 partial (word line, com. Open 9) — Not possible", "<1/0/->"},
		{"IRF0 partial (word line, Open 9) — Not possible", "<0r0/0/1>"},
		{"TF↓ partial (word line, Open 9) — Not possible", "<1w0/1/->"},
	} {
		out = append(out, CatalogEntry{
			Name: u.name, FP: fp.MustParse(u.s),
			Float: defect.FloatWordLine, Uncompletable: true, Partial: true,
		})
	}
	return out
}

// CoverageResult is one (test, fault) evaluation.
type CoverageResult struct {
	Test      string
	Fault     string
	Partial   bool
	Detected  bool
	Caught    int
	Scenarios int
	// Engine names the backend that evaluated the row: the requested
	// one, since an entry that backend cannot evaluate fails the matrix.
	Engine string
}
