package march

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/lint"
)

// DetectionRow is one (test, fault) cell of the three-valued detection
// matrix: the prover's verdict with its evidence.
type DetectionRow struct {
	// Test and Fault name the pair.
	Test, Fault string
	// TwoCell says the fault is a coupling entry; Partial and
	// Uncompletable carry the catalog flags.
	TwoCell, Partial, Uncompletable bool
	// Proof is the prover's verdict with its evidence.
	Proof Proof
}

// DetectionMatrix is the full static bracketing of a test library
// against fault catalogs: every test × every entry, each with a sound
// three-valued verdict. Its Misses are the repository's one static
// answer to "this test can never detect this fault".
type DetectionMatrix struct {
	// Tests are the evaluated test names, in order.
	Tests []string
	// Rows hold one entry per (test, fault) pair, tests outermost.
	Rows []DetectionRow
}

// BuildDetectionMatrix proves every test against every single-cell and
// two-cell catalog entry.
func BuildDetectionMatrix(tests []Test, singles []CatalogEntry, twos []TwoCellCatalogEntry) DetectionMatrix {
	var m DetectionMatrix
	for _, t := range tests {
		m.Tests = append(m.Tests, t.Name)
		for _, e := range singles {
			m.Rows = append(m.Rows, DetectionRow{
				Test: t.Name, Fault: e.Name,
				Partial: e.Partial, Uncompletable: e.Uncompletable,
				Proof: ProveDetects(t, e),
			})
		}
		for _, e := range twos {
			m.Rows = append(m.Rows, DetectionRow{
				Test: t.Name, Fault: e.Name, TwoCell: true,
				Partial: e.Partial, Uncompletable: e.Uncompletable,
				Proof: ProveDetectsTwoCell(t, e),
			})
		}
	}
	return m
}

// Counts tallies the matrix verdicts: proved detections, proved misses
// and unknowns.
func (m DetectionMatrix) Counts() (detects, misses, unknowns int) {
	for _, r := range m.Rows {
		switch r.Proof.Verdict {
		case VerdictDetects:
			detects++
		case VerdictMisses:
			misses++
		default:
			unknowns++
		}
	}
	return
}

// rowsFor returns the matrix rows of one test, in catalog order.
func (m DetectionMatrix) rowsFor(test string) []DetectionRow {
	var out []DetectionRow
	for _, r := range m.Rows {
		if r.Test == test {
			out = append(out, r)
		}
	}
	return out
}

// DetectionPrePass runs the prover over every (test, catalog entry)
// pair and reports the results as findings:
//
//   - one Info summary per test ("detection-matrix") with its verdict
//     tally,
//   - one Info per proved miss ("proved-miss") with the prover's
//     witness: the (test, fault) pairs no dynamic run needs to simulate.
func DetectionPrePass(tests []Test, singles []CatalogEntry, twos []TwoCellCatalogEntry) lint.Findings {
	m := BuildDetectionMatrix(tests, singles, twos)
	var out lint.Findings
	for _, name := range m.Tests {
		rows := m.rowsFor(name)
		d, miss, u := DetectionMatrix{Rows: rows}.Counts()
		out = append(out, lint.Finding{
			Layer: "march", Rule: "detection-matrix", Severity: lint.Info,
			Subject: name,
			Message: fmt.Sprintf("static detection verdicts over %d catalog entries: %d proved detected, %d proved missed, %d unknown", len(rows), d, miss, u),
		})
		for _, r := range rows {
			if r.Proof.Verdict == VerdictMisses {
				out = append(out, lint.Finding{
					Layer: "march", Rule: "proved-miss", Severity: lint.Info,
					Subject: name,
					Message: fmt.Sprintf("provably never detects %q: %s", r.Fault, r.Proof.Witness),
				})
			}
		}
	}
	out.Sort()
	return out
}
