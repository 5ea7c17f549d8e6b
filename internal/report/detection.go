package report

import (
	"fmt"
	"io"

	"github.com/memtest/partialfaults/internal/march"
)

// WriteDetectionMatrix renders the three-valued static detection
// matrix in the style of the paper's Table 1: one row per catalog
// fault, one column per test, each cell a proved verdict — D (the test
// is guaranteed to detect the fault on every geometry, victim/pair
// placement and ⇕-order assignment), M (guaranteed to miss it
// everywhere) or ? (neither proven; detection may be geometry- or
// placement-dependent). When the matrix covers a single test, each
// verdict's evidence is printed too: the proof trace of a D, the
// witness scenario of an M.
func WriteDetectionMatrix(w io.Writer, m march.DetectionMatrix) error {
	det, miss, unk := m.Counts()
	if _, err := fmt.Fprintf(w, "static detection matrix — %d tests × %d faults: %d proved detected, %d proved missed, %d unknown\n",
		len(m.Tests), matrixFaultCount(m), det, miss, unk); err != nil {
		return err
	}

	// Group rows by fault, preserving catalog order, one verdict per test.
	type faultRow struct {
		name     string
		partial  bool
		verdicts map[string]march.Proof
	}
	var faults []*faultRow
	byName := map[string]*faultRow{}
	for _, r := range m.Rows {
		fr := byName[r.Fault]
		if fr == nil {
			fr = &faultRow{name: r.Fault, partial: r.Partial, verdicts: map[string]march.Proof{}}
			byName[r.Fault] = fr
			faults = append(faults, fr)
		}
		fr.verdicts[r.Test] = r.Proof
	}

	if _, err := fmt.Fprint(w, "| fault |"); err != nil {
		return err
	}
	for _, t := range m.Tests {
		if _, err := fmt.Fprintf(w, " %s |", t); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(w, "\n|---|"); err != nil {
		return err
	}
	for range m.Tests {
		if _, err := fmt.Fprint(w, "---|"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, fr := range faults {
		if _, err := fmt.Fprintf(w, "| %s |", fr.name); err != nil {
			return err
		}
		for _, t := range m.Tests {
			if _, err := fmt.Fprintf(w, " %s |", fr.verdicts[t].Verdict.Symbol()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}

	// With a single test the matrix doubles as its certificate: print the
	// evidence behind every verdict.
	if len(m.Tests) == 1 {
		for _, r := range m.Rows {
			switch r.Proof.Verdict {
			case march.VerdictDetects:
				if r.Proof.Trace != nil {
					if _, err := fmt.Fprintf(w, "  D %s: %s\n", r.Fault, r.Proof.Trace); err != nil {
						return err
					}
				}
			case march.VerdictMisses:
				if _, err := fmt.Fprintf(w, "  M %s: %s\n", r.Fault, r.Proof.Witness); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "  ? %s: %s\n", r.Fault, r.Proof.Witness); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// matrixFaultCount returns the number of distinct faults in the matrix.
func matrixFaultCount(m march.DetectionMatrix) int {
	if len(m.Tests) == 0 {
		return 0
	}
	return len(m.Rows) / len(m.Tests)
}
