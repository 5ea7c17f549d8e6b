package march

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/memsim"
)

// DetectsTwoCell reports whether the test guarantees detection of a
// coupling fault family: for every distinct (victim, aggressor) pair in
// a rows×cols array and every ⇕-order assignment, the test run yields at
// least one mismatch.
func DetectsTwoCell(t Test, rows, cols int, p fp.TwoCellFP) (bool, int, int, error) {
	return detectsTwoCell(t, rows, cols, func(victim, aggressor int) memsim.TwoCellFault {
		return memsim.TwoCellFault{Victim: victim, Aggressor: aggressor, FP: p}
	})
}

// DetectsTwoCellEntry is DetectsTwoCell for a full catalog entry,
// injecting partial coupling faults with their mediating floating line.
func DetectsTwoCellEntry(t Test, rows, cols int, e TwoCellCatalogEntry) (bool, int, int, error) {
	return detectsTwoCell(t, rows, cols, e.Make)
}

// DetectsTwoCellEntryOffsets is DetectsTwoCellEntry restricted to the
// aggressor offsets: only pairs with aggressor = victim + δ for some
// listed δ are simulated, so a neighbor set like ±1, ±cols turns the
// O(N²) pair walk into O(N·|δ|). Scenario counting matches the
// bit-plane engine's: Σ_δ (N − |δ|) in-array pairs per order
// assignment.
func DetectsTwoCellEntryOffsets(t Test, rows, cols int, e TwoCellCatalogEntry, offsets []int) (bool, int, int, error) {
	if err := CheckOffsets(offsets); err != nil {
		return false, 0, 0, fmt.Errorf("march: %w", err)
	}
	if len(offsets) == 0 {
		return false, 0, 0, fmt.Errorf("march: empty aggressor offset set")
	}
	return detectsTwoCellPairs(t, rows, cols, e.Make, func(n int) [][2]int {
		var pairs [][2]int
		for _, d := range offsets {
			for victim := 0; victim < n; victim++ {
				if a := victim + d; a >= 0 && a < n {
					pairs = append(pairs, [2]int{victim, a})
				}
			}
		}
		return pairs
	})
}

// CheckOffsets validates an aggressor-offset list (aggressor = victim +
// δ): zero is not a neighbour and a duplicate would double-count.
func CheckOffsets(offsets []int) error {
	seen := map[int]bool{}
	for _, d := range offsets {
		if d == 0 {
			return fmt.Errorf("aggressor offset 0 is not a neighbour")
		}
		if seen[d] {
			return fmt.Errorf("duplicate aggressor offset %d", d)
		}
		seen[d] = true
	}
	return nil
}

func detectsTwoCell(t Test, rows, cols int, build func(victim, aggressor int) memsim.TwoCellFault) (bool, int, int, error) {
	return detectsTwoCellPairs(t, rows, cols, build, func(n int) [][2]int {
		pairs := make([][2]int, 0, n*(n-1))
		for victim := 0; victim < n; victim++ {
			for aggressor := 0; aggressor < n; aggressor++ {
				if victim != aggressor {
					pairs = append(pairs, [2]int{victim, aggressor})
				}
			}
		}
		return pairs
	})
}

func detectsTwoCellPairs(t Test, rows, cols int, build func(victim, aggressor int) memsim.TwoCellFault, enumerate func(n int) [][2]int) (bool, int, int, error) {
	if err := t.Validate(); err != nil {
		return false, 0, 0, err
	}
	if rows <= 0 || cols <= 0 {
		return false, 0, 0, fmt.Errorf("march: invalid geometry %dx%d", rows, cols)
	}
	assignments := t.OrderAssignments()
	caught, total := 0, 0
	for _, pair := range enumerate(rows * cols) {
		victim, aggressor := pair[0], pair[1]
		for _, orders := range assignments {
			arr := memsim.NewArray(rows, cols)
			if err := arr.InjectTwoCell(build(victim, aggressor)); err != nil {
				return false, 0, 0, err
			}
			total++
			mm, err := t.Run(arr, orders)
			if err != nil {
				return false, 0, 0, err
			}
			if len(mm) > 0 {
				caught++
			}
		}
	}
	return caught == total && total > 0, caught, total, nil
}

// TwoCellCoverage summarizes a test's guaranteed coverage of the full
// static two-cell FP space, grouped by coupling-fault class.
type TwoCellCoverage struct {
	// Detected and Total count FPs per class.
	Detected, Total map[fp.CFKind]int
	// DetectedAll is the number of FPs detected out of the 36.
	DetectedAll int
}

// TwoCellCertRow records one catalog entry's verdict in a coverage
// certificate: the static cannot-fire claim (with its reason) side by side
// with the brute-force simulation result.
type TwoCellCertRow struct {
	// Entry is the catalog entry name; Class its coupling-fault class.
	Entry string
	Class fp.CFKind
	// Partial marks a floating-line-mediated entry.
	Partial bool
	// ProvedMiss and Reason carry the cannotCompleteTwoCell verdict.
	ProvedMiss bool
	Reason     string
	// Detected, Caught and Scenarios carry the DetectsTwoCellEntry
	// result: guaranteed detection, and scenarios caught out of all
	// (pair × order-assignment) scenarios.
	Detected          bool
	Caught, Scenarios int
	// Engine names the backend that evaluated the row: the requested
	// one, since an entry that backend cannot evaluate fails the
	// certificate.
	Engine string
}

// TwoCellCertificate is a test's two-cell coverage certificate on one
// geometry: every catalog entry's static claim checked against the
// exhaustive simulation. A sound static column yields no row where a proved
// miss was nevertheless caught.
type TwoCellCertificate struct {
	Test       string
	Rows, Cols int
	// Offsets, when non-empty, restricts the pair space to aggressor =
	// victim + δ for the listed δ; empty means all ordered pairs.
	Offsets []int
	Entries []TwoCellCertRow
}

// Violations returns the rows contradicting soundness: statically
// proved misses that the simulator nevertheless caught at least once.
func (c TwoCellCertificate) Violations() []TwoCellCertRow {
	var out []TwoCellCertRow
	for _, r := range c.Entries {
		if r.ProvedMiss && r.Caught > 0 {
			out = append(out, r)
		}
	}
	return out
}

// EvaluateTwoCellCoverage runs a test against all 36 static two-cell FPs.
func EvaluateTwoCellCoverage(t Test, rows, cols int) (TwoCellCoverage, error) {
	cov := TwoCellCoverage{
		Detected: map[fp.CFKind]int{},
		Total:    map[fp.CFKind]int{},
	}
	for _, p := range fp.EnumerateTwoCellStaticFPs() {
		kind := p.Classify()
		cov.Total[kind]++
		det, _, _, err := DetectsTwoCell(t, rows, cols, p)
		if err != nil {
			return cov, err
		}
		if det {
			cov.Detected[kind]++
			cov.DetectedAll++
		}
	}
	return cov, nil
}
