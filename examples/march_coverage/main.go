// March coverage: evaluates the paper's March PF and the classical march
// test library against the static fault catalog and the completed
// partial faults of Table 1, printing the detection matrix — the
// testing-impact story of Sections 1 and 5.
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/report"
)

func main() {
	tests := []march.Test{
		march.MATSPlus(), march.MarchX(), march.MarchCMinus(),
		march.MarchSS(), march.MarchPF(),
	}
	for _, t := range tests {
		fmt.Printf("%-9s %2dN  %s\n", t.Name, t.Length(), t)
	}
	fmt.Println()

	// The paper's Section 1 example first: {m(w1,r1)} vs RDF1.
	w1r1 := march.Test{Name: "{m(w1,r1)}", Elements: []march.Element{
		{Order: march.Any, Ops: []march.Op{march.W(1), march.R(1)}},
	}}
	plain := march.CatalogEntry{Name: "plain RDF1", FP: fp.MustParse("<1r1/0/0>")}
	partial := march.CatalogEntry{
		Name: "partial RDF1", FP: fp.MustParse("<1v [w0BL] r1v/0/0>"),
		Float: defect.FloatBitLine, Partial: true,
	}
	eng := bitsim.New()
	for _, e := range []march.CatalogEntry{plain, partial} {
		v, err := eng.Detects(w1r1, 4, 1, e)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("{m(w1,r1)} vs %-13s detected=%v (%d/%d scenarios)\n", e.Name+":", v.Detected, v.Caught, v.Scenarios)
	}
	fmt.Println("→ the fault model alone suggests {m(w1,r1)} suffices; the partial form escapes it.")
	fmt.Println()

	// Full matrix over both catalogs.
	catalog := append(march.ClassicalFaultCatalog(), march.PaperFaultCatalog()...)
	results, err := march.CoverageMatrixWith(eng, tests, catalog, 4, 2)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, len(tests))
	for i, t := range tests {
		names[i] = t.Name
	}
	if err := report.WriteCoverage(os.Stdout, results, names); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n✓ = guaranteed detection, ✗ = guaranteed miss, a/b = caught in a of b scenarios.")
	fmt.Println("The word-line (\"Not possible\") partial faults evade every march test — no")
	fmt.Println("memory operation can set a floating word line, exactly as the paper proves.")
}
