package spice_test

import (
	"fmt"
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/spice"
	"github.com/memtest/partialfaults/internal/stress"
)

// TestWatchedCheckMatchesFullScan writes and reads both values on both
// cells of the DRAM column with every simulated open at three
// resistances, with every short and bridge, and at every default stress
// corner. At every factorization the nonlinear stamps' context must keep
// the circuit.StampContext contract (no −0 in the base or the starting
// right-hand side, X equal to PinnedX at pinned nodes), the engine's
// watched positions must report pattern growth exactly when a full scan
// of the Jacobian does, and no nonlinear stamp may write outside its
// footprint.
func TestWatchedCheckMatchesFullScan(t *testing.T) {
	type column struct {
		name string
		tech dram.Technology
		site string
		ohms float64
	}
	var cols []column
	for _, o := range defect.SimulatedOpens() {
		for _, r := range []float64{1e4, 1e6, 1e8} {
			cols = append(cols, column{fmt.Sprintf("%s r=%g", o.Name(), r), dram.Default(), o.Site, r})
		}
	}
	for _, s := range defect.ShortsAndBridges() {
		cols = append(cols, column{s.Name(), dram.Default(), s.Site, 1e4})
	}
	for _, c := range stress.DefaultCorners() {
		tech, err := c.Derive(dram.Default())
		if err != nil {
			t.Fatalf("corner %s: %v", c.Name, err)
		}
		cols = append(cols, column{"corner " + c.Name, tech, "", 0})
	}
	for _, c := range cols {
		t.Run(c.name, func(t *testing.T) {
			col := dram.MustNewColumn(c.tech)
			if c.site != "" {
				col.SetSiteResistance(c.site, c.ohms)
			}
			audit := spice.AuditWatch(col.Engine())
			if err := col.PowerUp(); err != nil {
				t.Fatal(err)
			}
			for cell := 0; cell < 2; cell++ {
				for bit := 0; bit < 2; bit++ {
					if err := col.Write(cell, bit); err != nil {
						t.Fatalf("write %d to cell %d: %v", bit, cell, err)
					}
					if _, err := col.Read(cell); err != nil {
						t.Fatalf("read cell %d: %v", cell, err)
					}
				}
			}
			if audit.Err != nil {
				t.Fatal(audit.Err)
			}
			// A run in which no stamp ever widened the pattern would
			// compare nothing.
			if audit.Growths == 0 {
				t.Fatalf("none of %d audited factorizations grew the pattern", audit.Factorizations)
			}
		})
	}
}
