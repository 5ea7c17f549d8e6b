package dram

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/numeric"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/column_voltage_bits.golden from the current engine")

// bitsCase is one fixed operation sequence on the electrical column. The
// first op runs on the powered-up column; when nets is non-empty they are
// then set to u (the paper's floating-voltage initialization) before the
// remaining ops.
type bitsCase struct {
	name string
	site string // defect site to inject, "" for the healthy column
	ohms float64
	nets []string
	u    float64
	ops  []string
}

func columnBitsCases() []bitsCase {
	cases := []bitsCase{{name: "healthy", ops: []string{"w1", "r1", "w0", "r0"}}}
	// Open 4's floating bit line: every BT segment past the open.
	open4 := []string{NetBTCell, NetBTRef, NetBTSA, NetBTIO}
	for _, r := range []float64{1e5, 1e6, 1e7} {
		for _, u := range []float64{0, 1.65, 3.3} {
			cases = append(cases, bitsCase{
				name: fmt.Sprintf("open4/r=%g/u=%g", r, u),
				site: SiteOpen4BLPre, ohms: r, nets: open4, u: u,
				ops: []string{"w1", "r1", "w0", "r0"},
			})
		}
	}
	cases = append(cases,
		bitsCase{
			name: "open9/r=1e+07/u=4", site: SiteOpen9WL, ohms: 1e7,
			nets: []string{NetWL0Gate}, u: 4.0,
			ops: []string{"w1", "r1", "w0"},
		},
		bitsCase{
			name: "short.bl.vdd/r=1e+04", site: SiteShortBLVdd, ohms: 1e4,
			ops: []string{"w0", "r0", "w1"},
		},
	)
	// Open 7 inside the sense amplifier, the other open the table1-spice
	// benchmark runs: its floating output buffer, then its floating
	// reference cell.
	for _, r := range numeric.Logspace(1e4, 1e7, 3) {
		for _, u := range []float64{0, 3.3} {
			cases = append(cases, bitsCase{
				name: fmt.Sprintf("open7/r=%g/u=%g", r, u),
				site: SiteOpen7SA, ohms: r, nets: []string{NetOutBuf, NetIO}, u: u,
				ops: []string{"w1", "r1", "w0", "r0"},
			})
		}
	}
	cases = append(cases, bitsCase{
		name: "open7.ref/r=1e+06/u=3.3", site: SiteOpen7SA, ohms: 1e6,
		nets: []string{NetRefStore}, u: 3.3,
		ops: []string{"w0", "r0", "w1", "r1"},
	})
	// Open 1 inside the victim cell: its floating storage node.
	for _, u := range []float64{0, 3.3} {
		cases = append(cases, bitsCase{
			name: fmt.Sprintf("open1/r=1e+06/u=%g", u),
			site: SiteOpen1Cell, ohms: 1e6, nets: []string{NetCell0Store}, u: u,
			ops: []string{"w1", "r1", "w0", "r0"},
		})
	}
	return cases
}

// columnBits runs one case and writes one line per op: the op, the output
// bit and the IEEE-754 bits of every node voltage in sorted net order.
func columnBits(t *testing.T, tc bitsCase, out *bytes.Buffer) {
	t.Helper()
	c := MustNewColumn(Default())
	if tc.site != "" {
		c.SetSiteResistance(tc.site, tc.ohms)
	}
	if err := c.PowerUp(); err != nil {
		t.Fatalf("%s: PowerUp: %v", tc.name, err)
	}
	nets := c.Circuit().NodeNames()
	for i, op := range tc.ops {
		if i == 1 && len(tc.nets) > 0 {
			c.SetNodeVoltages(tc.u, tc.nets...)
		}
		cell := 0
		if op[0] == 'W' || op[0] == 'R' {
			cell = 1
		}
		bit := int(op[1] - '0')
		var err error
		switch op[0] {
		case 'w', 'W':
			err = c.Write(cell, bit)
		default:
			_, err = c.Read(cell)
		}
		if err != nil {
			t.Fatalf("%s: op %d (%s): %v", tc.name, i, op, err)
		}
		fmt.Fprintf(out, "%s %d:%s out=%d", tc.name, i, op, c.OutputBit())
		for _, n := range nets {
			fmt.Fprintf(out, " %s=%016x", n, math.Float64bits(c.Voltage(n)))
		}
		out.WriteByte('\n')
	}
}

// TestColumnVoltageBits pins the transient engine's node voltages bit for
// bit: a change to the solver, the stamps or the device models must leave
// every voltage of these sequences unchanged. Regenerate with -update only
// for an intended change of the electrical model.
func TestColumnVoltageBits(t *testing.T) {
	var got bytes.Buffer
	for _, tc := range columnBitsCases() {
		columnBits(t, tc, &got)
	}
	path := filepath.Join("testdata", "column_voltage_bits.golden")
	if *updateBits {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
}
