// Command pflint runs the full static-analysis stack over this
// repository: the netlist layer (floating-net prover, MNA solvability,
// phase-model verification, nine-opens floating-line cross-check), the
// march-test layer (structural lint plus the detection prover), and
// the Go project linter.
//
// Usage:
//
//	pflint [flags] [./...]
//
// The optional package pattern selects the module root for the Go
// linter (default "./..."). The exit code is nonzero when any finding
// at error severity exists.
//
//	-v        also print informational findings
//	-selftest lint deliberately broken inputs instead of the repo; the
//	          exit code must be nonzero (used by CI to prove the tools
//	          can fail)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/device"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/lint/golint"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/netlint"
	"github.com/memtest/partialfaults/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "also print informational findings")
	selftest := fs.Bool("selftest", false, "lint deliberately broken inputs; exit must be nonzero")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root := "."
	if rest := fs.Args(); len(rest) > 0 {
		root = strings.TrimSuffix(rest[0], "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
	}

	var findings lint.Findings
	if *selftest {
		findings = seededBadFindings()
	} else {
		var err error
		findings, err = lintRepo(root)
		if err != nil {
			fmt.Fprintf(stderr, "pflint: %v\n", err)
			return 2
		}
	}

	minSev := lint.Warning
	if *verbose {
		minSev = lint.Info
	}
	if err := report.WriteFindings(stdout, findings, minSev); err != nil {
		fmt.Fprintf(stderr, "pflint: %v\n", err)
		return 2
	}
	if findings.Count(lint.Error) > 0 {
		return 1
	}
	return 0
}

// lintRepo runs all three layers against the real inputs: the DRAM
// column netlist with its phase model and defect inventory, the march
// library, and the Go sources under root.
func lintRepo(root string) (lint.Findings, error) {
	out, err := analysis.Preflight(dram.Default())
	if err != nil {
		return nil, err
	}
	gofs, err := golint.Run(golint.DefaultConfig(root))
	if err != nil {
		return nil, err
	}
	out = append(out, gofs...)
	out.Sort()
	return out, nil
}

// seededBadFindings lints intentionally broken inputs — a netlist with
// a floating net and a voltage-source loop, a march test that can never
// pass on a healthy memory, a march test that provably misses coupling
// faults, a march test with a provable partial-fault detection gap,
// a technology with unphysical parameters, a rail-to-rail
// short, a transitive double short joining both rails only through an
// intermediate net, and a weak resistive bridge forming a contested
// divider — proving the analyzers can fail.
func seededBadFindings() lint.Findings {
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	lost := ckt.Node("lost")
	ckt.MustAdd(device.NewVSource("V1", vdd, 0, device.DC(3.3)))
	ckt.MustAdd(device.NewVSource("V2", vdd, 0, device.DC(3.3))) // source loop
	ckt.MustAdd(device.NewCapacitor("C1", lost, 0, 1e-15))       // floating net
	ckt.Freeze()
	out := netlint.New(ckt, netlint.Model{CutoffOhms: 1e9}).Check()

	bad := march.Test{Name: "seeded-bad", Elements: []march.Element{
		{Order: march.Any, Ops: []march.Op{march.W(0)}},
		{Order: march.Up, Ops: []march.Op{march.R(1), march.W(0)}}, // reads 1, stores 0
	}}
	out = append(out, march.Lint(bad)...)

	// A structurally clean march test that provably misses coupling
	// faults: without any non-transition write it can never perform the
	// aggressor condition of a non-transition CFds, which the detection
	// prover reports as proved misses.
	missesCFds := march.Test{Name: "seeded-cfds-miss", Elements: []march.Element{
		{Order: march.Any, Ops: []march.Op{march.W(0)}},
		{Order: march.Up, Ops: []march.Op{march.R(0), march.W(1)}},
		{Order: march.Down, Ops: []march.Op{march.R(1), march.W(0)}},
		{Order: march.Any, Ops: []march.Op{march.R(0)}},
	}}
	out = append(out, march.DetectionPrePass([]march.Test{missesCFds}, nil, march.TwoCellCatalog())...)

	// A march test with a provable detection gap: the MATS+ shape fires
	// the bit-line-mediated TF↓ partial fault (its ⇓ element's w0 sees a
	// bit line left high by the preceding r1) but never reads the victim
	// again, so the detection prover returns a guaranteed miss — for a
	// fault March PF provably detects. The paired error finding is a
	// tripwire: it appears only if the prover's verdicts regress.
	gap := march.Test{Name: "seeded-partial-gap", Elements: []march.Element{
		{Order: march.Any, Ops: []march.Op{march.W(0)}},
		{Order: march.Up, Ops: []march.Op{march.R(0), march.W(1)}},
		{Order: march.Down, Ops: []march.Op{march.R(1), march.W(0)}},
	}}
	var tfdown march.CatalogEntry
	for _, e := range march.PaperFaultCatalog() {
		if e.Name == "TF↓ partial (bit line, Open 5)" {
			tfdown = e
		}
	}
	gapProof := march.ProveDetects(gap, tfdown)
	pfProof := march.ProveDetects(march.MarchPF(), tfdown)
	if gapProof.Verdict == march.VerdictMisses && pfProof.Verdict == march.VerdictDetects {
		out = append(out, lint.Finding{
			Layer: "march", Rule: "detection-gap", Severity: lint.Warning,
			Subject: gap.Name,
			Message: fmt.Sprintf("provably never detects %q: %s — March PF provably detects it (%s)", tfdown.Name, gapProof.Witness, pfProof.Trace),
		})
	} else {
		out = append(out, lint.Finding{
			Layer: "march", Rule: "detection-selftest", Severity: lint.Error,
			Subject: gap.Name,
			Message: fmt.Sprintf("expected a proved miss for %q and a proved March PF detection, got %s and %s — the detection prover regressed", tfdown.Name, gapProof.Verdict, pfProof.Verdict),
		})
	}

	badTech := dram.Default()
	badTech.CCell = -30e-15       // negative capacitance
	badTech.VPP = badTech.VDD - 1 // no word-line boost
	badTech.TPre = 1e-13          // precharge shorter than the bit-line RC
	out = append(out, dram.LintTechnology(badTech)...)

	// A rail-to-rail short: merging vdd and vpp contracts two different
	// supplies into one class, which the net-merge prover must report as
	// a contested supply pair.
	sck := circuit.New()
	svdd := sck.Node("vdd")
	svpp := sck.Node("vpp")
	sout := sck.Node("out")
	sck.MustAdd(device.NewVSource("V1", svdd, 0, device.DC(1.8)))
	sck.MustAdd(device.NewVSource("V2", svpp, 0, device.DC(3.3)))
	sck.MustAdd(device.NewResistor("R_load", svdd, sout, 1e3))
	sck.MustAdd(device.NewResistor("R_gnd", sout, 0, 1e3))
	sck.MustAdd(device.NewResistor("R_short", svdd, svpp, 10))
	sck.Freeze()
	merged := netlint.New(sck, netlint.Model{
		Phases: []netlint.Phase{{Name: "on"}},
		Roles:  map[string][]string{"out": {"on"}},
	})
	out = append(out, merged.CheckMerges([]string{"R_short"})...)

	// A transitive double short: neither defect alone touches both
	// rails, but together they chain vdd—mid—gnd, so only the
	// multi-defect contraction sees the supply pair.
	dck := circuit.New()
	dvdd := dck.Node("vdd")
	dmid := dck.Node("mid")
	dout := dck.Node("out")
	dck.MustAdd(device.NewVSource("V1", dvdd, 0, device.DC(3.3)))
	dck.MustAdd(device.NewResistor("R_load", dvdd, dout, 1e3))
	dck.MustAdd(device.NewResistor("R_gnd", dout, 0, 1e3))
	dck.MustAdd(device.NewResistor("R_s1", dvdd, dmid, 10))
	dck.MustAdd(device.NewResistor("R_s2", dmid, 0, 10))
	dck.Freeze()
	double := netlint.New(dck, netlint.Model{
		Phases: []netlint.Phase{{Name: "on"}},
		Roles:  map[string][]string{"out": {"on"}, "mid": {"on"}},
	})
	out = append(out, double.CheckMergeSet(netlint.MergeSpec{Elems: []netlint.MergeElem{
		{Name: "R_s1"}, {Name: "R_s2"},
	}})...)

	// A weak resistive bridge: out's own 2 mS divider drive against an
	// ideal rail through a 1.5 kΩ bridge is within the weak ratio — a
	// genuine analog fight the prover must flag as weak-contested.
	wck := circuit.New()
	wvdd := wck.Node("vdd")
	wout := wck.Node("out")
	wck.MustAdd(device.NewVSource("V1", wvdd, 0, device.DC(3.3)))
	wck.MustAdd(device.NewResistor("R_a", wvdd, wout, 1e3))
	wck.MustAdd(device.NewResistor("R_b", wout, 0, 1e3))
	wck.MustAdd(device.NewResistor("R_weak", wout, wvdd, 1.5e3))
	wck.Freeze()
	weak := netlint.New(wck, netlint.Model{
		Phases:     []netlint.Phase{{Name: "on"}},
		Roles:      map[string][]string{"out": {"on"}},
		CutoffOhms: 1e9,
		NetVolts:   map[string]float64{"vdd": 3.3},
	})
	out = append(out, weak.CheckMergeSet(netlint.MergeSpec{Elems: []netlint.MergeElem{
		{Name: "R_weak", Ohms: 1.5e3},
	}})...)
	out.Sort()
	return out
}
