// Command partialfaults runs the full fault-analysis pipeline of the
// paper: inject every simulated open, sweep every floating-voltage
// group over the (R_def, U) plane for the static SOSes, identify partial
// faults, search completing operations, and print the resulting
// inventory — our reproduction of Table 1.
//
// Usage:
//
//	partialfaults [-engine behav|spice] [-opens 1,3,4,5] [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/request"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("partialfaults", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engine  = fs.String("engine", "behav", "simulation engine: behav (analytical) or spice (transient)")
		opens   = fs.String("opens", "", "comma-separated open numbers (default: all simulated opens)")
		quick   = fs.Bool("quick", false, "coarser grid for a fast run")
		verbose = fs.Bool("v", false, "print pipeline progress")
		doLint  = fs.Bool("lint", false, "run the static-analysis pre-flight and abort on errors")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "partialfaults: unexpected argument %q (every flag must come before it)\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "partialfaults: "+format+"\n", a...)
		return 1
	}
	q, err := inventoryRequest(*engine, *opens, *quick)
	if err != nil {
		return fail("%v", err)
	}
	if *doLint {
		if err := preflight(stderr); err != nil {
			return fail("%v", err)
		}
	}
	env, err := request.NewEnv(nil, nil, 0)
	if err != nil {
		return fail("%v", err)
	}
	if *verbose {
		env.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}
	rows, err := request.Do[[]analysis.Row](context.Background(), env, q)
	if err != nil {
		return fail("pipeline: %v", err)
	}
	fmt.Fprintln(stdout, "Partial faults observed in DRAM simulation (reproduction of Table 1):")
	fmt.Fprintln(stdout)
	if err := report.WriteInventory(stdout, rows); err != nil {
		return fail("report: %v", err)
	}
	possible, impossible := 0, 0
	for _, r := range rows {
		if r.Possible {
			possible++
		} else {
			impossible++
		}
	}
	fmt.Fprintf(stdout, "\n%d partial faults found; %d completed, %d not completable by memory operations\n",
		len(rows), possible, impossible)

	matches, exact, ffmOnly := analysis.CompareWithPaper(rows)
	fmt.Fprintf(stdout, "\nComparison with the paper's published Table 1 (%d exact, %d FFM-only, %d rows):\n\n",
		exact, ffmOnly, len(matches))
	fmt.Fprint(stdout, analysis.SummarizeComparison(matches))
	return 0
}

// inventoryRequest builds the inventory request of the flags: the Table 1
// grid (1 kΩ…100 MΩ × 0…4.6 V), or a coarser one with quick.
func inventoryRequest(engine, opens string, quick bool) (*request.Inventory, error) {
	q := &request.Inventory{Engine: engine, Grid: request.Grid{RDefMax: 1e8, RDefSteps: 11, UMax: 4.6, USteps: 8}}
	if quick {
		q.Grid = request.Grid{RDefMin: 1e4, RDefMax: 1e8, RDefSteps: 5, UMax: 4.6, USteps: 4}
	}
	if opens != "" {
		for _, tok := range strings.Split(opens, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad -opens entry %q", tok)
			}
			q.Opens = append(q.Opens, id)
		}
	}
	return q, nil
}

// preflight runs the static netlist, inventory and march checks and
// aborts before the pipeline when they find an error.
func preflight(stderr io.Writer) error {
	findings, err := analysis.Preflight(dram.Default())
	if err != nil {
		return fmt.Errorf("lint: %v", err)
	}
	if err := report.WriteFindings(stderr, findings, lint.Warning); err != nil {
		return fmt.Errorf("lint: %v", err)
	}
	if findings.Count(lint.Error) > 0 {
		return fmt.Errorf("lint: static analysis failed; not running the pipeline")
	}
	return nil
}
