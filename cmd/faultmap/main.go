// Command faultmap generates an (R_def, U) fault-region map for a chosen
// open defect and sensitizing operation sequence — the tool behind the
// paper's Figures 3 and 4.
//
// Usage:
//
//	faultmap -open 4 -sos "<1r1/0/0>" [-engine behav|spice]
//	         [-rdef-min 1e3] [-rdef-max 1e7] [-rdef-steps 13]
//	         [-u-min 0] [-u-max 3.3] [-u-steps 12] [-csv]
//	         [-sweep dense|traced]
//
// -sweep traced replaces the dense grid sweep with the adaptive
// boundary tracer (DESIGN.md §14): a fraction of the simulations, and
// the same map wherever every fault region holds a sample; the
// simulated/inferred split is reported on stderr.
//
// The -sos flag accepts either a bare SOS ("1r1", "1v [w0BL] r1v") or a
// full fault primitive whose S part is used.
//
// -twocell "March C-" (or "all") prints the two-cell coverage
// certificate for the named march test on a 4×2 array: the static
// cannot-fire column checked against the exhaustive coupling-fault
// simulation on the bit-plane engine.
//
// -prove "March PF" (or "all") prints the static three-valued detection
// matrix for the named march test against the paper's partial-fault
// catalog and the two-cell catalog: proved Detects/Misses verdicts
// quantified over every geometry, placement and address order, with the
// proof trace or witness behind each verdict.
//
// -stress sweeps the full defect catalog at every operating corner
// (-corners "low-vdd;hot" or name:key=val,... derivations, at most 16
// corners with nominal; default: the built-in corner set) and prints
// the per-corner Table 1 inventories, the corner deltas against
// nominal, and the worst-corner coverage certificate, with per-corner
// coverage simulated on the bit-plane engine. -engine and the grid
// flags apply.
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
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/request"
	"github.com/memtest/partialfaults/internal/stress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed flags.
type options struct {
	open                             int
	sos, float, engine, sweep        string
	grid                             request.Grid
	csv, lint, predict, stress       bool
	defects, twoCell, prove, corners string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("faultmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.IntVar(&o.open, "open", 4, "open defect number (1-9, Figure 2)")
	fs.StringVar(&o.sos, "sos", "1r1", "sensitizing operation sequence or fault primitive")
	fs.StringVar(&o.float, "float", "", "floating voltage to sweep (default: the open's primary group)")
	fs.StringVar(&o.engine, "engine", "behav", "simulation engine: behav (analytical) or spice (transient)")
	fs.Float64Var(&o.grid.RDefMin, "rdef-min", 1e3, "minimum open resistance [Ω]")
	fs.Float64Var(&o.grid.RDefMax, "rdef-max", 1e7, "maximum open resistance [Ω]")
	fs.IntVar(&o.grid.RDefSteps, "rdef-steps", 13, "log-spaced resistance steps")
	fs.Float64Var(&o.grid.UMin, "u-min", 0, "minimum floating voltage [V]")
	fs.Float64Var(&o.grid.UMax, "u-max", 3.3, "maximum floating voltage [V]")
	fs.IntVar(&o.grid.USteps, "u-steps", 12, "linear voltage steps")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of the ASCII map")
	fs.StringVar(&o.sweep, "sweep", "dense", "plane-sweep strategy: dense (simulate every grid point) or traced (adaptive boundary tracing; the same map wherever every fault region holds a sample)")
	fs.BoolVar(&o.lint, "lint", false, "run the static-analysis pre-flight and abort on errors")
	fs.BoolVar(&o.predict, "predict", false, "print the statically predicted floating-line set for the open and exit")
	fs.StringVar(&o.defects, "defect", "", "comma-separated short/bridge defect sites, each optionally @ohms (e.g. short.cell.gnd,bridge.cell.cell or short.bl.vdd@2e3); with -predict, prints the net-merge verdict table instead of an open's float set")
	fs.StringVar(&o.twoCell, "twocell", "", "march test name (or \"all\") whose two-cell coverage certificate to print; exits nonzero on an unsound certificate")
	fs.StringVar(&o.prove, "prove", "", "march test name (or \"all\") whose static three-valued detection matrix to print")
	fs.BoolVar(&o.stress, "stress", false, "sweep the defect catalog at every operating corner and print per-corner inventories, corner deltas and the worst-corner coverage certificate")
	fs.StringVar(&o.corners, "corners", "", "semicolon-separated corner list for -stress: built-in names (nominal, low-vdd, high-vdd, weak-precharge, hot, cold) or name:key=val,... derivations (keys vdd, vpp, bleq, vref, temp); default: the built-in set")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "faultmap: unexpected argument %q (every flag must come before it)\n", fs.Arg(0))
		fs.Usage()
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return o, nil
}

// The service-backed modes build the same requests pfserve serves.

func (o *options) stressRequest() *request.Stress {
	return &request.Stress{Engine: o.engine, Corners: o.corners, Grid: o.grid, Sweep: o.sweep}
}

func (o *options) matrixRequest() *request.Matrix {
	if o.prove == "all" {
		return &request.Matrix{}
	}
	return &request.Matrix{Tests: []string{o.prove}}
}

// twoCellRequests builds one certificate request per named test, or per
// library test for "all".
func (o *options) twoCellRequests() []*request.TwoCell {
	if o.twoCell != "all" {
		return []*request.TwoCell{{Test: o.twoCell}}
	}
	var qs []*request.TwoCell
	for _, t := range march.All() {
		qs = append(qs, &request.TwoCell{Test: t.Name})
	}
	return qs
}

// predictRequest builds the merge prediction of -defect, each site
// optionally suffixed "@ohms" for a resistive (weak) bridge, or else
// the float prediction of -open.
func (o *options) predictRequest() (*request.Predict, error) {
	if o.defects == "" {
		return &request.Predict{Open: o.open}, nil
	}
	q := &request.Predict{}
	for _, part := range strings.Split(o.defects, ",") {
		part = strings.TrimSpace(part)
		d := request.PredictDefect{Site: part}
		if at := strings.IndexByte(part, '@'); at >= 0 {
			d.Site = part[:at]
			v, err := strconv.ParseFloat(part[at+1:], 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad resistance in %q; want e.g. %s@2e3", part, d.Site)
			}
			d.Ohms = v
		}
		q.Defects = append(q.Defects, d)
	}
	return q, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "faultmap: "+format+"\n", a...)
		return 1
	}

	if o.lint {
		if err := preflight(stderr); err != nil {
			return fail("%v", err)
		}
	}
	env, err := request.NewEnv(nil, nil, 0)
	if err != nil {
		return fail("%v", err)
	}
	switch {
	case o.stress:
		env.Progress = func(line string) { fmt.Fprintf(stderr, "faultmap: %s\n", line) }
		err = stressMatrix(stdout, env, o.stressRequest())
	case o.prove != "":
		err = detectionMatrix(stdout, env, o.matrixRequest())
	case o.twoCell != "":
		err = twoCellCertificates(stdout, env, o.twoCellRequests())
	case o.defects != "" || o.predict:
		err = predict(stdout, env, o)
	default:
		err = faultMap(stdout, stderr, env, o)
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}

// faultMap sweeps one (R_def, U) plane and prints its map (or CSV) and
// the partial faults it shows.
func faultMap(stdout, stderr io.Writer, env *request.Env, o *options) error {
	opens, err := request.Opens([]int{o.open})
	if err != nil {
		return fmt.Errorf("%v; the paper defines opens 1-9", err)
	}
	open := opens[0]
	sos, err := parseSOSOrFP(o.sos)
	if err != nil {
		return fmt.Errorf("bad -sos: %v", err)
	}
	group := open.Floats[0]
	if o.float != "" {
		g, ok := open.Float(defect.FloatVar(o.float))
		if !ok {
			return fmt.Errorf("open %d has no floating group %q", o.open, o.float)
		}
		group = g
	}
	factory, err := env.Factory(o.engine)
	if err != nil {
		return err
	}
	mode, err := analysis.ParseSweepMode(o.sweep)
	if err != nil {
		return fmt.Errorf("bad -sweep: %v", err)
	}
	grid := o.grid
	if err := grid.Normalize(); err != nil {
		return err
	}
	plane, err := analysis.RunSweep(mode, env.Trace, analysis.SweepConfig{
		Factory: factory, Open: open, Float: group, SOS: sos,
		RDefs: grid.RDefs, Us: grid.Us,
	})
	if err != nil {
		return fmt.Errorf("sweep: %v", err)
	}
	if mode == analysis.SweepTraced {
		ts, _ := env.Trace.Snapshot()
		fmt.Fprintf(stderr, "faultmap: traced sweep simulated %d of %d points (%d inferred, %.1fx fewer simulations)\n",
			ts.Simulated(), ts.Points(), ts.Inferred, ts.Reduction())
	}
	if o.csv {
		return report.WritePlaneCSV(stdout, plane)
	}
	if err := report.WritePlane(stdout, plane); err != nil {
		return fmt.Errorf("map: %v", err)
	}
	for _, f := range analysis.IdentifyPartialFaults(plane) {
		fmt.Fprintf(stdout, "partial fault: %s observed only for U ∈ [%.2f, %.2f] V (e.g. %s)\n",
			f.FFM, f.ULow, f.UHigh, f.Example)
	}
	return nil
}

func parseSOSOrFP(s string) (fp.SOS, error) {
	if strings.HasPrefix(strings.TrimSpace(s), "<") {
		p, err := fp.Parse(s)
		if err != nil {
			return fp.SOS{}, err
		}
		return p.S, nil
	}
	return fp.ParseSOS(s)
}

// predict prints a static net-prover verdict: the net-merge verdict
// table of the -defect sites (each site's description first), or else
// the floating-line set the netlist graph predicts for the open.
func predict(w io.Writer, env *request.Env, o *options) error {
	q, err := o.predictRequest()
	if err != nil {
		return err
	}
	p, err := request.Do[request.Prediction](context.Background(), env, q)
	if err != nil {
		return fmt.Errorf("predict: %v", err)
	}
	if p.Merges == nil {
		fmt.Fprintf(w, "open %d cuts element %s\n", p.Open.ID, p.Element)
		fmt.Fprintf(w, "primary floats:   %s\n", joinOrNone(p.Floats.Primary))
		fmt.Fprintf(w, "secondary floats: %s\n", joinOrNone(p.Floats.Secondary))
		return nil
	}
	for _, sb := range p.Defects {
		fmt.Fprintf(w, "%s: %s\n", sb.Name(), sb.Description)
	}
	if err := report.WriteMergePrediction(w, *p.Merges); err != nil {
		return fmt.Errorf("predict: %v", err)
	}
	return nil
}

// twoCellCertificates prints the two-cell coverage certificate of each
// request (one per march test) and errors when any is unsound: a
// statically proved miss that the simulation caught.
func twoCellCertificates(w io.Writer, env *request.Env, qs []*request.TwoCell) error {
	unsound := false
	for _, q := range qs {
		cert, err := request.Do[march.TwoCellCertificate](context.Background(), env, q)
		if err != nil {
			return fmt.Errorf("twocell: %v", err)
		}
		if err := report.WriteTwoCellCoverage(w, cert); err != nil {
			return fmt.Errorf("twocell: %v", err)
		}
		fmt.Fprintln(w)
		if len(cert.Violations()) > 0 {
			unsound = true
		}
	}
	if unsound {
		return fmt.Errorf("twocell: at least one certificate is unsound")
	}
	return nil
}

// detectionMatrix prints the static three-valued detection matrix.
func detectionMatrix(w io.Writer, env *request.Env, q *request.Matrix) error {
	m, err := request.Do[march.DetectionMatrix](context.Background(), env, q)
	if err != nil {
		return fmt.Errorf("prove: %v", err)
	}
	if err := report.WriteDetectionMatrix(w, m); err != nil {
		return fmt.Errorf("prove: %v", err)
	}
	return nil
}

// stressMatrix runs the stress-condition scenario matrix and prints the
// per-corner inventories, the corner deltas against nominal and the
// worst-corner certificate. Corner progress goes to env.Progress.
func stressMatrix(w io.Writer, env *request.Env, q *request.Stress) error {
	res, err := request.Do[*stress.Result](context.Background(), env, q)
	if err != nil {
		return fmt.Errorf("stress: %v", err)
	}
	if err := report.WriteStressMatrix(w, res); err != nil {
		return fmt.Errorf("stress: %v", err)
	}
	return nil
}

func joinOrNone(nets []string) string {
	if len(nets) == 0 {
		return "(none)"
	}
	return strings.Join(nets, ", ")
}

// preflight runs the static netlist, inventory and march checks and
// aborts before any simulation when they find an error.
func preflight(stderr io.Writer) error {
	findings, err := analysis.Preflight(dram.Default())
	if err != nil {
		return fmt.Errorf("lint: %v", err)
	}
	if err := report.WriteFindings(stderr, findings, lint.Warning); err != nil {
		return fmt.Errorf("lint: %v", err)
	}
	if findings.Count(lint.Error) > 0 {
		return fmt.Errorf("lint: static analysis failed; not simulating")
	}
	return nil
}
