// Command marchsim runs march tests against fault-injected functional
// memories and reports guaranteed detection — the engine behind the
// paper's March PF claim and the classical-test comparison. Every run
// simulates on the bit-plane engine (internal/bitsim), whose cost does
// not grow with the array except in the all-pairs -twocell mode.
//
// Usage:
//
//	marchsim                             # full coverage matrix
//	marchsim -test "March PF"            # one test against the catalog
//	marchsim -test custom -notation "{m(w0); u(r0,w1); d(r1,w0)}"
//	marchsim -fault "<1v [w0BL] r1v/0/0>" -float "Bit line"
//	marchsim -test "March C-" -twocell    # two-cell coverage certificate
//	marchsim -test "March C-" -twocell -offsets 1,-1,64,-64
//	marchsim -test "March PF" -prove      # static three-valued detection matrix
//	marchsim -geometry 1024x1024 -test "March PF"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/lint"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/request"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed flags, with -geometry and -offsets applied.
type options struct {
	test, notation, fault, float string
	rows, cols                   int
	offsets                      []int
	lint, twoCell, prove         bool
}

// errUsage reports a command line the flag set rejected (it has
// already printed the usage).
var errUsage = errors.New("usage")

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("marchsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	var geometry, offsets string
	fs.StringVar(&o.test, "test", "", "run only the named test (default: whole library)")
	fs.StringVar(&o.notation, "notation", "", "march notation for a custom -test")
	fs.StringVar(&o.fault, "fault", "", "single fault primitive to evaluate (default: full catalog)")
	fs.StringVar(&o.float, "float", "Bit line", "mediating floating voltage for a partial -fault")
	fs.IntVar(&o.rows, "rows", 4, "array rows")
	fs.IntVar(&o.cols, "cols", 2, "array columns (cells per row; same column = same bit line)")
	fs.StringVar(&geometry, "geometry", "", "array geometry as ROWSxCOLS (e.g. 1024x1024); overrides -rows/-cols")
	fs.BoolVar(&o.lint, "lint", false, "lint the tests and print the detection prover's findings before simulating")
	fs.BoolVar(&o.twoCell, "twocell", false, "emit the two-cell coverage certificate (static cannot-fire column checked against the exhaustive coupling-fault simulation) instead of the single-cell matrix")
	fs.StringVar(&offsets, "offsets", "", "with -twocell: comma-separated aggressor offsets δ (aggressor = victim + δ), e.g. 1,-1,64,-64; empty = all ordered pairs")
	fs.BoolVar(&o.prove, "prove", false, "emit the static three-valued detection matrix (proved Detects/Misses verdicts over all geometries and orders) instead of simulating")
	if err := fs.Parse(args); err != nil {
		return nil, errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "marchsim: unexpected argument %q (every flag must come before it)\n", fs.Arg(0))
		fs.Usage()
		return nil, errUsage
	}
	if geometry != "" {
		r, c, err := parseGeometry(geometry)
		if err != nil {
			return nil, fmt.Errorf("bad -geometry: %v", err)
		}
		o.rows, o.cols = r, c
	}
	var err error
	if o.offsets, err = parseOffsets(offsets); err != nil {
		return nil, fmt.Errorf("bad -offsets: %v", err)
	}
	if o.offsets != nil && !o.twoCell {
		return nil, fmt.Errorf("-offsets only applies with -twocell")
	}
	return o, nil
}

// twoCellRequest is the service request of a -twocell run over the
// named library test.
func (o *options) twoCellRequest(test string) *request.TwoCell {
	return &request.TwoCell{Test: test, Rows: o.rows, Cols: o.cols, Offsets: o.offsets}
}

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "marchsim: "+format+"\n", a...)
		return 1
	}
	o, err := parseFlags(args, stderr)
	if err == errUsage {
		return 2
	}
	if err != nil {
		return fail("%v", err)
	}
	tests := march.All()
	if o.test != "" {
		if o.notation != "" {
			t, err := march.Parse(o.test, o.notation)
			if err != nil {
				return fail("bad -notation: %v", err)
			}
			tests = []march.Test{t}
		} else if tests, err = request.Tests([]string{o.test}); err != nil {
			return fail("%v (and no -notation given)", err)
		}
	}

	catalog := append(march.ClassicalFaultCatalog(), march.PaperFaultCatalog()...)
	if o.fault != "" {
		p, err := fp.Parse(o.fault)
		if err != nil {
			return fail("bad -fault: %v", err)
		}
		catalog = []march.CatalogEntry{{
			Name: p.String(), FP: p,
			Float:   defect.FloatVar(o.float),
			Partial: p.IsCompleted(),
		}}
	}

	for _, t := range tests {
		fmt.Fprintf(stdout, "%-9s (%2dN): %s\n", t.Name, t.Length(), t)
	}
	fmt.Fprintln(stdout)

	if o.lint {
		findings := march.LintAll(tests)
		findings = append(findings, march.DetectionPrePass(tests, catalog, march.TwoCellCatalog())...)
		findings.Sort()
		if err := report.WriteFindings(stdout, findings, lint.Info); err != nil {
			return fail("lint: %v", err)
		}
		fmt.Fprintln(stdout)
		if findings.Count(lint.Error) > 0 {
			return fail("lint: the selected tests are statically broken; not simulating")
		}
	}

	if o.prove {
		// With a custom -fault the matrix brackets just that primitive;
		// otherwise it covers the full single- and two-cell catalogs.
		twos := march.TwoCellCatalog()
		if o.fault != "" {
			twos = nil
		}
		m := march.BuildDetectionMatrix(tests, catalog, twos)
		if err := report.WriteDetectionMatrix(stdout, m); err != nil {
			return fail("report: %v", err)
		}
		return 0
	}

	// Custom tests, -fault and the combined catalogs have no request
	// kind; they call the library on the engine the requests run on.
	eng := bitsim.New()
	if o.twoCell {
		env, err := request.NewEnv(nil, nil, 0)
		if err != nil {
			return fail("%v", err)
		}
		unsound := false
		for _, t := range tests {
			var cert march.TwoCellCertificate
			if o.notation != "" {
				// A custom test is not in the library the requests name.
				cert, err = march.TwoCellCertificateOffsetsWith(eng, t, march.TwoCellCatalog(), o.rows, o.cols, o.offsets)
			} else {
				cert, err = request.Do[march.TwoCellCertificate](context.Background(), env, o.twoCellRequest(t.Name))
			}
			if err != nil {
				return fail("twocell: %v", err)
			}
			if err := report.WriteTwoCellCoverage(stdout, cert); err != nil {
				return fail("report: %v", err)
			}
			fmt.Fprintln(stdout)
			if len(cert.Violations()) > 0 {
				unsound = true
			}
		}
		if unsound {
			return fail("twocell: at least one certificate is unsound")
		}
		return 0
	}

	results, err := march.CoverageMatrixWith(eng, tests, catalog, o.rows, o.cols)
	if err != nil {
		return fail("coverage: %v", err)
	}
	names := make([]string, len(tests))
	for i, t := range tests {
		names[i] = t.Name
	}
	if err := report.WriteCoverage(stdout, results, names); err != nil {
		return fail("report: %v", err)
	}
	return 0
}

// parseGeometry parses strict ROWSxCOLS. Exactly one "x" is allowed:
// "1024x1024x2" (a 3-D geometry the array model has no notion of) is an
// error, not a silent truncation.
func parseGeometry(s string) (rows, cols int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want ROWSxCOLS (exactly one 'x'), got %q", s)
	}
	rows, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad rows in %q: %v", s, err)
	}
	cols, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("bad columns in %q: %v", s, err)
	}
	if rows <= 0 || cols <= 0 {
		return 0, 0, fmt.Errorf("geometry %q must be positive", s)
	}
	return rows, cols, nil
}

// parseOffsets parses a comma-separated aggressor-offset list. Empty
// input means nil (full pair space); zero and duplicate offsets are
// rejected here so the error names the flag rather than surfacing from
// deep inside the walk.
func parseOffsets(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad offset %q: %v", f, err)
		}
		out = append(out, d)
	}
	return out, request.CheckOffsets(out)
}
