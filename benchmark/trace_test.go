package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/march"
)

// bareMemory implements analysis.Memory and none of its extensions.
type bareMemory struct{}

func (bareMemory) Write(cell, bit int) error         { return nil }
func (bareMemory) Read(cell int) (int, error)        { return 0, nil }
func (bareMemory) Idle() error                       { return nil }
func (bareMemory) ForceVictim(bit int)               {}
func (bareMemory) SetFloat(nets []string, u float64) {}
func (bareMemory) VictimBit() int                    { return 0 }

type extensions struct{ snapshotter, releaser, prober bool }

func extensionsOf(m analysis.Memory) extensions {
	_, s := m.(analysis.Snapshotter)
	_, r := m.(analysis.Releaser)
	_, v := m.(analysis.VoltageProber)
	return extensions{s, r, v}
}

// TestWrappedMemoryKeepsExtensions checks that a traced memory
// implements exactly the optional interfaces of the memory it wraps, and
// that its calls are recorded.
func TestWrappedMemoryKeepsExtensions(t *testing.T) {
	open := opensByID(4)[0]
	for _, c := range []struct {
		name    string
		factory analysis.Factory
		want    extensions
	}{
		{"behav", behav.NewFactory(behav.DefaultParams()), extensions{snapshotter: true}},
		{"spice", analysis.NewPooledSpiceFactory(dram.Default()), extensions{true, true, true}},
		{"bare", func(defect.Open, float64) (analysis.Memory, error) { return bareMemory{}, nil }, extensions{}},
	} {
		inner, err := c.factory(open, 1e5)
		if err != nil {
			t.Fatal(err)
		}
		if got := extensionsOf(inner); got != c.want {
			t.Fatalf("%s: inner memory has %+v, test expects %+v", c.name, got, c.want)
		}
		tr := newTracer("test")
		wrapped := tr.factory(c.name, c.factory)
		m, err := wrapped(open, 1e5)
		if err != nil {
			t.Fatal(err)
		}
		if got := extensionsOf(m); got != c.want {
			t.Errorf("%s: wrapped memory has %+v, inner %+v", c.name, got, c.want)
		}
		if r, ok := m.(analysis.Releaser); ok {
			r.Release()
		}
		if _, err := analysis.RunSOS(wrapped, open, 1e5, open.Floats[0].Nets, 1.0, fp.NewSOS(fp.Init0, fp.W(1), fp.R(1))); err != nil {
			t.Fatal(err)
		}
		names := map[string]int{}
		for _, s := range tr.finish(tr.t0)[1:] {
			names[s.Name]++
		}
		if names[c.name+".build"] != 2 || names[c.name+".write"] != 1 || names[c.name+".read"] != 1 {
			t.Errorf("%s: recorded spans %v", c.name, names)
		}
	}
}

// offsetless is a march engine without the two-cell offset extension.
type offsetless struct{ march.ScalarEngine }

func (offsetless) DetectsTwoCellOffsets() {} // a different signature: not a TwoCellOffsetEngine

// TestWrappedEngineKeepsOffsets checks that a traced engine is a
// TwoCellOffsetEngine exactly when the wrapped engine is, and keeps its
// name.
func TestWrappedEngineKeepsOffsets(t *testing.T) {
	tr := newTracer("test")
	for _, c := range []struct {
		eng  march.Engine
		want bool
	}{{bitsim.New(), true}, {march.ScalarEngine{}, true}, {offsetless{}, false}} {
		_, inner := c.eng.(march.TwoCellOffsetEngine)
		w := tr.engine(c.eng)
		_, got := w.(march.TwoCellOffsetEngine)
		if inner != c.want || got != c.want || w.Name() != c.eng.Name() {
			t.Errorf("%s: offsets inner=%v wrapped=%v name %q", c.eng.Name(), inner, got, w.Name())
		}
	}
	if (*tracer)(nil).engine(march.ScalarEngine{}) != (march.ScalarEngine{}) {
		t.Error("a nil tracer must return the engine itself")
	}
}

// TestUnion checks the interval union behind the self-time metrics.
func TestUnion(t *testing.T) {
	spans := []span{{Start: 5, End: 10}, {Start: 0, End: 3}, {Start: 8, End: 12}, {Start: 12, End: 13}, {Start: 1, End: 2}}
	if got := union(spans); got != 11 {
		t.Errorf("union = %d, want 11", got)
	}
	if union(nil) != 0 {
		t.Error("union of nothing must be 0")
	}
}

// TestQuantiles checks the summary statistics.
func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if median(xs) != 2.5 || quantile(xs, 1) != 4 || quantile(nil, 0.5) != 0 {
		t.Errorf("median %v, max %v", median(xs), quantile(xs, 1))
	}
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if got := tail(many); got < 989 || got > 991 {
		t.Errorf("tail of 1000 = %v, want the 99th percentile", got)
	}
	if got := tail(many[:100]); got < 89 || got > 91 {
		t.Errorf("tail of 100 = %v, want the 90th percentile", got)
	}
	if tail(xs) != median(xs) {
		t.Error("tail of 4 samples must be the median")
	}
}

// banned are library names the benchmark must not use: mechanisms a
// later change may remove (the outcome memo, the replay cache, sweep
// selection, traced-sweep counters, the completion pre-passes, progress
// callbacks). The benchmark reaches the layers only through surfaces
// those changes keep.
var banned = map[string]bool{
	"Memo": true, "NewMemo": true, "MemoStats": true,
	"ReplayCache": true, "NewReplayCache": true,
	"SweepMode": true, "ParseSweepMode": true, "Sweep": true, "RunSweep": true,
	"TraceStride": true, "TraceCounters": true,
	"Progress": true,
}

// TestAPIGuard fails if the benchmark's source names a banned library
// identifier.
func TestAPIGuard(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, f, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (banned[id.Name] || strings.HasPrefix(id.Name, "CannotComplete")) {
				t.Errorf("%s: uses %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}
