package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current library")

// TestMain lets the test binary serve as the benchmark's child process,
// so the smoke test exercises the real parent/child protocol.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

// digest runs one untraced repetition in-process and hashes its output.
func digest(t *testing.T, w workload, size string, tr *tracer) string {
	t.Helper()
	job, err := w.batch(size)
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.run(tr)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(job.view(out))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGolden rewrites golden.json with -update (a few seconds at full
// size); otherwise it checks the small-size digests.
func TestGolden(t *testing.T) {
	sizes := []string{sizeSmall}
	if *update {
		sizes = append(sizes, sizeFull)
	}
	got := map[string]map[string]string{}
	for _, size := range sizes {
		got[size] = map[string]string{}
		for _, w := range workloads {
			if w.batch != nil {
				got[size][w.name] = digest(t, w, size, nil)
			}
		}
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got[sizeSmall] {
		if want[sizeSmall][name] != d {
			t.Errorf("%s: small-size digest %s, golden %s", name, d, want[sizeSmall][name])
		}
	}
}

// TestTracedOutputsIdentical checks that the decorators change no
// output: traced and untraced repetitions hash the same.
func TestTracedOutputsIdentical(t *testing.T) {
	for _, w := range workloads {
		if w.batch == nil {
			continue
		}
		if a, b := digest(t, w, sizeSmall, nil), digest(t, w, sizeSmall, newTracer("test")); a != b {
			t.Errorf("%s: untraced digest %s, traced %s", w.name, a, b)
		}
	}
}

type declared struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers []declared, names map[string]bool) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	names = map[string]bool{}
	for _, w := range b.Workloads {
		names[w.Name] = true
	}
	return b.EndToEnd, b.PerLayer, names
}

// TestDeclarations checks that BENCHMARK.json declares exactly the
// workloads and metrics the program reports, with the same units.
func TestDeclarations(t *testing.T) {
	e2e, layers, names := benchmarkJSON(t)
	for _, w := range workloads {
		if !names[w.name] {
			t.Errorf("workload %s is not declared", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("%d workloads declared, %d run", len(names), len(workloads))
	}
	check := func(kind string, got []metricDef, want []declared) {
		if len(got) != len(want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s %s, BENCHMARK.json %s %s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layers)
}

// TestSmoke runs every workload at the small size through the real
// parent/child protocol, untraced and traced, and checks the printed
// result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	e2e, layers, _ := benchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, size: sizeSmall, seed: 7, seconds: 0.01, traced: traced}
			if w.batch == nil {
				cfg.seconds = 1
			}
			sum, err := measure(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := sum.write(&out, cfg); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			var gotNames, wantNames []string
			for name, m := range res.Metrics {
				gotNames = append(gotNames, name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || !traced && m.Value <= 0 {
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
			}
			for _, d := range want {
				wantNames = append(wantNames, d.Name)
			}
			sort.Strings(gotNames)
			sort.Strings(wantNames)
			if strings.Join(gotNames, " ") != strings.Join(wantNames, " ") {
				t.Errorf("%s traced=%v: metrics %v, declared %v", w.name, traced, gotNames, wantNames)
			}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) != 4 || f[0] != w.name {
					t.Errorf("%s: malformed line %q", w.name, l)
				}
			}
		}
	}
}
