package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef names a metric and its unit as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported for every
// workload from the untraced repetitions. An operation is one
// repetition of a batch workload and one request of serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s"}, // median child start-to-ready time
	{"op_ms", "ms"},  // median operation latency, batch repetitions scaled by their probe (see probe.go)
	{"rss_mb", "MB"}, // median peak RSS of a child
}

// perLayer are the per-layer metrics of the traced repetitions. A layer
// a workload never enters reads 0. Times inside layers are given as
// rates and shares of the repetition's wall time, so that those zeros
// are never a time. The first four come from the run's untraced
// repetitions instead: unscaled end-to-end numbers, whose run-to-run
// spread on a shared host is too wide to bound, and the probe.
var perLayer = []metricDef{
	{"p50_ms", "ms"},   // median operation latency, unscaled
	{"tail_ms", "ms"},  // highest of p99/p90 with ten samples beyond it, else the median
	{"cpu_ms", "ms"},   // median user+sys CPU per operation
	{"probe_ms", "ms"}, // median probe time, the host's speed
	{"behav.ops", "count"},
	{"behav.op_rate", "1/s"},
	{"behav.busy_frac", "frac"},
	{"spice.ops", "count"},
	{"spice.op_rate", "1/s"},
	{"spice.busy_frac", "frac"},
	{"spice.builds", "count"},
	{"spice.build_rate", "1/s"},
	{"analysis.replay.snapshots", "count"},
	{"analysis.replay.snapshot_rate", "1/s"},
	{"analysis.replay.restores", "count"},
	{"analysis.replay.restore_rate", "1/s"},
	{"analysis.ops_per_point", "count"},
	{"analysis.parallel_eff", "frac"},
	{"analysis.self_frac", "frac"},
	{"bitsim.calls", "count"},
	{"bitsim.call_rate", "1/s"},
	{"bitsim.busy_frac", "frac"},
	{"bitsim.cells_per_s", "1/s"},
	{"bitsim.twocell_calls", "count"},
	{"bitsim.twocell_rate", "1/s"},
	{"bitsim.unsupported", "count"},
	{"march.self_frac", "frac"},
	{"memsim.calls", "count"},
	{"memsim.call_rate", "1/s"},
	{"stress.self_frac", "frac"},
	{"service.store_hits", "count"},
	{"service.store_misses", "count"},
	{"service.store_puts", "count"},
	{"service.collapsed", "count"},
	{"store.bytes", "B"},
	{"store.journal_bytes", "B"},
	{"report.encode_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_frac", "frac"},
}

// layerMetrics derives the per-layer metrics of one traced batch
// repetition from its spans (spans[0] is the repetition's root).
func layerMetrics(spans []span, job batchJob, unsupported int64) map[string]float64 {
	type agg struct{ n, ns, cells int64 }
	by := map[string]*agg{}
	for _, s := range spans[1:] {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.ns += s.End - s.Start
		a.cells += s.Cells
	}
	// sum totals the spans whose name is, or starts with, one of keys
	// ending in ".".
	sum := func(keys ...string) (n, ns, cells int64) {
		for name, a := range by {
			for _, k := range keys {
				if name == k || strings.HasSuffix(k, ".") && strings.HasPrefix(name, k) {
					n, ns, cells = n+a.n, ns+a.ns, cells+a.cells
					break
				}
			}
		}
		return n, ns, cells
	}
	rate := func(n, ns int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(n) / (float64(ns) / 1e9)
	}
	wall := spans[0].End
	frac := func(ns int64) float64 { return float64(ns) / float64(wall) }

	m := map[string]float64{}
	var ops int64
	for _, l := range []string{"behav", "spice"} {
		n, ns, _ := sum(l+".write", l+".read", l+".idle")
		_, busy, _ := sum(l + ".")
		ops += n
		m[l+".ops"], m[l+".op_rate"], m[l+".busy_frac"] = float64(n), rate(n, ns), frac(busy)
	}
	n, ns, _ := sum("spice.build")
	m["spice.builds"], m["spice.build_rate"] = float64(n), rate(n, ns)
	n, ns, _ = sum("replay.snapshot")
	m["analysis.replay.snapshots"], m["analysis.replay.snapshot_rate"] = float64(n), rate(n, ns)
	n, ns, _ = sum("replay.restore")
	m["analysis.replay.restores"], m["analysis.replay.restore_rate"] = float64(n), rate(n, ns)
	if job.points > 0 {
		m["analysis.ops_per_point"] = float64(ops) / float64(job.points)
	}
	_, elec, _ := sum("behav.", "spice.", "replay.")
	m["analysis.parallel_eff"] = frac(elec) / parallelism

	n, ns, cells := sum("bitsim.detects")
	m["bitsim.calls"], m["bitsim.call_rate"], m["bitsim.cells_per_s"] = float64(n), rate(n, ns), rate(cells, ns)
	n, ns2, _ := sum("bitsim.twocell")
	m["bitsim.twocell_calls"], m["bitsim.twocell_rate"] = float64(n), rate(n, ns2)
	m["bitsim.busy_frac"] = frac(ns + ns2)
	m["bitsim.unsupported"] = float64(unsupported)
	n, ns, _ = sum("memsim.")
	m["memsim.calls"], m["memsim.call_rate"] = float64(n), rate(n, ns)

	for _, l := range []string{"analysis", "march", "stress"} {
		m[l+".self_frac"] = 0
	}
	m[job.self+".self_frac"] = frac(wall - union(spans[1:]))
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the highest of the 99th and 90th percentiles that has at
// least ten samples beyond it, or the median when neither has.
func tail(xs []float64) float64 {
	for _, q := range []float64{0.99, 0.9} {
		if float64(len(xs))*(1-q) >= 10-1e-9 {
			return quantile(xs, q)
		}
	}
	return median(xs)
}
