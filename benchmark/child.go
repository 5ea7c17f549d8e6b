package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// childEnv carries a childSpec, as JSON, from the parent to a child
// process of the same binary.
const childEnv = "BENCHMARK_CHILD"

// readyLine starts the line a child prints once its set-up is done and
// the timed phase starts; a server child appends its URL.
const readyLine = "ready"

// childSpec tells a child process what to run.
type childSpec struct {
	Workload string `json:"workload"`
	Size     string `json:"size"`
	Seed     int64  `json:"seed"`
	Rep      int    `json:"rep"`
	Traced   bool   `json:"traced"`
	// SetupOnly serve-mixed children exit once ready: they sample the
	// server's set-up time.
	SetupOnly bool `json:"setup_only"`
	// Spans asks a traced child to return its spans.
	Spans bool `json:"spans"`
	// Dir is a serve-mixed server's store directory.
	Dir string `json:"dir,omitempty"`
}

// repResult is what a child reports about its repetition.
type repResult struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	RSSMB     float64 `json:"rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	GCCycles  float64 `json:"gc_cycles"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Digest is the SHA-256 of a batch repetition's canonical output.
	Digest string `json:"digest,omitempty"`
	// Latencies are the operation latencies in ms: the repetition's wall
	// time for a batch workload, one per request for serve-mixed.
	Latencies []float64          `json:"latencies_ms"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	// Extra holds serve-mixed numbers printed but not declared.
	Extra map[string]float64 `json:"extra,omitempty"`
	Spans []span             `json:"spans,omitempty"`

	// Set by the parent: whether the repetition was traced, and for a
	// batch repetition the time in ms of the probe run just before it
	// (0 for serve-mixed).
	traced bool
	probe  float64
}

// childMain runs the repetition specJSON describes and writes the ready
// line and then the result to stdout.
func childMain(specJSON string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: bad spec: %v\n", err)
		return 2
	}
	ready := func(info string) { fmt.Fprintln(stdout, strings.TrimSpace(readyLine+" "+info)) }
	var res repResult
	var err error
	switch spec.Workload {
	case probeWorkload:
		res = probeChild(ready)
	case serveWorkload:
		res, err = serveChild(spec, ready)
	default:
		res, err = batchChild(spec, ready)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s: %v\n", spec.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s: %v\n", spec.Workload, err)
		return 1
	}
	return 0
}

// batchChild builds the workload's inputs, signals ready, runs one
// repetition and encodes its output outside the timed phase.
func batchChild(spec childSpec, ready func(string)) (repResult, error) {
	w, err := lookupWorkload(spec.Workload)
	if err != nil {
		return repResult{}, err
	}
	job, err := w.batch(spec.Size)
	if err != nil {
		return repResult{}, err
	}
	ready("")
	var tr *tracer
	if spec.Traced {
		tr = newTracer(fmt.Sprintf("%s/rep%d", spec.Workload, spec.Rep))
	}
	m := startMeter()
	out, err := job.run(tr)
	end := time.Now()
	res := m.stop()
	if err != nil {
		return repResult{}, err
	}
	start := time.Now()
	buf, err := json.Marshal(job.view(out))
	encode := msBetween(start, time.Now())
	if err != nil {
		return repResult{}, err
	}
	digest := sha256.Sum256(buf)
	res.Digest = hex.EncodeToString(digest[:])
	res.Attempted = 1
	res.Latencies = []float64{res.WallS * 1000}
	if tr != nil {
		spans := tr.finish(end)
		res.Layers = layerMetrics(spans, job, tr.unsupported.Load())
		if spec.Spans {
			res.Spans = spans
		}
	} else {
		res.Layers = map[string]float64{}
	}
	res.Layers["report.encode_ms"] = encode
	res.Layers["go.alloc_mb"] = res.AllocMB
	res.Layers["go.gc_cycles"] = res.GCCycles
	return res, nil
}

// meter measures the timed phase of a repetition.
type meter struct {
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0, _ = readUsage()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() repResult {
	wall := time.Since(m.t0)
	cpu, rss := readUsage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return repResult{
		WallS:    wall.Seconds(),
		CPUS:     cpu - m.cpu0,
		RSSMB:    rss,
		AllocMB:  float64(ms.TotalAlloc-m.ms0.TotalAlloc) / (1 << 20),
		GCCycles: float64(ms.NumGC - m.ms0.NumGC),
	}
}
