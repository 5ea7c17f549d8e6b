// Command benchmark measures the partial-fault analysis system end to
// end on five workloads and attributes the time to layers from outside
// the library. From the repository root:
//
//	bash benchmark/run.sh --workload table1-behav --seed 1 --seconds 20 --trace 0
//
// Every repetition runs in a fresh child process of this binary, so a
// process-global cache cannot make later repetitions free, peak RSS and
// CPU are the child's own, and work moved into package initialization
// shows up in setup_s. With --trace 1, traced repetitions alternate with
// untraced ones and the per-layer metrics replace the end-to-end ones.
//
// Each output line before the last reads "workload metric value unit".
// The last line is a JSON object with the keys correct, attempted,
// failed and metrics. Every output is checked (batch outputs against
// golden.json); the exit code is 1 when a check fails.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// golden holds the SHA-256 of each batch workload's canonical output,
// by size and workload.
//
//go:embed golden.json
var golden []byte

const (
	// setupSamples is how many set-up-only children a serve-mixed run
	// starts, half before its stream and half after. Consecutive ones are
	// a hundredth of the run apart (see sampleSetups).
	setupSamples = 20
	// childTimeout bounds one child process.
	childTimeout = 150 * time.Second
)

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// config is one run of one workload.
type config struct {
	workload workload
	size     string
	seed     int64
	seconds  float64
	traced   bool
	spans    string
}

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the serve-mixed request stream")
	seconds := fs.Float64("seconds", 20, "how long to measure, in seconds")
	traceMode := fs.Int("trace", 0, "1: alternate traced and untraced repetitions and report the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write the traced repetitions' spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*traceMode != 0 && *traceMode != 1 || !(*seconds > 0)) {
		err = errors.New("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	runtime.GOMAXPROCS(parallelism)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{workload: w, size: sizeFull, seed: *seed, seconds: *seconds, traced: *traceMode == 1, spans: *spans}
	sum, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, sum.spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if err := sum.write(stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if sum.failed > 0 {
		return 1
	}
	return 0
}

// summary is the outcome of one run.
type summary struct {
	attempted, failed int
	endToEnd, layers  map[string]float64
	extra             map[string]float64
	spans             []span
}

// measure runs cfg: repetitions until cfg.seconds have passed
// (serve-mixed: one timed stream of cfg.seconds, or two halves, untraced
// and traced, with --trace 1), and set-up samples spread over the run.
func measure(ctx context.Context, cfg config) (*summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base := childSpec{Workload: cfg.workload.name, Size: cfg.size, Seed: cfg.seed}
	extra := map[string]float64{}
	var reps []repResult
	var setups []float64
	if cfg.workload.batch == nil {
		dir, err := os.MkdirTemp("", "benchmark-serve-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		reps, setups, err = runServe(ctx, cfg, exe, base, dir, extra)
		if err != nil {
			return nil, err
		}
	} else {
		reps, setups, err = runBatch(ctx, cfg, exe, base)
		if err != nil {
			return nil, err
		}
	}
	return summarize(reps, setups, extra), nil
}

// sampleSetups starts n set-up-only children, gap apart, and returns
// their set-up times.
//
// The serve-mixed boot is a few milliseconds of single-threaded work. On
// a shared host each CPU switches between two speeds, work taking half
// as long again in the slow one, and stays in one for a few hundred
// milliseconds. Children started back to back mostly land in the same
// state, so the median of a burst of them jumped between the two speeds
// from run to run. Spaced out, they sample both states in proportion to
// their share of the time.
func sampleSetups(ctx context.Context, exe string, base childSpec, n int, gap time.Duration) ([]float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(gap):
			}
		}
		spec := base
		spec.SetupOnly = true
		_, setup, err := spawn(ctx, exe, spec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	return setups, nil
}

// runBatch starts repetitions until cfg.seconds have passed. It returns
// them with their set-up times: every repetition child builds its inputs
// before its ready line, so each one is a set-up sample, and the samples
// spread over the whole run.
func runBatch(ctx context.Context, cfg config, exe string, base childSpec) ([]repResult, []float64, error) {
	var digests map[string]map[string]string
	if err := json.Unmarshal(golden, &digests); err != nil {
		return nil, nil, fmt.Errorf("golden.json: %w", err)
	}
	want, ok := digests[cfg.size][cfg.workload.name]
	if !ok {
		return nil, nil, fmt.Errorf("golden.json has no %s digest for %s", cfg.size, cfg.workload.name)
	}
	var reps []repResult
	var setups []float64
	start := time.Now()
	for rep := 0; ; rep++ {
		spec := base
		spec.Rep = rep
		spec.Traced = cfg.traced && rep%2 == 1
		spec.Spans = spec.Traced && cfg.spans != ""
		p, err := runProbe(ctx, exe)
		if err != nil {
			return nil, nil, err
		}
		res, setup, err := spawn(ctx, exe, spec)
		if err != nil {
			return nil, nil, err
		}
		res.probe = p
		setups = append(setups, setup)
		if res.Digest != want {
			res.Failed = 1
			fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d output digest %s, golden %s\n", cfg.workload.name, rep, res.Digest, want)
		}
		res.traced = spec.Traced
		reps = append(reps, res)
		if time.Since(start).Seconds() >= cfg.seconds && (!cfg.traced || rep >= 1) {
			return reps, setups, nil
		}
	}
}

// runServe prefills a store in dir and runs the timed stream against
// server children, each over its own copy of the prefilled store. It
// samples set-up time over the prefilled store before and after the
// stream.
func runServe(ctx context.Context, cfg config, exe string, base childSpec, dir string, extra map[string]float64) ([]repResult, []float64, error) {
	prefilled := filepath.Join(dir, "prefilled")
	hot := hotSet(cfg.size)
	start := time.Now()
	if err := prefill(prefilled, hot); err != nil {
		return nil, nil, err
	}
	extra["service.prefill_s"] = time.Since(start).Seconds()
	base.Dir = prefilled
	gap := time.Duration(cfg.seconds / 100 * float64(time.Second))
	setups, err := sampleSetups(ctx, exe, base, setupSamples/2, gap)
	if err != nil {
		return nil, nil, err
	}
	phases, seconds := []bool{false}, cfg.seconds
	if cfg.traced {
		phases, seconds = []bool{false, true}, cfg.seconds/2
	}
	var reps []repResult
	for i, traced := range phases {
		spec := base
		spec.Rep = i
		spec.Dir = filepath.Join(dir, fmt.Sprintf("phase%d", i))
		if err := copyDir(prefilled, spec.Dir); err != nil {
			return nil, nil, err
		}
		var tr *tracer
		if traced {
			tr = newTracer(fmt.Sprintf("%s/phase%d", cfg.workload.name, i))
		}
		res, err := servePhase(ctx, exe, spec, seconds, hot, tr)
		if err != nil {
			return nil, nil, err
		}
		res.traced = traced
		if tr != nil && cfg.spans != "" {
			res.Spans = tr.finish(time.Now())
		}
		reps = append(reps, res)
	}
	after, err := sampleSetups(ctx, exe, base, setupSamples-setupSamples/2, gap)
	if err != nil {
		return nil, nil, err
	}
	return reps, append(setups, after...), nil
}

// child is a running child process that has printed its ready line.
type child struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	stdin  io.Closer
	stdout *bufio.Reader
	// setup is the time from just before the process started to its
	// ready line; info is what followed the ready word on that line.
	setup float64
	info  string
}

// startChild starts a child for spec and waits for its ready line.
func startChild(ctx context.Context, exe string, spec childSpec) (*child, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js), fmt.Sprintf("GOMAXPROCS=%d", parallelism))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	c := &child{cmd: cmd, cancel: cancel, stdin: stdin, stdout: bufio.NewReader(stdout)}
	line, _ := c.stdout.ReadString('\n')
	c.setup = time.Since(start).Seconds()
	word, info, _ := strings.Cut(strings.TrimSpace(line), " ")
	if word != readyLine {
		_, err := c.finish()
		return nil, fmt.Errorf("%s child: got %q before its ready line (%v)", spec.Workload, line, err)
	}
	c.info = info
	return c, nil
}

// finish closes the child's standard input (a server child then stops
// serving), reads its result and waits for it to exit.
func (c *child) finish() (repResult, error) {
	defer c.cancel()
	c.stdin.Close()
	rest, rerr := io.ReadAll(c.stdout)
	if err := c.cmd.Wait(); err != nil {
		return repResult{}, fmt.Errorf("child: %w", err)
	}
	if rerr != nil {
		return repResult{}, rerr
	}
	var res repResult
	if err := json.Unmarshal(rest, &res); err != nil {
		return repResult{}, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}

// spawn runs one child to completion and returns its result and
// set-up time.
func spawn(ctx context.Context, exe string, spec childSpec) (repResult, float64, error) {
	c, err := startChild(ctx, exe, spec)
	if err != nil {
		return repResult{}, 0, err
	}
	res, err := c.finish()
	if err != nil {
		return repResult{}, 0, fmt.Errorf("%s %w", spec.Workload, err)
	}
	return res, c.setup, nil
}

// normalized scales the latencies of r to the reference probe time:
// each is multiplied by (probeRefMS / probe)^probeExp. serve-mixed has
// no probe and keeps its latencies: a hit costs loopback HTTP and a
// store read, which do not slow with the host the way computation does.
// Scaled by probes run before and after the stream, the median's spread
// over ten runs grew from 0.04 to 0.23.
func (r repResult) normalized() []float64 {
	if r.probe == 0 {
		return r.Latencies
	}
	f := math.Pow(probeRefMS/r.probe, probeExp)
	out := make([]float64, len(r.Latencies))
	for i, l := range r.Latencies {
		out[i] = l * f
	}
	return out
}

// summarize turns the children's reports into the run's metrics: the
// end-to-end ones from untraced repetitions, the per-layer ones as the
// median over traced repetitions.
func summarize(reps []repResult, setups []float64, extra map[string]float64) *summary {
	s := &summary{endToEnd: map[string]float64{}, layers: map[string]float64{}, extra: extra}
	var lat, norm, probes, cpu, rss []float64
	var traced []repResult
	for _, r := range reps {
		s.attempted += r.Attempted
		s.failed += r.Failed
		if r.traced {
			traced = append(traced, r)
			s.spans = append(s.spans, r.Spans...)
			continue
		}
		lat = append(lat, r.Latencies...)
		norm = append(norm, r.normalized()...)
		if r.probe > 0 {
			probes = append(probes, r.probe)
		}
		cpu = append(cpu, r.CPUS/float64(r.Attempted))
		rss = append(rss, r.RSSMB)
		for k, v := range r.Extra {
			extra[k] = v
		}
	}
	s.endToEnd["setup_s"] = median(setups)
	s.endToEnd["op_ms"] = median(norm)
	s.endToEnd["rss_mb"] = median(rss)
	extra["reps"] = float64(len(reps))
	extra["samples"] = float64(len(lat))
	extra["setup_samples"] = float64(len(setups))
	extra["fail_frac"] = float64(s.failed) / float64(s.attempted)

	for _, d := range perLayer {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.Layers[d.name])
		}
		if len(xs) > 0 {
			s.layers[d.name] = median(xs)
		}
	}
	s.layers["p50_ms"] = median(lat)
	s.layers["tail_ms"] = tail(lat)
	s.layers["cpu_ms"] = median(cpu) * 1000
	s.layers["probe_ms"] = median(probes)
	// Each traced repetition follows an untraced one; comparing the two
	// of a pair, each scaled by its probe, cancels most of the host's
	// drift.
	var ratios []float64
	for i := 1; i < len(reps); i++ {
		if reps[i].traced && !reps[i-1].traced {
			ratios = append(ratios, median(reps[i].normalized())/median(reps[i-1].normalized()))
		}
	}
	if len(ratios) > 0 {
		s.layers["trace.overhead_frac"] = median(ratios) - 1
	}
	return s
}

// write prints every metric measured as a text line, then the JSON
// result line with the declared metrics of the run's mode.
func (s *summary) write(w io.Writer, cfg config) error {
	name := cfg.workload.name
	line := func(metric string, v float64, unit string) {
		fmt.Fprintf(w, "%s %s %s %s\n", name, metric, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	for _, d := range endToEnd {
		line(d.name, s.endToEnd[d.name], d.unit)
	}
	keys := make([]string, 0, len(s.extra))
	for k := range s.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line(k, s.extra[k], extraUnit(k))
	}
	for _, d := range perLayer {
		if v, ok := s.layers[d.name]; ok {
			line(d.name, v, d.unit)
		}
	}
	declared, values := endToEnd, s.endToEnd
	if cfg.traced {
		declared, values = perLayer, s.layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{s.failed == 0, s.attempted, s.failed, map[string]metric{}}
	for _, d := range declared {
		out.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// extraUnit infers the unit of an undeclared metric from its name.
func extraUnit(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	}
	return "count"
}

func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
