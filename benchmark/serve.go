package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/bitsim"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/service"
)

// The serve-mixed stream: open-loop Poisson arrivals (independent users
// do not wait for each other) at a fixed rate, sent over at most
// `parallelism` connections. Nine requests in ten repeat a prefilled hot
// set; the rest are fresh keys the store has never seen.
const (
	serveWorkload = "serve-mixed"
	serveRate     = 80.0 // requests per second
	freshEvery    = 10   // one request in freshEvery is a fresh key
	sloMillis     = 500.0
	checkFresh    = 24               // fresh responses recomputed through the library
	journalFile   = "outcomes.jsonl" // the service's outcome journal in its store directory
)

// request is one request of the stream. Fresh requests keep the
// parameters they were generated from so the response can be
// recomputed directly through the library.
type request struct {
	Kind, Body string
	Due        time.Duration
	Hot        int // index into the hot set; -1 for a fresh key
	fresh      freshSpec
}

type freshSpec struct {
	open       int
	rdefs, us  []float64
	catalog    string
	test       string
	rows, cols int
	offsets    []int
}

// hotEntry is one prefilled request and the result payload the
// prefill returned for it.
type hotEntry struct {
	Kind    string          `json:"kind"`
	Body    string          `json:"body"`
	Payload json.RawMessage `json:"payload"`
}

func marshalBody(v map[string]any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers, strings and slices always encode
	}
	return string(buf)
}

// hotSet is the prefilled working set: every request kind, at sizes a
// prefill computes in about a second.
func hotSet(size string) []hotEntry {
	g := 64
	if size == sizeSmall {
		g = 16
	}
	h := []hotEntry{
		{Kind: "inventory", Body: marshalBody(map[string]any{"opens": []int{4}, "rdefs": numeric.Logspace(1e3, 1e7, 5), "us": numeric.Linspace(0, 3.3, 4)})},
		{Kind: "inventory", Body: marshalBody(map[string]any{"opens": []int{5}, "rdefs": numeric.Logspace(1e4, 1e6, 3), "us": numeric.Linspace(0, 3.3, 3)})},
		{Kind: "coverage", Body: marshalBody(map[string]any{"engine": "bitsim", "rows": 2 * g, "cols": 2 * g})},
		{Kind: "coverage", Body: marshalBody(map[string]any{"engine": "bitsim", "catalog": "paper", "rows": g, "cols": g})},
		{Kind: "coverage", Body: marshalBody(map[string]any{"tests": []string{"March PF"}, "catalog": "paper"})},
		{Kind: "twocell", Body: marshalBody(map[string]any{"test": "March SS", "engine": "bitsim", "rows": g, "cols": g, "offsets": []int{1, -1, g, -g}})},
		{Kind: "twocell", Body: marshalBody(map[string]any{"test": "March PF"})},
		{Kind: "matrix", Body: marshalBody(map[string]any{"tests": []string{"March PF"}})},
		{Kind: "predict", Body: marshalBody(map[string]any{"open": 4})},
		{Kind: "predict", Body: marshalBody(map[string]any{"defects": []map[string]any{{"site": "bridge.bl.bl", "ohms": 2e6}}})},
		{Kind: "stress", Body: marshalBody(map[string]any{"opens": []int{4}, "rdefs": []float64{1e4, 1e5, 1e6}, "us": []float64{0, 1.65, 3.3}, "corners": "nominal;hot", "tests": []string{"March PF"}})},
	}
	return h
}

// prefill computes the hot set once through a fresh service over
// storeDir, so that the timed phase finds it in the store.
func prefill(storeDir string, hot []hotEntry) error {
	srv, err := service.New(service.Config{StoreDir: storeDir, Parallelism: parallelism})
	if err != nil {
		return err
	}
	defer srv.Close()
	for i := range hot {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+hot[i].Kind, strings.NewReader(hot[i].Body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("prefill %s %s: status %d: %s", hot[i].Kind, hot[i].Body, rec.Code, rec.Body)
		}
		payload, err := resultOf(rec.Body.Bytes())
		if err != nil {
			return fmt.Errorf("prefill %s: %w", hot[i].Kind, err)
		}
		hot[i].Payload = payload
	}
	return srv.Close()
}

// resultOf extracts the result payload, byte for byte, from a response
// envelope.
func resultOf(body []byte) (json.RawMessage, error) {
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	if env.Result == nil {
		return nil, fmt.Errorf("response has no result")
	}
	return env.Result, nil
}

// schedule draws the request stream for seconds of arrivals from seed.
// Every tenth request is a fresh key, and fresh keys cycle through the
// request kinds (and inventories through the opens), so that seeds vary
// arrival times, order, keys and sizes but not the mix. Fresh keys are
// distinct from each other and from the hot set.
func schedule(seed int64, seconds float64, size string, hot []hotEntry) []request {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for _, h := range hot {
		seen[h.Kind+h.Body] = true
	}
	var out []request
	var t float64
	var deck []int // hot picks are dealt from shuffled decks, so every hot entry comes up equally often
	for n := 0; ; n++ {
		t += rng.ExpFloat64() / serveRate
		if t >= seconds {
			return out
		}
		due := time.Duration(t * float64(time.Second))
		if n%freshEvery != freshEvery-1 {
			if len(deck) == 0 {
				deck = rng.Perm(len(hot))
			}
			i := deck[0]
			deck = deck[1:]
			out = append(out, request{Kind: hot[i].Kind, Body: hot[i].Body, Due: due, Hot: i})
			continue
		}
		for {
			r := freshRequest(rng, size, n/freshEvery)
			if !seen[r.Kind+r.Body] {
				seen[r.Kind+r.Body] = true
				r.Due, r.Hot = due, -1
				out = append(out, r)
				break
			}
		}
	}
}

// freshRequest draws the k-th fresh key. The kinds take turns: a
// single-open inventory on a 4×3 grid (the opens take turns too), a
// bit-plane coverage matrix (alternating catalogs), a bit-plane two-cell
// certificate (the library's tests take turns), and a merge prediction.
// The draw jitters grid ends, geometries and resistances by a few
// percent, which makes the key new but leaves its cost as it was: the
// work of a run does not depend on the seed.
func freshRequest(rng *rand.Rand, size string, k int) request {
	side, nr, nu := 80, 4, 3
	if size == sizeSmall {
		side, nr, nu = 16, 2, 2
	}
	rows, cols := side-4+rng.Intn(9), side-4+rng.Intn(9)
	turn := k / 4
	switch k % 4 {
	case 0:
		opens := defect.SimulatedOpens()
		f := freshSpec{open: opens[turn%len(opens)].ID}
		f.rdefs = numeric.Logspace(1e3*math.Pow(10, 0.1*rng.Float64()), 1e7/math.Pow(10, 0.1*rng.Float64()), nr)
		f.us = numeric.Linspace(0, 3.3-0.1*rng.Float64(), nu)
		return request{Kind: "inventory", fresh: f, Body: marshalBody(map[string]any{"opens": []int{f.open}, "rdefs": f.rdefs, "us": f.us})}
	case 1:
		f := freshSpec{catalog: []string{"classical", "paper"}[turn%2], rows: rows, cols: cols}
		return request{Kind: "coverage", fresh: f, Body: marshalBody(map[string]any{"engine": "bitsim", "catalog": f.catalog, "rows": rows, "cols": cols})}
	case 2:
		tests := march.All()
		f := freshSpec{test: tests[turn%len(tests)].Name, rows: rows, cols: cols, offsets: []int{1, -1, cols, -cols}}
		return request{Kind: "twocell", fresh: f, Body: marshalBody(map[string]any{"test": f.test, "engine": "bitsim", "rows": rows, "cols": cols, "offsets": f.offsets})}
	}
	sites := defect.ShortsAndBridges()
	d := map[string]any{"site": sites[rng.Intn(len(sites))].Site, "ohms": math.Pow(10, 3+4*rng.Float64())}
	return request{Kind: "predict", Body: marshalBody(map[string]any{"defects": []map[string]any{d}})}
}

// outcome is what the load generator saw for one request.
type outcome struct {
	due, sent, done time.Time
	late            time.Duration // how late the generator released the request
	status          int
	body            []byte
	err             error
}

// drive sends reqs on their schedule from now over at most parallelism
// connections and returns when every response is in. Requests that find
// both connections busy wait in a FIFO queue; their latency counts from
// the time they were due.
func drive(url string, reqs []request) []outcome {
	transport := &http.Transport{MaxConnsPerHost: parallelism, MaxIdleConnsPerHost: parallelism}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // one slot per request: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.sent = time.Now()
				resp, err := client.Post(url+"/v1/"+reqs[i].Kind, "application/json", strings.NewReader(reqs[i].Body))
				if err == nil {
					o.status = resp.StatusCode
					o.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				o.err = err
				o.done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].Due)
		time.Sleep(time.Until(due))
		out[i].due, out[i].late = due, time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// serveChild is one serve-mixed server: the service rebooted over the
// store in spec.Dir, listening on loopback. It reports ready with its
// URL, then (unless set-up only) serves until the parent closes its
// standard input, and reports the CPU and memory of that phase.
func serveChild(spec childSpec, ready func(string)) (repResult, error) {
	srv, err := service.New(service.Config{StoreDir: spec.Dir, Parallelism: parallelism})
	if err != nil {
		return repResult{}, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	m := startMeter()
	ready(ts.URL)
	if spec.SetupOnly {
		return repResult{}, nil
	}
	if _, err := io.Copy(io.Discard, os.Stdin); err != nil {
		return repResult{}, err
	}
	return m.stop(), nil
}

// servePhase runs one timed stream: it starts a server child over
// spec.Dir, drives the seeded stream at it from this process, checks the
// responses and derives the phase's metrics. tr, when non-nil, records
// a span per request.
func servePhase(ctx context.Context, exe string, spec childSpec, seconds float64, hot []hotEntry, tr *tracer) (repResult, error) {
	reqs := schedule(spec.Seed, seconds, spec.Size, hot)
	if len(reqs) == 0 {
		return repResult{}, fmt.Errorf("no request arrives within %gs", seconds)
	}
	c, err := startChild(ctx, exe, spec)
	if err != nil {
		return repResult{}, err
	}
	outs := drive(c.info, reqs)
	var svc struct {
		Collapsed float64 `json:"singleflight_collapsed"`
		Store     struct {
			Hits, Misses, Puts float64
		} `json:"store"`
	}
	merr := getJSON(c.info+"/v1/metrics", &svc)
	res, err := c.finish()
	if err != nil {
		return repResult{}, err
	}
	if merr != nil {
		return repResult{}, merr
	}
	bad, encode, err := checkResponses(spec.Seed, reqs, hot, outs)
	if err != nil {
		return repResult{}, err
	}
	blobs, journal, err := storeBytes(spec.Dir)
	if err != nil {
		return repResult{}, err
	}

	var hit, miss, queue, late []float64
	kindMiss := map[string][]float64{}
	slo := 0
	for i, o := range outs {
		ms := msBetween(o.due, o.done)
		res.Latencies = append(res.Latencies, ms)
		queue = append(queue, msBetween(o.due, o.sent))
		late = append(late, float64(o.late)/float64(time.Millisecond))
		class := "hit"
		if reqs[i].Hot >= 0 {
			hit = append(hit, ms)
		} else {
			class = "miss"
			miss = append(miss, ms)
			kindMiss[reqs[i].Kind] = append(kindMiss[reqs[i].Kind], ms)
		}
		if bad[i] {
			res.Failed++
		} else if ms <= sloMillis {
			slo++
		}
		if tr != nil {
			group := fmt.Sprintf("req-%d", i)
			id := tr.add(span{Name: "request." + reqs[i].Kind + "." + class, Parent: rootSpan, Group: group, Start: tr.ns(o.due), End: tr.ns(o.done)})
			tr.add(span{Name: "send", Parent: id, Group: group, Start: tr.ns(o.sent), End: tr.ns(o.done)})
		}
	}
	res.Attempted = len(reqs)
	res.Extra = map[string]float64{
		"slo_frac":             float64(slo) / float64(len(reqs)),
		"service.hit_ms_p50":   quantile(hit, 0.5),
		"service.hit_ms_p99":   quantile(hit, 0.99),
		"service.miss_ms_p50":  quantile(miss, 0.5),
		"service.miss_ms_p99":  quantile(miss, 0.99),
		"service.queue_ms_p99": quantile(queue, 0.99),
		"service.late_ms_max":  quantile(late, 1),
	}
	for _, k := range []string{"inventory", "coverage", "twocell", "predict"} {
		res.Extra["service."+k+".miss_ms_p50"] = quantile(kindMiss[k], 0.5)
	}
	res.Layers = map[string]float64{
		"service.store_hits":   svc.Store.Hits,
		"service.store_misses": svc.Store.Misses,
		"service.store_puts":   svc.Store.Puts,
		"service.collapsed":    svc.Collapsed,
		"store.bytes":          blobs,
		"store.journal_bytes":  journal,
		"report.encode_ms":     median(encode),
		"go.alloc_mb":          res.AllocMB,
		"go.gc_cycles":         res.GCCycles,
	}
	return res, nil
}

// checkResponses marks the responses that are wrong: not a 200, a hot
// result that differs from its prefill payload, or a sampled fresh
// result that differs from the library's own answer. It returns the
// encode times of the recomputed results.
func checkResponses(seed int64, reqs []request, hot []hotEntry, outs []outcome) (bad []bool, encodeMS []float64, err error) {
	bad = make([]bool, len(reqs))
	fail := func(i int, format string, args ...any) {
		bad[i] = true
		fmt.Fprintf(os.Stderr, "serve-mixed: %s %s: %s\n", reqs[i].Kind, reqs[i].Body, fmt.Sprintf(format, args...))
	}
	var fresh []int
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			fail(i, "status %d, %v: %s", o.status, o.err, o.body)
			continue
		}
		got, rerr := resultOf(o.body)
		switch {
		case rerr != nil:
			fail(i, "%v", rerr)
		case reqs[i].Hot >= 0:
			if !bytes.Equal(got, hot[reqs[i].Hot].Payload) {
				fail(i, "differs from its prefill payload")
			}
		case reqs[i].Kind != "predict":
			fresh = append(fresh, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	if len(fresh) > checkFresh {
		fresh = fresh[:checkFresh]
	}
	for _, i := range fresh {
		want, enc, err := recompute(reqs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("recompute %s %s: %w", reqs[i].Kind, reqs[i].Body, err)
		}
		encodeMS = append(encodeMS, enc)
		if got, _ := resultOf(outs[i].body); !bytes.Equal(got, want) {
			fail(i, "differs from the library result")
		}
	}
	return bad, encodeMS, nil
}

// recompute answers a fresh request directly through the library and
// returns the result encoding the service should have sent, with the
// time report.To*JSON plus json.Marshal took.
func recompute(r request) ([]byte, float64, error) {
	f := r.fresh
	var res any
	var err error
	switch r.Kind {
	case "inventory":
		res, err = analysis.BuildInventory(analysis.InventoryConfig{
			Factory: behav.NewFactory(behav.DefaultParams()),
			Opens:   opensByID(f.open),
			RDefs:   f.rdefs, Us: f.us,
			Parallelism: parallelism,
		})
	case "coverage":
		catalog := march.ClassicalFaultCatalog()
		if f.catalog == "paper" {
			catalog = march.PaperFaultCatalog()
		}
		res, err = march.CoverageMatrixWith(bitsim.New(), march.All(), catalog, f.rows, f.cols)
	case "twocell":
		var test march.Test
		for _, t := range march.All() {
			if t.Name == f.test {
				test = t
			}
		}
		res, err = march.TwoCellCertificateOffsetsWith(bitsim.New(), test, march.TwoCellCatalog(), f.rows, f.cols, f.offsets)
	default:
		return nil, 0, fmt.Errorf("no library recompute for kind %q", r.Kind)
	}
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var view any
	switch v := res.(type) {
	case []analysis.Row:
		view = report.ToInventoryJSON(v)
	case []march.CoverageResult:
		view = report.ToCoverageJSON(v)
	case march.TwoCellCertificate:
		view = report.ToTwoCellCertificateJSON(v)
	}
	buf, err := json.Marshal(view)
	return buf, msBetween(start, time.Now()), err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// storeBytes sums the result blobs and the outcome journal in a store
// directory.
func storeBytes(dir string) (blobs, journal float64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case e.Name() == journalFile:
			journal += float64(info.Size())
		case strings.HasSuffix(e.Name(), ".json"):
			blobs += float64(info.Size())
		}
	}
	return blobs, journal, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
