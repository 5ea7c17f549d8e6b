package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

type envelope struct {
	Cached    bool            `json:"cached"`
	Collapsed bool            `json:"collapsed"`
	Result    json.RawMessage `json:"result"`
}

func post(t *testing.T, s *Server, path, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func postEnvelope(t *testing.T, s *Server, path, body string) envelope {
	t.Helper()
	code, buf := post(t, s, path, body)
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, code, buf)
	}
	var env envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		t.Fatalf("%s: bad envelope: %v\n%s", path, err, buf)
	}
	return env
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"ok":true`)) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
}

const smallInventory = `{"opens":[1,2],"rdefs":[1e4,1e6],"us":[0,1.5,3.3]}`

// TestStoreEquivalence is the tentpole acceptance test: a result served
// from the persistent store must be byte-identical to the freshly
// computed one — across server restarts on the same directory.
func TestStoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	fresh := postEnvelope(t, s1, "/v1/inventory", smallInventory)
	if fresh.Cached {
		t.Fatal("first request claims to be cached")
	}
	again := postEnvelope(t, s1, "/v1/inventory", smallInventory)
	if !again.Cached {
		t.Fatal("second request missed the store")
	}
	if !bytes.Equal(fresh.Result, again.Result) {
		t.Fatal("stored result differs from fresh result")
	}
	s1.Close()

	// A fresh process over the same store directory serves the same
	// bytes without recomputing.
	s2 := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	reborn := postEnvelope(t, s2, "/v1/inventory", smallInventory)
	if !reborn.Cached {
		t.Fatal("restarted server missed the store")
	}
	if !bytes.Equal(fresh.Result, reborn.Result) {
		t.Fatal("result changed across restart")
	}

	// And a store-less server computing from scratch agrees bit for bit.
	s3 := newTestServer(t, Config{Parallelism: 2})
	scratch := postEnvelope(t, s3, "/v1/inventory", smallInventory)
	if scratch.Cached {
		t.Fatal("store-less server claims a cache hit")
	}
	if !bytes.Equal(fresh.Result, scratch.Result) {
		t.Fatal("stored result differs from an independent fresh computation")
	}
}

// TestTracedSweepKeyedApart pins the traced/dense cache-identity
// contract: traced planes equal dense ones only where every fault region
// holds a sample, so a traced request never shares the dense request's
// store entry (in either order), and the traced computation reports its
// work in /v1/metrics. On this grid the two payloads agree.
func TestTracedSweepKeyedApart(t *testing.T) {
	grid := `"rdefs":[1e3,3e3,1e4,3e4,1e5,3e5,1e6,3e6,1e7],"us":[0,0.3,0.6,0.9,1.2,1.5,1.8,2.1,2.4,2.7,3.0,3.3]`
	dense := `{"opens":[1],` + grid + `}`
	traced := `{"opens":[1],"sweep":"traced",` + grid + `}`

	dir := t.TempDir()
	s1 := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	freshTraced := postEnvelope(t, s1, "/v1/inventory", traced)
	if freshTraced.Cached {
		t.Fatal("first (traced) request claims to be cached")
	}
	if postEnvelope(t, s1, "/v1/inventory", dense).Cached {
		t.Fatal("dense request was served the traced request's store entry")
	}
	if !postEnvelope(t, s1, "/v1/inventory", traced).Cached {
		t.Fatal("repeated traced request missed its own store entry")
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	s1.ServeHTTP(rec, req)
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Trace.Planes == 0 || m.Trace.Inferred == 0 {
		t.Fatalf("traced computation left no trace metrics: %+v", m.Trace)
	}
	if m.Trace.Reduction <= 1 {
		t.Fatalf("traced reduction = %v, want > 1", m.Trace.Reduction)
	}

	// The reverse direction on an independent server: dense first, and
	// traced still computes its own entry.
	s2 := newTestServer(t, Config{StoreDir: t.TempDir(), Parallelism: 2})
	freshDense := postEnvelope(t, s2, "/v1/inventory", dense)
	if postEnvelope(t, s2, "/v1/inventory", traced).Cached {
		t.Fatal("traced request was served the dense request's store entry")
	}
	if !bytes.Equal(freshDense.Result, freshTraced.Result) {
		t.Fatal("dense and traced fresh computations disagree on this grid")
	}

	if code, buf := post(t, s2, "/v1/inventory", `{"sweep":"nope"}`); code != http.StatusBadRequest {
		t.Fatalf("bad sweep mode: status %d: %s", code, buf)
	}
}

// TestStoreInvalidationOnTechnology pins the cache-identity bugfix at
// the service layer: the same request against a different technology
// must not hit entries written by the default one.
func TestStoreInvalidationOnTechnology(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	if env := postEnvelope(t, s1, "/v1/inventory", smallInventory); env.Cached {
		t.Fatal("first request cached")
	}
	s1.Close()

	tech := dram.Default()
	tech.VDD *= 1.1
	s2 := newTestServer(t, Config{StoreDir: dir, Parallelism: 2, Tech: &tech})
	if env := postEnvelope(t, s2, "/v1/inventory", smallInventory); env.Cached {
		t.Fatal("changed technology still hit the default-technology store entry")
	}
}

// TestLegacyOutcomeJournalIgnored boots over a store directory an older
// build left behind: one stored result plus an outcomes.jsonl outcome
// journal holding one well-formed record and one line torn mid-append.
// The record claims a wrong outcome for a point the fresh request
// simulates, so a server that still read the journal would answer
// wrongly. The store hit and the fresh miss must both answer correctly,
// and the journal must be left byte for byte as it was.
func TestLegacyOutcomeJournalIgnored(t *testing.T) {
	dir := t.TempDir()
	stored := postEnvelope(t, newTestServer(t, Config{StoreDir: dir, Parallelism: 2}), "/v1/inventory", smallInventory)
	const fresh = `{"opens":[4],"rdefs":[1e4,1e6],"us":[0,3.3]}`
	want := postEnvelope(t, newTestServer(t, Config{Parallelism: 2}), "/v1/inventory", fresh)

	open, _ := defect.ByID(4)
	record, err := json.Marshal(map[string]any{
		"key": map[string]any{
			"Model": behav.Fingerprint(behav.DefaultParams()), "OpenID": open.ID, "Site": open.Site,
			"RDef": 1e4, "Nets": strings.Join(open.Floats[0].Nets, ","), "U": 0, "SOS": "0",
		},
		"outcome": map[string]any{"F": 1, "R": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	journal := append(append(record, '\n'), `{"key":{"Model":"behav:`...)
	path := filepath.Join(dir, "outcomes.jsonl")
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	if hit := postEnvelope(t, s, "/v1/inventory", smallInventory); !hit.Cached || !bytes.Equal(hit.Result, stored.Result) {
		t.Fatalf("store hit: cached=%v, payload equal=%v", hit.Cached, bytes.Equal(hit.Result, stored.Result))
	}
	if miss := postEnvelope(t, s, "/v1/inventory", fresh); miss.Cached || !bytes.Equal(miss.Result, want.Result) {
		t.Fatalf("fresh miss: cached=%v, payload equal=%v", miss.Cached, bytes.Equal(miss.Result, want.Result))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, journal) {
		t.Fatalf("outcomes.jsonl changed: %d bytes, want %d", len(got), len(journal))
	}
}

// TestSingleflightCollapse fires N identical concurrent requests at a
// store-less server and requires that all but one joined the leader's
// flight, with identical payloads.
func TestSingleflightCollapse(t *testing.T) {
	s := newTestServer(t, Config{Parallelism: 2})
	const n = 8
	envs := make([]envelope, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			envs[i] = postEnvelope(t, s, "/v1/inventory", smallInventory)
		}(i)
	}
	wg.Wait()
	collapsed := 0
	for i := 1; i < n; i++ {
		if !bytes.Equal(envs[0].Result, envs[i].Result) {
			t.Fatalf("request %d returned different bytes", i)
		}
		if envs[i].Collapsed {
			collapsed++
		}
	}
	if envs[0].Collapsed {
		collapsed++
	}
	if collapsed == 0 {
		t.Fatal("no request collapsed into the leader's flight")
	}
	if got := s.flights.Collapsed(); got == 0 {
		t.Fatal("flight group counted no collapses")
	}
}

func TestCoverageEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	env := postEnvelope(t, s, "/v1/coverage",
		`{"tests":["MATS+"],"catalog":"classical","rows":3,"cols":3}`)
	var rows []struct {
		Test     string `json:"test"`
		Fault    string `json:"fault"`
		Detected bool   `json:"detected"`
	}
	if err := json.Unmarshal(env.Result, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || rows[0].Test != "MATS+" {
		t.Fatalf("coverage rows: %s", env.Result)
	}
}

func TestTwoCellEndpointWithOffsets(t *testing.T) {
	s := newTestServer(t, Config{})
	env := postEnvelope(t, s, "/v1/twocell",
		`{"test":"MATS+","rows":3,"cols":3,"offsets":[1,-1]}`)
	var cert struct {
		Test    string `json:"test"`
		Offsets []int  `json:"offsets"`
		Entries []struct {
			Entry  string `json:"entry"`
			Engine string `json:"engine"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(env.Result, &cert); err != nil {
		t.Fatal(err)
	}
	if cert.Test != "MATS+" || len(cert.Offsets) != 2 || len(cert.Entries) == 0 {
		t.Fatalf("certificate: %s", env.Result)
	}
}

func TestMatrixEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	env := postEnvelope(t, s, "/v1/matrix", `{"tests":["MATS+","March C-"]}`)
	var m struct {
		Tests    []string `json:"tests"`
		Detects  int      `json:"detects"`
		Misses   int      `json:"misses"`
		Unknowns int      `json:"unknowns"`
		Rows     []any    `json:"rows"`
	}
	if err := json.Unmarshal(env.Result, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Tests) != 2 || m.Detects+m.Misses+m.Unknowns != len(m.Rows) {
		t.Fatalf("matrix: tests %v, %d+%d+%d vs %d rows",
			m.Tests, m.Detects, m.Misses, m.Unknowns, len(m.Rows))
	}
}

func TestPredictEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	env := postEnvelope(t, s, "/v1/predict", `{"open":3}`)
	var fl FloatPredictionJSON
	if err := json.Unmarshal(env.Result, &fl); err != nil {
		t.Fatal(err)
	}
	if fl.Open != 3 || fl.Element == "" {
		t.Fatalf("float prediction: %s", env.Result)
	}

	env = postEnvelope(t, s, "/v1/predict", `{"defects":[{"site":"bridge.bl.bl","ohms":2e6}]}`)
	var mp struct {
		Elems []string `json:"elems"`
	}
	if err := json.Unmarshal(env.Result, &mp); err != nil {
		t.Fatal(err)
	}
	if len(mp.Elems) != 1 {
		t.Fatalf("merge prediction: %s", env.Result)
	}
}

func TestPredictRejectsAmbiguousRequest(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, body := range []string{`{}`, `{"open":1,"defects":[{"site":"bridge.bl.bl"}]}`} {
		if code, _ := post(t, s, "/v1/predict", body); code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, code)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct{ path, body string }{
		{"/v1/inventory", `{"engine":"verilog"}`},
		{"/v1/inventory", `{"opens":[99]}`},
		{"/v1/inventory", `{"bogus_field":1}`},
		{"/v1/coverage", `{"catalog":"imaginary"}`},
		{"/v1/coverage", `{"engine":"quantum"}`},
		{"/v1/coverage", `{"tests":["March ZZ"]}`},
		{"/v1/twocell", `{}`},
		{"/v1/twocell", `{"test":"MATS+","offsets":[0]}`},
		{"/v1/predict", `{"defects":[{"site":"nowhere"}]}`},
		{"/v1/batch", `{"requests":[]}`},
		{"/v1/batch", `{"requests":[` + strings.Repeat(`{"kind":"matrix","body":{}},`, maxBatchItems) + `{"kind":"matrix","body":{}}]}`},
		{"/v1/coverage", `{"engine":"memsim"}`},
		{"/v1/twocell", `{"test":"MATS+","engine":"memsim"}`},
	}
	for _, c := range cases {
		code, buf := post(t, s, c.path, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", c.path, c.body, code, buf)
		}
	}
}

// TestBatch runs a mixed batch with an intra-batch duplicate and an
// invalid item: the duplicates must agree byte-for-byte, and the bad
// item must fail without poisoning the rest.
func TestBatch(t *testing.T) {
	s := newTestServer(t, Config{Parallelism: 2})
	body := fmt.Sprintf(`{"requests":[
		{"kind":"matrix","body":{"tests":["MATS+"]}},
		{"kind":"inventory","body":%s},
		{"kind":"inventory","body":%s},
		{"kind":"espresso","body":{}},
		{"kind":"predict","body":{"open":1}}
	]}`, smallInventory, smallInventory)
	code, buf := post(t, s, "/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, buf)
	}
	var got struct {
		Responses []BatchItemResult `json:"responses"`
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != 5 {
		t.Fatalf("%d responses", len(got.Responses))
	}
	for i, want := range []int{200, 200, 200, 400, 200} {
		if got.Responses[i].Status != want {
			t.Errorf("item %d: status %d (%s), want %d",
				i, got.Responses[i].Status, got.Responses[i].Error, want)
		}
	}
	var a, b envelope
	if err := json.Unmarshal(got.Responses[1].Body, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Responses[2].Body, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Result, b.Result) {
		t.Fatal("duplicate batch items returned different bytes")
	}
}

func TestMetrics(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	postEnvelope(t, s, "/v1/inventory", smallInventory)
	postEnvelope(t, s, "/v1/inventory", smallInventory)
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["inventory"] != 2 {
		t.Fatalf("request counter = %d", m.Requests["inventory"])
	}
	if m.Store == nil || m.Store.Puts != 1 || m.Store.Hits != 1 {
		t.Fatalf("store stats = %+v", m.Store)
	}
	if m.Models.Behav == "" || m.Models.Spice == "" || m.Catalog == "" {
		t.Fatalf("fingerprints missing: %+v", m)
	}
}

// smallStress keeps the stress matrix fast: two corners (nominal is
// ensured), two opens, a 2×3 grid and one march test on a 2×2 array.
const smallStress = `{"corners":"low-vdd","tests":["March PF"],"opens":[1,5],"rdefs":[1e4,1e6],"us":[0,1.5,3.3],"rows":2,"cols":2}`

// TestStressStoreEquivalence extends the store suite to /v1/stress: the
// stored payload, the restart payload, and an independent store-less
// computation must all be byte-identical to the fresh one.
func TestStressStoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	fresh := postEnvelope(t, s1, "/v1/stress", smallStress)
	if fresh.Cached {
		t.Fatal("first stress request claims to be cached")
	}
	again := postEnvelope(t, s1, "/v1/stress", smallStress)
	if !again.Cached {
		t.Fatal("second stress request missed the store")
	}
	if !bytes.Equal(fresh.Result, again.Result) {
		t.Fatal("stored stress result differs from fresh result")
	}
	s1.Close()

	s2 := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	reborn := postEnvelope(t, s2, "/v1/stress", smallStress)
	if !reborn.Cached {
		t.Fatal("restarted server missed the stress store entry")
	}
	if !bytes.Equal(fresh.Result, reborn.Result) {
		t.Fatal("stress result changed across restart")
	}

	s3 := newTestServer(t, Config{Parallelism: 2})
	scratch := postEnvelope(t, s3, "/v1/stress", smallStress)
	if scratch.Cached {
		t.Fatal("store-less server claims a stress cache hit")
	}
	if !bytes.Equal(fresh.Result, scratch.Result) {
		t.Fatal("stored stress result differs from an independent fresh computation")
	}
}

// TestStressNominalMatchesInventory pins the identity the whole stress
// axis hangs on, through the service path: the nominal corner's
// inventory inside a /v1/stress response is byte-identical to the
// /v1/inventory result for the same grid.
func TestStressNominalMatchesInventory(t *testing.T) {
	s := newTestServer(t, Config{Parallelism: 2})
	grid := `"opens":[1,5],"rdefs":[1e4,1e6],"us":[0,1.5,3.3]`
	stressEnv := postEnvelope(t, s, "/v1/stress", `{"corners":"low-vdd","tests":["March PF"],`+grid+`,"rows":2,"cols":2}`)
	invEnv := postEnvelope(t, s, "/v1/inventory", `{`+grid+`}`)
	var res struct {
		NominalIndex int `json:"nominal_index"`
		Corners      []struct {
			Name      string          `json:"name"`
			Model     string          `json:"model"`
			Inventory json.RawMessage `json:"inventory"`
		} `json:"corners"`
	}
	if err := json.Unmarshal(stressEnv.Result, &res); err != nil {
		t.Fatal(err)
	}
	nom := res.Corners[res.NominalIndex]
	if nom.Name != "nominal" {
		t.Fatalf("nominal corner is %q", nom.Name)
	}
	if !bytes.Equal(bytes.TrimSpace(nom.Inventory), bytes.TrimSpace(invEnv.Result)) {
		t.Fatalf("nominal stress inventory differs from /v1/inventory:\n%s\n%s", nom.Inventory, invEnv.Result)
	}
}

// TestStressBadRequests drives the invalid-corner error paths.
func TestStressBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct{ body string }{
		{`{"corners":"volcanic"}`},            // unknown built-in
		{`{"corners":"hot:temp=400"}`},        // out of lint range
		{`{"corners":"hot:vdd=-1"}`},          // non-physical scale
		{`{"corners":"hot:temp=nan"}`},        // non-finite parameter
		{`{"corners":"a:vdd=1.1;a:vdd=0.9"}`}, // duplicate names
		{`{"corners":"hot:speed=9"}`},         // unknown key
		{`{"engine":"verilog"}`},              // unknown engine
		{`{"march_engine":"quantum"}`},        // unknown march engine
		{`{"march_engine":"memsim"}`},         // the scalar oracle is not served
		{`{"tests":["March ZZ"]}`},            // unknown test
		{`{"opens":[99]}`},                    // unknown open
		{`{"corners":"lights-out:vdd=0.05"}`}, // derives an invalid technology
	}
	for _, c := range cases {
		code, buf := post(t, s, "/v1/stress", c.body)
		if code != http.StatusBadRequest {
			t.Errorf("/v1/stress %s: status %d (%s), want 400", c.body, code, buf)
		}
	}
}

// TestStressMetrics checks the stress counters: computed matrices and
// corners are counted once; the store hit adds nothing.
func TestStressMetrics(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StoreDir: dir, Parallelism: 2})
	postEnvelope(t, s, "/v1/stress", smallStress)
	postEnvelope(t, s, "/v1/stress", smallStress)
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["stress"] != 2 {
		t.Fatalf("stress request counter = %d", m.Requests["stress"])
	}
	if m.Stress.Matrices != 1 || m.Stress.Corners != 2 {
		t.Fatalf("stress compute counters = %+v, want 1 matrix over 2 corners", m.Stress)
	}
}
