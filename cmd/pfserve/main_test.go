package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// bootServer starts pfserve on an ephemeral port and returns its base
// URL. Cleanup stops the server and waits for run to return.
func bootServer(t *testing.T, extra ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	base, done := startServer(t, ctx, extra...)
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return base
}

// startServer runs pfserve under ctx on an ephemeral port and returns
// its base URL and a channel that receives run's exit code.
func startServer(t *testing.T, ctx context.Context, extra ...string) (string, <-chan int) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { done <- run(ctx, args, io_Discard{}, io_Discard{}, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, done
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
		return "", nil
	}
}

type io_Discard struct{}

func (io_Discard) Write(p []byte) (int, error) { return len(p), nil }

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errw, nil); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "flag") {
		t.Fatalf("stderr: %s", errw.String())
	}
}

func TestRunRejectsBadAddr(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "999.999.999.999:1"}, &out, &errw, nil); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestServeHealthzAndMatrix(t *testing.T) {
	base := bootServer(t, "-store", t.TempDir())
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := strings.NewReader(`{"tests":["MATS+"]}`)
	resp, err = http.Post(base+"/v1/matrix", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix: %d", resp.StatusCode)
	}
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if len(env.Result) == 0 {
		t.Fatal("empty matrix result")
	}
}

// TestServeInventoryTracedKeyedApart drives the traced-sweep knob end
// to end over HTTP: a traced inventory answers, the dense spelling of
// the same request computes its own store entry (traced results are
// keyed apart, since they may miss a fault region that holds no
// sample) and agrees byte for byte on this grid, a repeated dense
// request hits its entry, and /v1/metrics reports the traced-sweep
// work.
func TestServeInventoryTracedKeyedApart(t *testing.T) {
	base := bootServer(t, "-store", t.TempDir())
	grid := `"opens":[1],"rdefs":[1e3,1e4,1e5,1e6,1e7],"us":[0,0.66,1.32,1.98,2.64,3.3]`
	fetch := func(body string) (bool, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/inventory", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inventory: %d", resp.StatusCode)
		}
		var env struct {
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return env.Cached, env.Result
	}
	cached, traced := fetch(`{"sweep":"traced",` + grid + `}`)
	if cached {
		t.Fatal("first traced request claims cached")
	}
	cached, dense := fetch(`{` + grid + `}`)
	if cached {
		t.Fatal("dense request was served the traced store entry")
	}
	if !bytes.Equal(traced, dense) {
		t.Fatal("traced and dense payloads differ on this grid")
	}
	if cached, _ := fetch(`{"sweep":"dense",` + grid + `}`); !cached {
		t.Fatal("repeated dense request missed its store entry")
	}

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Trace struct {
			Planes    int     `json:"planes"`
			Simulated int     `json:"simulated"`
			Inferred  int     `json:"inferred"`
			Reduction float64 `json:"reduction"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Trace.Planes == 0 || m.Trace.Simulated == 0 {
		t.Fatalf("metrics missing traced-sweep work: %+v", m.Trace)
	}
}

// TestServeStress drives /v1/stress end to end over HTTP: a two-corner
// matrix on a reduced grid answers with per-corner inventories and a
// certificate, the repeated request hits the store byte for byte, and
// /v1/metrics reports the stress work.
func TestServeStress(t *testing.T) {
	base := bootServer(t, "-store", t.TempDir())
	req := `{"corners":"low-vdd","tests":["March PF"],"opens":[1,5],"rdefs":[1e4,1e6],"us":[0,1.5,3.3],"rows":2,"cols":2}`
	fetch := func() (bool, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/stress", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stress: %d", resp.StatusCode)
		}
		var env struct {
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return env.Cached, env.Result
	}
	cached, fresh := fetch()
	if cached {
		t.Fatal("first stress request claims cached")
	}
	var res struct {
		Corners []struct {
			Name      string            `json:"name"`
			Inventory []json.RawMessage `json:"inventory"`
		} `json:"corners"`
		Certificate struct {
			Claims []json.RawMessage `json:"claims"`
		} `json:"certificate"`
	}
	if err := json.Unmarshal(fresh, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Corners) != 2 || res.Corners[0].Name != "nominal" || res.Corners[1].Name != "low-vdd" {
		t.Fatalf("corners: %+v", res.Corners)
	}
	for _, c := range res.Corners {
		if len(c.Inventory) == 0 {
			t.Fatalf("corner %s has an empty inventory", c.Name)
		}
	}
	if len(res.Certificate.Claims) == 0 {
		t.Fatal("certificate has no claims")
	}

	cached, stored := fetch()
	if !cached {
		t.Fatal("repeated stress request missed the store")
	}
	if !bytes.Equal(fresh, stored) {
		t.Fatal("fresh and stored stress payloads differ")
	}

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Stress struct {
			Matrices uint64 `json:"matrices"`
			Corners  uint64 `json:"corners"`
		} `json:"stress"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Stress.Matrices != 1 || m.Stress.Corners != 2 {
		t.Fatalf("stress metrics = %+v, want 1 matrix over 2 corners", m.Stress)
	}
}

// TestConcurrentDuplicatesCollapse boots the real server, fires
// concurrent identical sweep requests over HTTP and asserts the
// singleflight layer collapsed the duplicates (via /v1/metrics).
func TestConcurrentDuplicatesCollapse(t *testing.T) {
	base := bootServer(t, "-parallel", "2")
	const n = 8
	// A spice-engine sweep: slow enough that all eight clients are in
	// flight together, so the duplicates genuinely race.
	req := `{"engine":"spice","opens":[1,4],"rdefs":[1e4,1e6],"us":[0,3.3]}`
	results := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/inventory", "application/json", strings.NewReader(req))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var env struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				errs[i] = err
				return
			}
			results[i] = env.Result
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Requests              map[string]uint64 `json:"requests"`
		SingleflightCollapsed uint64            `json:"singleflight_collapsed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["inventory"] != n {
		t.Fatalf("request counter = %d, want %d", m.Requests["inventory"], n)
	}
	if m.SingleflightCollapsed == 0 {
		t.Fatal("no requests collapsed — singleflight did not engage")
	}
}

// TestShutdownDrainsInFlight cancels run's context while a request is
// in flight: the request still gets its 200 and run returns 0.
func TestShutdownDrainsInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done := startServer(t, ctx, "-parallel", "1")
	type reply struct {
		status int
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		// A spice-engine sweep: slow enough to still be running when
		// the context is cancelled.
		resp, err := http.Post(base+"/v1/inventory", "application/json",
			strings.NewReader(`{"engine":"spice","opens":[4],"rdefs":[1e4,1e6],"us":[0,3.3]}`))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		replied <- reply{status: resp.StatusCode, err: err}
	}()
	waitInFlight(t, base, "inventory")
	cancel()
	r := <-replied
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d, err %v", r.status, r.err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run returned %d after cancel, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if resp, err := http.Get(base + "/v1/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("server still accepts requests after run returned")
	}
}

// waitInFlight polls /v1/metrics until the server has accepted one
// request of the kind.
func waitInFlight(t *testing.T, base, kind string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Requests map[string]uint64 `json:"requests"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.Requests[kind] > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no %s request reached the server", kind)
}
