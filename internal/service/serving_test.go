package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after a generous
// deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (g *flightGroup) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// TestTracedResultNeverServesDense is the open-5 counterexample to
// traced ≡ dense: the traced sweep infers plane 0w0 at 1e5 Ω / 3.3 V as
// clean and loses the "WDF0 | Open 5 | Bit line" row. A dense request
// after a traced one must still get the dense result, not the traced
// store entry.
func TestTracedResultNeverServesDense(t *testing.T) {
	const grid = `"opens":[5],"rdefs":[10000,100000,1000000],"us":[0,1.65,3.3]`
	s := newTestServer(t, Config{StoreDir: t.TempDir(), Parallelism: 2})
	postEnvelope(t, s, "/v1/inventory", `{"sweep":"traced",`+grid+`}`)
	dense := postEnvelope(t, s, "/v1/inventory", `{`+grid+`}`)
	fresh := postEnvelope(t, newTestServer(t, Config{Parallelism: 2}), "/v1/inventory", `{`+grid+`}`)
	if dense.Cached {
		t.Error("dense request was served from the store after a traced request")
	}
	if !bytes.Equal(dense.Result, fresh.Result) {
		t.Fatalf("dense after traced differs from a fresh dense computation:\n%s\n%s", dense.Result, fresh.Result)
	}
	var rows []json.RawMessage
	if err := json.Unmarshal(fresh.Result, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 {
		t.Fatalf("fresh dense inventory has %d rows, want 17", len(rows))
	}
}

// TestLeaderCancelKeepsFollowersFlight cancels the leader of a slow
// spice inventory while a collapsed follower waits on its flight: the
// leader gets 504, and the follower still gets 200 with the payload a
// fresh computation gives.
func TestLeaderCancelKeepsFollowersFlight(t *testing.T) {
	const body = `{"engine":"spice","opens":[9],"rdefs":[1e4,1e6],"us":[0,3.3]}`
	s := newTestServer(t, Config{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/inventory", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		leader <- rec.Code
	}()
	waitFor(t, "the leader's flight", func() bool { return s.flights.inFlight() == 1 })
	type response struct {
		code int
		buf  []byte
	}
	follower := make(chan response, 1)
	go func() {
		code, buf := post(t, s, "/v1/inventory", body)
		follower <- response{code, buf}
	}()
	waitFor(t, "the follower to join", func() bool { return s.flights.Collapsed() == 1 })
	cancel()
	if code := <-leader; code != http.StatusGatewayTimeout {
		t.Errorf("cancelled leader: status %d, want 504", code)
	}
	got := <-follower
	if got.code != http.StatusOK {
		t.Fatalf("follower: status %d: %s", got.code, got.buf)
	}
	var env envelope
	if err := json.Unmarshal(got.buf, &env); err != nil {
		t.Fatal(err)
	}
	fresh := postEnvelope(t, newTestServer(t, Config{Parallelism: 2}), "/v1/inventory", body)
	if !bytes.Equal(env.Result, fresh.Result) {
		t.Fatal("follower payload differs from a fresh computation")
	}
}

// TestFlightCancelledWhenLastWaiterLeaves checks the other half of the
// detached flight: it keeps running while any waiter remains, and is
// cancelled (so its result is never stored) once the last one leaves.
func TestFlightCancelledWhenLastWaiterLeaves(t *testing.T) {
	g := newFlightGroup()
	started := make(chan context.Context, 1)
	fn := func(ctx context.Context) ([]byte, error) {
		started <- ctx
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	errs := make(chan error, 2)
	go func() {
		_, _, err := g.Do(ctx1, "k", fn)
		errs <- err
	}()
	flight := <-started
	go func() {
		_, _, err := g.Do(ctx2, "k", fn)
		errs <- err
	}()
	waitFor(t, "the second waiter to join", func() bool { return g.Collapsed() == 1 })

	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: err %v, want context.Canceled", err)
	}
	if flight.Err() != nil {
		t.Fatal("flight cancelled while a waiter remained")
	}
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("last waiter: err %v, want context.Canceled", err)
	}
	select {
	case <-flight.Done():
	case <-time.After(time.Minute):
		t.Fatal("flight still running after its last waiter left")
	}
	if n := g.inFlight(); n != 0 {
		t.Fatalf("%d flights still registered", n)
	}
}

// TestBodyCap: a body over the 1 MiB cap is refused with 413, directly
// and through the batch endpoint.
func TestBodyCap(t *testing.T) {
	s := newTestServer(t, Config{})
	huge := strings.Repeat("a", 2<<20)
	for _, c := range []struct{ path, body string }{
		{"/v1/matrix", `{"tests":["` + huge + `"]}`},
		{"/v1/batch", `{"requests":[{"kind":"matrix","body":{"tests":["` + huge + `"]}}]}`},
	} {
		if code, _ := post(t, s, c.path, c.body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 2 MiB body: status %d, want 413", c.path, code)
		}
	}
}

// offsets renders the aggressor offsets 1…n as a JSON list body.
func offsets(n int) string {
	ds := make([]string, n)
	for i := range ds {
		ds[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(ds, ",")
}

// TestBadGridRejected: grid bounds that cannot make a sweep, geometries
// beyond the side cap and two-cell certificates over more than 8 190
// offset passes are client errors, answered 400 — also inside a batch,
// whose items run on their own goroutines.
func TestBadGridRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/inventory", `{"rdef_min":-1}`},
		{"/v1/inventory", `{"rdefs":[0,1e4]}`},
		{"/v1/inventory", `{"u_min":-1e308,"u_max":1e308,"u_steps":3}`},
		{"/v1/inventory", `{"opens":[4],"rdef_steps":-1,"u_steps":2}`},
		{"/v1/inventory", `{"us":[` + strings.Repeat("0,", 1000) + `0]}`},
		{"/v1/stress", `{"rdef_max":-5}`},
		{"/v1/stress", `{"u_steps":-2}`},
		{"/v1/stress", `{"opens":[4],"rdefs":[1e4],"us":[0],"cols":-1}`},
		{"/v1/coverage", `{"engine":"bitsim","rows":-1,"cols":4}`},
		{"/v1/coverage", `{"rows":4,"cols":-2}`},
		{"/v1/twocell", `{"test":"March SS","engine":"bitsim","rows":-4}`},
		{"/v1/coverage", `{"engine":"bitsim","rows":2147483648,"cols":2147483648,"tests":["March PF"]}`},
		{"/v1/coverage", `{"engine":"bitsim","rows":3037000500,"cols":3037000500,"tests":["March PF"]}`},
		{"/v1/stress", `{"march_engine":"bitsim","opens":[4],"rdefs":[1e4],"us":[0],"rows":2147483648,"cols":2147483648}`},
		{"/v1/twocell", `{"test":"March SS","engine":"bitsim","rows":65,"cols":64}`},
		{"/v1/twocell", `{"test":"March SS","engine":"bitsim","rows":64,"cols":64,"offsets":[` + offsets(8191) + `]}`},
	} {
		if code, buf := post(t, s, c.path, c.body); code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", c.path, c.body, code, buf)
		}
	}
	code, buf := post(t, s, "/v1/batch", `{"requests":[{"kind":"inventory","body":{"rdef_min":-1}}]}`)
	if code != http.StatusOK || !bytes.Contains(buf, []byte(`"status":400`)) {
		t.Fatalf("batch with a bad grid: %d %s", code, buf)
	}
}
