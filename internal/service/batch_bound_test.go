package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestBatchGoroutinesBounded: a batch runs its items on at most the
// pool's number of workers. With every pool slot held, the flights of a
// 64-item batch of distinct inventories all wait for a slot, and the
// batch must not hold a goroutine per item meanwhile: the goroutine
// count may rise only by what the pool's workers' items hold (an item
// waiting here holds four: its worker, its flight, its inventory unit
// and its one sweep point) plus a constant.
func TestBatchGoroutinesBounded(t *testing.T) {
	const workers, perItem, slack = 2, 4, 8
	s := newTestServer(t, Config{Parallelism: workers})
	held := make(chan struct{})
	release := make(chan struct{})
	for range workers {
		go s.env.Pool.Do(func() {
			held <- struct{}{}
			<-release
		})
	}
	for range workers {
		<-held
	}

	items := make([]string, maxBatchItems)
	for i := range items {
		items[i] = fmt.Sprintf(`{"kind":"inventory","body":{"opens":[4],"rdefs":[%d],"us":[0]}}`, 1000+i)
	}
	before := runtime.NumGoroutine()
	type reply struct {
		code int
		buf  []byte
	}
	done := make(chan reply, 1)
	go func() {
		code, buf := post(t, s, "/v1/batch", `{"requests":[`+strings.Join(items, ",")+`]}`)
		done <- reply{code, buf}
	}()
	rise := 0
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		rise = max(rise, runtime.NumGoroutine()-before)
	}
	close(release)

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("batch status %d: %s", r.code, r.buf)
	}
	var got struct {
		Responses []BatchItemResult `json:"responses"`
	}
	if err := json.Unmarshal(r.buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != len(items) {
		t.Fatalf("%d responses to %d items", len(got.Responses), len(items))
	}
	for i, resp := range got.Responses {
		if resp.Status != http.StatusOK {
			t.Errorf("item %d: status %d (%s)", i, resp.Status, resp.Error)
		}
	}
	if limit := workers*perItem + slack; rise > limit {
		t.Errorf("a %d-item batch waiting on a full pool of %d raised the goroutine count by %d, more than %d", len(items), workers, rise, limit)
	}
}
