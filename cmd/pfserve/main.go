// Command pfserve runs the partial-fault analysis service: a
// long-running HTTP JSON API over the paper's pipeline — Table 1
// inventories, march coverage matrices, two-cell certificates, the
// static detection matrix and the net-merge prover — with singleflight
// de-duplication of concurrent identical requests and an optional
// disk-persistent content-addressed result store (one JSON file per
// result; an outcomes.jsonl left by older builds is ignored). On SIGINT
// or SIGTERM it stops accepting connections and drains in-flight
// requests before exiting.
//
// March requests run on the bit-plane engine ("engine"/"march_engine"
// take only "bitsim"); rows and cols take 1 to 65 536, a two-cell
// certificate at most 8 190 offset passes, a stress request at most 16
// corners (nominal included), a batch at most 64 requests. A repeated
// open ID counts once.
//
// Usage:
//
//	pfserve -addr :8080 -store /var/lib/pfserve
//	pfserve -addr 127.0.0.1:0 -parallel 4
//
// Endpoints (POST JSON unless noted):
//
//	GET  /v1/healthz    liveness
//	GET  /v1/metrics    request/store/singleflight/traced-sweep/stress counters
//	POST /v1/inventory  {"engine":"behav|spice","sweep":"dense|traced","opens":[..],"rdefs":[..],"us":[..]}
//	POST /v1/coverage   {"tests":[..],"catalog":"classical|paper","rows":4,"cols":2}
//	POST /v1/twocell    {"test":"MATS+","offsets":[1,-1],"rows":4,"cols":4}
//	POST /v1/matrix     {"tests":[..]}
//	POST /v1/predict    {"open":4} or {"defects":[{"site":"bridge.bl.bl","ohms":2e6}]}
//	POST /v1/stress     {"corners":"low-vdd;hot","opens":[..],"rdefs":[..],"us":[..]}
//	POST /v1/batch      {"requests":[{"kind":"matrix","body":{..}},..]}
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/memtest/partialfaults/internal/service"
)

const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so idle connections cannot pin the server.
	readHeaderTimeout = 10 * time.Second
	// drainTimeout bounds how long shutdown waits for in-flight
	// requests.
	drainTimeout = time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil)
	stop()
	os.Exit(code)
}

// run builds the server and serves until ctx is cancelled, then drains
// in-flight requests and returns 0; a listener failure returns 1. When
// ready is non-nil it receives the bound address once the listener is
// up — tests pass ":0" and read the real port from it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("pfserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		storeDir = fs.String("store", "", "persistent result-store directory (empty = in-memory only)")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	srv, err := service.New(service.Config{StoreDir: *storeDir, Parallelism: *parallel})
	if err != nil {
		fmt.Fprintf(stderr, "pfserve: %v\n", err)
		return 1
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "pfserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "pfserve listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		fmt.Fprintf(stderr, "pfserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		fmt.Fprintf(stderr, "pfserve: shutdown: %v\n", err)
		return 1
	}
	return 0
}
