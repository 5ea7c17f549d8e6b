// Package service exposes the partial-fault analysis pipeline as a
// long-running JSON HTTP API: Table 1 inventories, march coverage
// matrices, two-cell certificates, the static detection matrix, the
// net-merge prover and the stress matrix, with request batching,
// singleflight de-duplication of concurrent identical requests, and a
// disk-persistent content-addressed result store shared across
// restarts.
//
// Every cacheable kind is a request type from internal/request served
// by one generic path: decode → Normalize → Key → store/singleflight →
// Run → report JSON. The store key is built from the model fingerprint
// (engine kind + netlist + technology), the fault/defect catalog
// fingerprint, the request kind and the canonical request spec — so
// changing the netlist, the technology or a catalog silently
// invalidates everything it affects, and nothing else.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sync"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/analysis/store"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/report"
	"github.com/memtest/partialfaults/internal/request"
	"github.com/memtest/partialfaults/internal/stress"
)

// maxBodyBytes caps every request body. The largest body a client has
// reason to send — a batch of explicit-grid requests — is a few KiB.
const maxBodyBytes = 1 << 20

// maxBatchItems caps a batch, whose items each hold a whole response
// until it is encoded; tests and README send at most 5.
const maxBatchItems = 64

// Config parameterizes a Server.
type Config struct {
	// StoreDir, when non-empty, persists results as content-addressed
	// blobs under this directory. Empty means no result store.
	StoreDir string
	// Parallelism bounds concurrent simulations across ALL requests;
	// 0 means GOMAXPROCS.
	Parallelism int
	// Params tunes the analytical model; nil means behav.DefaultParams.
	Params *behav.Params
	// Tech selects the electrical technology; nil means dram.Default.
	Tech *dram.Technology
}

// Server is the analysis service. It is an http.Handler; all state is
// safe for concurrent use.
type Server struct {
	mux   *http.ServeMux
	env   *request.Env
	kinds map[string]serveFunc

	store *store.Store // nil when StoreDir is empty

	flights *flightGroup

	mu       sync.Mutex
	requests map[string]uint64
	// stressMatrices and stressCorners count stress matrices actually
	// computed (store hits and collapsed flights excluded) and the
	// corner pipelines they swept.
	stressMatrices uint64
	stressCorners  uint64
}

// serveFunc answers one cacheable request body: the result payload and
// whether it came from the store or from another caller's flight.
type serveFunc func(ctx context.Context, body io.Reader) (payload []byte, fromStore, collapsed bool, err error)

// New builds a Server, opening (or creating) the persistent store when
// configured.
func New(cfg Config) (*Server, error) {
	env, err := request.NewEnv(cfg.Params, cfg.Tech, cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Server{
		mux:      http.NewServeMux(),
		env:      env,
		flights:  newFlightGroup(),
		requests: map[string]uint64{},
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.store = st
	}

	s.kinds = map[string]serveFunc{
		"inventory": serve[request.Inventory](s, report.ToInventoryJSON),
		"coverage":  serve[request.Coverage](s, report.ToCoverageJSON),
		"twocell":   serve[request.TwoCell](s, report.ToTwoCellCertificateJSON),
		"matrix":    serve[request.Matrix](s, report.ToDetectionMatrixJSON),
		"predict":   serve[request.Predict](s, predictionJSON),
		"stress":    serve[request.Stress](s, s.stressJSON),
	}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	for kind := range s.kinds {
		s.mux.HandleFunc("POST /v1/"+kind, func(w http.ResponseWriter, r *http.Request) {
			s.countRequest(kind)
			payload, fromStore, collapsed, err := s.kinds[kind](r.Context(), http.MaxBytesReader(w, r.Body, maxBodyBytes))
			if err != nil {
				writeError(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			writeResult(w, payload, fromStore, collapsed)
		})
	}
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	return s, nil
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close always succeeds: every store write is synced and renamed into
// place before its request returns, so a Server holds nothing to flush
// or release.
func (s *Server) Close() error { return nil }

// --- the generic request path ---

// kindRequest is what the generic path needs of a request type.
type kindRequest[T, V any] interface {
	*T
	Normalize(*request.Env) error
	Key(*request.Env) store.Key
	Run(context.Context, *request.Env) (V, error)
}

// serve builds the serveFunc of request type T, rendering its result
// through view: store lookup, then singleflight on the key digest, then
// Run + store write-through. A store hit runs only decode, Normalize,
// Key and the lookup. The flight runs detached from ctx (see
// flightGroup.Do), so a caller that leaves early cancels nothing its
// followers still wait for.
func serve[T any, P kindRequest[T, V], V, W any](s *Server, view func(V) W) serveFunc {
	return func(ctx context.Context, body io.Reader) ([]byte, bool, bool, error) {
		q := P(new(T))
		if err := decode(body, q); err != nil {
			return nil, false, false, err
		}
		if err := q.Normalize(s.env); err != nil {
			return nil, false, false, err
		}
		key := q.Key(s.env)
		if s.store != nil {
			if buf, ok, err := s.store.Get(key); err != nil || ok {
				return buf, ok, false, err
			}
		}
		payload, collapsed, err := s.flights.Do(ctx, key.Digest(), func(ctx context.Context) ([]byte, error) {
			// Re-check under the flight: a concurrent leader may have
			// persisted the result between our miss and our takeoff.
			if s.store != nil {
				if buf, ok, err := s.store.Get(key); err != nil || ok {
					return buf, err
				}
			}
			v, err := q.Run(ctx, s.env)
			if err != nil {
				return nil, err
			}
			buf, err := json.Marshal(view(v))
			if err == nil && s.store != nil {
				err = s.store.Put(key, buf)
			}
			return buf, err
		})
		return payload, false, collapsed, err
	}
}

func (s *Server) countRequest(kind string) {
	s.mu.Lock()
	s.requests[kind]++
	s.mu.Unlock()
}

func decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return err
		}
		return request.BadRequest(fmt.Sprintf("bad request body: %v", err))
	}
	return nil
}

// writeResult writes the envelope of every cacheable response: the
// result payload plus serving metadata (never part of the stored blob).
func writeResult(w io.Writer, payload []byte, fromStore, collapsed bool) {
	fmt.Fprintf(w, `{"cached":%v,"collapsed":%v,"result":`, fromStore, collapsed)
	w.Write(payload)
	io.WriteString(w, "}\n")
}

func statusOf(err error) int {
	var tooLarge *http.MaxBytesError
	var bad request.BadRequest
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusOf(err))
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// FloatPredictionJSON is the open-defect float prediction payload.
type FloatPredictionJSON struct {
	Open      int      `json:"open"`
	Element   string   `json:"element"`
	Primary   []string `json:"primary,omitempty"`
	Secondary []string `json:"secondary,omitempty"`
	Unknown   []string `json:"unknown,omitempty"`
}

func predictionJSON(p request.Prediction) any {
	if p.Merges != nil {
		return report.ToMergePredictionJSON(*p.Merges)
	}
	return FloatPredictionJSON{
		Open: p.Open.ID, Element: p.Element,
		Primary: p.Floats.Primary, Secondary: p.Floats.Secondary, Unknown: p.Floats.Unknown,
	}
}

// stressJSON renders a computed stress matrix and counts it.
func (s *Server) stressJSON(res *stress.Result) report.StressMatrixJSON {
	s.mu.Lock()
	s.stressMatrices++
	s.stressCorners += uint64(len(res.Corners))
	s.mu.Unlock()
	return report.ToStressJSON(res)
}

// --- health and metrics ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"ok":true}`+"\n")
}

// MetricsResponse is the /v1/metrics payload.
type MetricsResponse struct {
	Requests map[string]uint64 `json:"requests"`
	// SingleflightCollapsed counts requests that joined another
	// caller's in-flight computation instead of starting their own.
	SingleflightCollapsed uint64        `json:"singleflight_collapsed"`
	Store                 *StoreMetrics `json:"store,omitempty"`
	// Trace reports traced-sweep work since boot: how many planes ran
	// in traced mode, how many grid points were simulated vs inferred
	// without simulation, and the resulting reduction factor.
	Trace struct {
		Planes    int     `json:"planes"`
		Simulated int     `json:"simulated"`
		Inferred  int     `json:"inferred"`
		Reduction float64 `json:"reduction"`
	} `json:"trace"`
	// Stress counts stress matrices actually computed (store hits and
	// collapsed singleflights excluded) and the corner pipelines swept.
	Stress struct {
		Matrices uint64 `json:"matrices"`
		Corners  uint64 `json:"corners"`
	} `json:"stress"`
	Models struct {
		Behav string `json:"behav"`
		Spice string `json:"spice"`
	} `json:"models"`
	Catalog string `json:"catalog"`
}

// StoreMetrics is the result store's traffic since boot and its size.
type StoreMetrics struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	Len    int    `json:"len"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var resp MetricsResponse
	s.mu.Lock()
	resp.Requests = maps.Clone(s.requests)
	resp.Stress.Matrices = s.stressMatrices
	resp.Stress.Corners = s.stressCorners
	s.mu.Unlock()
	resp.SingleflightCollapsed = s.flights.Collapsed()
	if s.store != nil {
		st := s.store.Stats()
		n, _ := s.store.Len()
		resp.Store = &StoreMetrics{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, Len: n}
	}
	ts, planes := s.env.Trace.Snapshot()
	resp.Trace.Planes = planes
	resp.Trace.Simulated = ts.Simulated()
	resp.Trace.Inferred = ts.Inferred
	resp.Trace.Reduction = ts.Reduction()
	resp.Models.Behav = string(s.env.BehavModel)
	resp.Models.Spice = string(s.env.SpiceModel)
	resp.Catalog = s.env.Catalog
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// --- batch ---

// BatchItem is one sub-request of a batch: an endpoint kind plus its
// body.
type BatchItem struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// BatchItemResult is one sub-response: the endpoint's full response
// body (envelope included) or its error.
type BatchItemResult struct {
	Kind   string          `json:"kind"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// handleBatch runs sub-requests concurrently through the kind table,
// the shared pool and the singleflight layer — identical items inside
// one batch collapse exactly like identical concurrent requests do. The
// items run on analysis.ForEach with as many workers as the pool has
// slots: more would only queue for its slots, each holding a goroutine
// and its flight's. The loop runs under context.Background, so every
// item answers, each under the request's context: a cancelled request
// gets one 504 per item.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.countRequest("batch")
	var q struct {
		Requests []BatchItem `json:"requests"`
	}
	if err := decode(http.MaxBytesReader(w, r.Body, maxBodyBytes), &q); err != nil {
		writeError(w, err)
		return
	}
	if len(q.Requests) == 0 || len(q.Requests) > maxBatchItems {
		writeError(w, request.BadRequest(fmt.Sprintf("a batch takes 1 to %d requests, not %d", maxBatchItems, len(q.Requests))))
		return
	}
	results := make([]BatchItemResult, len(q.Requests))
	// f never fails: each item's error goes into its result.
	_ = analysis.ForEach(context.Background(), len(q.Requests), s.env.Pool.Slots(), func(i int) error {
		results[i] = s.batchItem(r.Context(), q.Requests[i])
		return nil
	})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"responses": results})
}

// batchItem answers one batch item.
func (s *Server) batchItem(ctx context.Context, item BatchItem) BatchItemResult {
	if s.kinds[item.Kind] == nil {
		return BatchItemResult{Kind: item.Kind, Status: http.StatusBadRequest,
			Error: fmt.Sprintf("unknown batch kind %q", item.Kind)}
	}
	s.countRequest(item.Kind)
	payload, fromStore, collapsed, err := s.kinds[item.Kind](ctx, bytes.NewReader(item.Body))
	if err != nil {
		return BatchItemResult{Kind: item.Kind, Status: statusOf(err), Error: err.Error()}
	}
	var body bytes.Buffer
	writeResult(&body, payload, fromStore, collapsed)
	return BatchItemResult{Kind: item.Kind, Status: http.StatusOK, Body: body.Bytes()}
}
