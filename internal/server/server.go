// Package server puts a network front-end over a COMA repository: an
// HTTP/JSON API exposing the repository-server operations the paper's
// architecture implies (Do & Rahm, VLDB 2002, Section 3) — import a
// schema into the store, list what is stored, and match an incoming
// schema against every stored one in a single scheduled batch.
//
// Endpoints:
//
//	GET    /healthz          liveness + store size
//	GET    /readyz           readiness + admission queue state
//	GET    /metrics          Prometheus text-format metrics
//	GET    /schemas          stored schema names and sizes
//	PUT    /schemas/{name}   import an inline schema into the store
//	GET    /schemas/{name}   one stored schema's path enumeration
//	DELETE /schemas/{name}   remove a stored schema
//	POST   /match            batch-match an inline or stored schema
//
// Match execution is the expensive operation, so the server bounds the
// number of concurrently executing match requests with a semaphore
// sized to the engine's worker count: excess requests queue (and abort
// when the client goes away) instead of piling up unboundedly. Each
// admitted match still spreads over its own worker budget, so the
// worst-case CPU oversubscription is workers × workers, not
// request-count × workers.
//
// The queue itself is bounded too (Config.QueueLimit): beyond it the
// server sheds load with a JSON 429 carrying Retry-After, and a
// request that waits longer than Config.QueueTimeout for a slot is
// answered 503 — the two standard degradation modes of an overloaded
// matcher, preferred over unbounded latency. An admitted match runs
// under the request's context, bounded by Config.MatchTimeout when
// set: a canceled or timed-out request stops the pipeline
// cooperatively (pair and row claims stop, pooled matrices are
// recycled) instead of burning workers for a caller that is gone.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/repository"
	"repro/internal/schema"
)

// Match is one ranked outcome of Backend.MatchIncoming.
type Match struct {
	// Schema is the stored candidate schema.
	Schema *schema.Schema
	// Result is the batch match result for (incoming, Schema).
	Result *core.Result
}

// Backend is what the server serves: repository storage plus the batch
// match operation. The public coma package provides it for a sharded
// repository — N storage shards, one match engine — so the shard count
// is a deployment choice invisible to clients.
type Backend interface {
	// PutSchema stores (or replaces) a schema, reporting whether an
	// earlier schema of the same name was replaced — atomically, so
	// concurrent imports of one name agree on who created it.
	PutSchema(s *schema.Schema) (replaced bool, err error)
	GetSchema(name string) (*schema.Schema, bool)
	// DeleteSchema removes a schema, reporting whether it existed.
	DeleteSchema(name string) (existed bool, err error)
	SchemaNames() []string
	Stats() repository.Stats
	// MatchIncoming batch-matches the incoming schema against every
	// stored schema (excluding same-named ones), returning outcomes
	// ordered by descending combined schema similarity; topK > 0 keeps
	// only the K best. A done ctx stops the match cooperatively and
	// returns the cancellation cause. With allowPartial, the backend
	// degrades shards with failing candidates to ShardFailures instead
	// of failing the whole match; unsharded backends return no
	// failures. With exhaustive, the backend bypasses its candidate-
	// pruning index (if any) and runs the full pipeline on every
	// candidate — results are bit-identical either way.
	MatchIncoming(ctx context.Context, incoming *schema.Schema, topK int, allowPartial, exhaustive bool) ([]Match, []ShardFailure, error)
	// IndexStats reports the candidate-pruning index state for /readyz;
	// ok is false when the backend matches exhaustively only.
	IndexStats() (stats IndexReadiness, ok bool)
	// Recovery reports each shard's startup log-replay outcome for
	// /readyz; nil when the backend has no durable store.
	Recovery() []RecoveryStatus
	// PageCache reports the repository page buffer pool's state for
	// /readyz; ok is false when the backend has no paged store.
	PageCache() (status PageCacheStatus, ok bool)
	// WarmStart reports the startup warm-restore outcome for /readyz;
	// ok is false when the backend never restores warm state.
	WarmStart() (status WarmStartStatus, ok bool)
}

// Config assembles a Server.
type Config struct {
	// Backend is the served repository. Required.
	Backend Backend
	// Workers bounds the concurrently executing match requests: the
	// semaphore holds match.ResolveWorkers(Workers) slots (<= 0 =
	// NumCPU), mirroring the match engine's own worker knob. It is an
	// admission bound, not a CPU bound — every admitted match runs its
	// own Workers-slot budget.
	Workers int
	// Shards is reported by /healthz (1 for a single-store backend).
	Shards int
	// MaxBodyBytes caps request bodies (PUT /schemas, POST /match);
	// <= 0 selects DefaultMaxBodyBytes. An oversized upload is cut off
	// at the cap and answered with a uniform JSON 413 instead of being
	// buffered onto the heap.
	MaxBodyBytes int64
	// MatchTimeout, when positive, bounds each admitted match request:
	// the match runs under a deadline that far out and answers 504 on
	// expiry, with the pipeline stopped cooperatively. 0 disables the
	// per-request deadline (client disconnects still cancel).
	MatchTimeout time.Duration
	// QueueLimit bounds the admission queue: match requests beyond it
	// are shed with a JSON 429 + Retry-After instead of waiting. 0
	// selects DefaultQueueLimit; negative means unbounded.
	QueueLimit int
	// QueueTimeout bounds how long a match request may wait for an
	// execution slot before it is answered 503. 0 selects
	// DefaultQueueTimeout; negative disables the wait bound.
	QueueTimeout time.Duration
	// FaultHook, when set, is consulted at the start of every mutating
	// or matching handler with the operation name ("match", "put",
	// "delete"); a non-nil return is answered as a 500 without touching
	// the backend. It exists for fault-injection tests and chaos
	// probes; leave nil in production.
	FaultHook func(op string) error
	// DisableMetrics turns the metrics registry and the GET /metrics
	// endpoint off. Metrics are on by default: the instruments are
	// lock-free atomics, so serving without them buys nothing.
	DisableMetrics bool
	// RequestLog, when set, receives one structured line per finished
	// request (method, path, status, elapsed, remote).
	RequestLog *slog.Logger
}

// Server is the HTTP front-end. It implements http.Handler.
type Server struct {
	backend Backend
	shards  int
	mux     *http.ServeMux
	// sem bounds concurrently executing match requests.
	sem chan struct{}
	// maxBody caps request bodies.
	maxBody int64
	// matchTimeout bounds each admitted match (0 = none).
	matchTimeout time.Duration
	// queueLimit bounds waiting match requests (0 = unbounded).
	queueLimit int
	// queueTimeout bounds the slot wait (0 = unbounded).
	queueTimeout time.Duration
	faultHook    func(op string) error
	// queued/inflight feed /readyz; draining flips it to 503.
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	// reg and the instruments below are nil when metrics are disabled;
	// every observation site is nil-safe, so no handler branches on it.
	reg          *metrics.Registry
	httpRequests *metrics.CounterVec
	httpSeconds  *metrics.HistogramVec
	matchExec    *metrics.Histogram
	queueWait    *metrics.Histogram
	shed         *metrics.CounterVec
	reqLog       *slog.Logger
}

// New builds a Server over the config's backend.
func New(cfg Config) *Server {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	queueLimit := cfg.QueueLimit
	if queueLimit == 0 {
		queueLimit = DefaultQueueLimit
	} else if queueLimit < 0 {
		queueLimit = 0
	}
	queueTimeout := cfg.QueueTimeout
	if queueTimeout == 0 {
		queueTimeout = DefaultQueueTimeout
	} else if queueTimeout < 0 {
		queueTimeout = 0
	}
	s := &Server{
		backend:      cfg.Backend,
		shards:       shards,
		mux:          http.NewServeMux(),
		sem:          make(chan struct{}, match.ResolveWorkers(cfg.Workers)),
		maxBody:      maxBody,
		matchTimeout: cfg.MatchTimeout,
		queueLimit:   queueLimit,
		queueTimeout: queueTimeout,
		faultHook:    cfg.FaultHook,
		reqLog:       cfg.RequestLog,
	}
	s.initMetrics(cfg)
	if s.reg != nil {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /schemas", s.handleListSchemas)
	s.mux.HandleFunc("PUT /schemas/{name}", s.handlePutSchema)
	s.mux.HandleFunc("GET /schemas/{name}", s.handleGetSchema)
	s.mux.HandleFunc("DELETE /schemas/{name}", s.handleDeleteSchema)
	s.mux.HandleFunc("POST /match", s.handleMatch)
	return s
}

// ServeHTTP implements http.Handler. With metrics or request logging
// on, every request is timed and its status captured; otherwise the
// mux is hit directly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil && s.reqLog == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r)
	status := rec.status
	if status == 0 {
		// Nothing written: ServeMux answered with an implicit 200 (e.g.
		// a handler that returned without writing) — record it as such.
		status = http.StatusOK
	}
	s.observeRequest(r, status, time.Since(start))
}

// Drain flips the server into draining mode ahead of graceful
// shutdown: /readyz answers 503 so load balancers stop routing, and
// new match requests are shed with 503 + Retry-After, while requests
// already queued or in flight complete normally (http.Server.Shutdown
// waits for them). Draining is one-way; restart the process to serve
// again.
func (s *Server) Drain() { s.draining.Store(true) }

// DefaultMaxBodyBytes is the default request body cap; schema
// documents are text and stay far below this.
const DefaultMaxBodyBytes = 16 << 20

// DefaultQueueLimit is the default bound on match requests waiting for
// an execution slot; more than this many waiters answer 429.
const DefaultQueueLimit = 64

// DefaultQueueTimeout is the default bound on one match request's wait
// for an execution slot; longer waits answer 503.
const DefaultQueueTimeout = 30 * time.Second

// statusClientClosedRequest is the conventional (nginx) status for a
// request aborted by its own client; it only ever reaches logs — the
// client that would read it is gone.
const statusClientClosedRequest = 499

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing sensible to do with a mid-body write error
}

// writeError writes the uniform JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// bodyError classifies a request body decode failure: 413 when the
// body exceeded the server's cap (http.MaxBytesReader cuts the read
// off before the oversized payload reaches the heap), 400 with the
// given message otherwise.
func bodyError(err error, format string, args ...any) (int, error) {
	if maxErr := (*http.MaxBytesError)(nil); errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", maxErr.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf(format, args...)
}

// readJSON decodes a bounded JSON request body into v, returning the
// HTTP status the caller should answer a failure with.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError(err, "invalid JSON body: %v", err)
	}
	// Trailing garbage after the document is a malformed request too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return bodyError(err, "trailing data after JSON body")
	}
	return 0, nil
}

// fault consults the injection hook; a non-nil error aborts the
// handler with a 500 before the backend is touched.
func (s *Server) fault(op string) error {
	if s.faultHook == nil {
		return nil
	}
	return s.faultHook(op)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:  "ok",
		Schemas: s.backend.Stats().Schemas,
		Shards:  s.shards,
	})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := Readiness{
		Status:     "ok",
		Queued:     int(s.queued.Load()),
		InFlight:   int(s.inflight.Load()),
		Workers:    cap(s.sem),
		QueueLimit: s.queueLimit,
	}
	if st, ok := s.backend.IndexStats(); ok {
		ready.CandidateIndex = &st
	}
	ready.Recovery = s.backend.Recovery()
	if pc, ok := s.backend.PageCache(); ok {
		ready.PageCache = &pc
	}
	if ws, ok := s.backend.WarmStart(); ok {
		ready.WarmStart = &ws
	}
	if s.draining.Load() {
		ready.Status = "draining"
		ready.Draining = true
		writeJSON(w, http.StatusServiceUnavailable, ready)
		return
	}
	writeJSON(w, http.StatusOK, ready)
}

func (s *Server) handleListSchemas(w http.ResponseWriter, r *http.Request) {
	names := s.backend.SchemaNames()
	out := SchemasResponse{Schemas: make([]SchemaInfo, 0, len(names))}
	for _, n := range names {
		info := SchemaInfo{Name: n}
		if sc, ok := s.backend.GetSchema(n); ok {
			info.Paths = len(sc.Paths())
		}
		out.Schemas = append(out.Schemas, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePutSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.fault("put"); err != nil {
		writeError(w, http.StatusInternalServerError, "store schema %s: %v", name, err)
		return
	}
	var p SchemaPayload
	if status, err := s.readJSON(w, r, &p); err != nil {
		writeError(w, status, "%v", err)
		return
	}
	// The URL is authoritative for the name; a payload name, when
	// present, must agree — silently storing under a different key than
	// the request line names would be a trap.
	if p.Name != "" && p.Name != name {
		writeError(w, http.StatusBadRequest,
			"payload schema name %q contradicts URL name %q", p.Name, name)
		return
	}
	p.Name = name
	if !p.Inline() {
		writeError(w, http.StatusBadRequest, "PUT /schemas/%s requires an inline schema (format + source)", name)
		return
	}
	sc, err := ParseSchema(p)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	replaced, err := s.backend.PutSchema(sc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store schema %s: %v", name, err)
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, SchemaInfo{Name: sc.Name, Paths: len(sc.Paths())})
}

func (s *Server) handleGetSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sc, ok := s.backend.GetSchema(name)
	if !ok {
		writeError(w, http.StatusNotFound, "schema %q not found", name)
		return
	}
	detail := SchemaDetail{Name: sc.Name}
	for _, p := range sc.Paths() {
		detail.Paths = append(detail.Paths, p.String())
	}
	writeJSON(w, http.StatusOK, detail)
}

func (s *Server) handleDeleteSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.fault("delete"); err != nil {
		writeError(w, http.StatusInternalServerError, "delete schema %s: %v", name, err)
		return
	}
	existed, err := s.backend.DeleteSchema(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "delete schema %s: %v", name, err)
		return
	}
	if !existed {
		writeError(w, http.StatusNotFound, "schema %q not found", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	if err := s.fault("match"); err != nil {
		writeError(w, http.StatusInternalServerError, "match: %v", err)
		return
	}
	if s.draining.Load() {
		s.shedResponse(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	var req MatchRequest
	if status, err := s.readJSON(w, r, &req); err != nil {
		writeError(w, status, "%v", err)
		return
	}
	if req.TopK < 0 {
		writeError(w, http.StatusBadRequest, "negative topK %d", req.TopK)
		return
	}
	var incoming *schema.Schema
	if req.Schema.Inline() {
		var err error
		if incoming, err = ParseSchema(req.Schema); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
	} else {
		if req.Schema.Name == "" {
			writeError(w, http.StatusBadRequest, "match request names no schema")
			return
		}
		var ok bool
		if incoming, ok = s.backend.GetSchema(req.Schema.Name); !ok {
			writeError(w, http.StatusNotFound, "schema %q not found", req.Schema.Name)
			return
		}
	}

	// Bounded admission: shed load once more requests wait for a slot
	// than the queue bound allows — an over-full queue only converts
	// overload into latency, and Retry-After (derived from occupancy
	// and observed match time) tells well-behaved clients when to come
	// back.
	if n := s.queued.Add(1); s.queueLimit > 0 && n > int64(s.queueLimit) {
		s.queued.Add(-1)
		s.shedResponse(w, http.StatusTooManyRequests, "queue_full", "match queue is full")
		return
	}
	// Wait for an execution slot, bounded by the queue timeout, and
	// give up when the client does — a queued request whose caller is
	// gone would only burn the budget.
	var queueDeadline <-chan time.Time
	if s.queueTimeout > 0 {
		t := time.NewTimer(s.queueTimeout)
		defer t.Stop()
		queueDeadline = t.C
	}
	waitStart := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		s.queueWait.Observe(time.Since(waitStart).Seconds())
		defer func() { <-s.sem }()
	case <-queueDeadline:
		s.queued.Add(-1)
		s.shedResponse(w, http.StatusServiceUnavailable, "queue_timeout",
			"no match slot within %s", s.queueTimeout)
		return
	case <-r.Context().Done():
		s.queued.Add(-1)
		s.shed.With("client_closed").Inc()
		writeError(w, statusClientClosedRequest, "request canceled while queued")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// The match runs under the request context — a disconnecting
	// client cancels it — tightened by the per-request deadline when
	// configured. The pipeline stops cooperatively either way: workers
	// stop claiming pairs and rows, and pooled matrices are recycled.
	mctx := r.Context()
	if s.matchTimeout > 0 {
		var cancel context.CancelFunc
		mctx, cancel = context.WithTimeout(mctx, s.matchTimeout)
		defer cancel()
	}
	execStart := time.Now()
	matches, failures, err := s.backend.MatchIncoming(mctx, incoming, req.TopK, req.AllowPartial, req.Exhaustive)
	s.matchExec.Observe(time.Since(execStart).Seconds())
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout,
				"match %s: deadline of %s exceeded", incoming.Name, s.matchTimeout)
		case errors.Is(err, context.Canceled):
			writeError(w, statusClientClosedRequest, "match %s: canceled", incoming.Name)
		default:
			writeError(w, http.StatusInternalServerError, "match %s: %v", incoming.Name, err)
		}
		return
	}
	resp := MatchResponse{
		Incoming:     incoming.Name,
		Candidates:   make([]MatchCandidate, 0, len(matches)),
		Partial:      len(failures) > 0,
		FailedShards: failures,
	}
	for _, m := range matches {
		resp.Candidates = append(resp.Candidates, MatchCandidate{
			Schema:          m.Schema.Name,
			SchemaSim:       m.Result.SchemaSim,
			Correspondences: WireMapping(m.Result.Mapping),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
