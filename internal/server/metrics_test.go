package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/workload"
)

// newMetricsServer builds a server over a plain test backend and keeps
// the *server.Server handle so tests can snapshot its registry.
func newMetricsServer(t *testing.T, cfg server.Config) (*httptest.Server, *server.Server, *testBackend) {
	t.Helper()
	b := newTestBackend(t)
	cfg.Backend = b
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, b
}

// TestMetricsEndpoint: /metrics serves Prometheus text exposition and
// the HTTP-layer instruments advance with traffic.
func TestMetricsEndpoint(t *testing.T) {
	ts, srv, b := newMetricsServer(t, server.Config{Workers: 2, Shards: 1})
	for _, s := range workload.Candidates(2) {
		if _, err := b.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := postMatch(context.Background(), ts.URL, workload.Candidates(2)[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	// Read the whole answer: its end arrives only after the handler —
	// and the request instruments wrapped around it — returned.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: HTTP %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE coma_http_requests_total counter",
		`coma_http_requests_total{endpoint="match",class="2xx"} 1`,
		"# TYPE coma_http_request_seconds histogram",
		"coma_http_request_seconds_bucket{endpoint=\"match\",le=\"+Inf\"} 1",
		"coma_match_exec_seconds_count 1",
		"coma_match_queue_wait_seconds_count 1",
		"coma_match_workers 2",
		"coma_match_queue_depth 0",
		"coma_match_inflight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics() not ok with metrics enabled")
	}
	if got := m.Labeled("coma_http_requests_total", `endpoint="match",class="2xx"`); got != 1 {
		t.Errorf("snapshot match 2xx counter = %v, want 1", got)
	}
	if got := m.Value("coma_match_exec_seconds_count"); got != 1 {
		t.Errorf("snapshot exec count = %v, want 1", got)
	}
}

// TestMetricsDisabled: DisableMetrics removes the endpoint and the
// registry but leaves the handlers working.
func TestMetricsDisabled(t *testing.T) {
	ts, srv, _ := newMetricsServer(t, server.Config{Workers: 1, Shards: 1, DisableMetrics: true})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics with metrics disabled: HTTP %d, want 404", resp.StatusCode)
	}
	if _, ok := srv.Metrics(); ok {
		t.Error("Metrics() ok with metrics disabled")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz with metrics disabled: HTTP %d, want 200", resp.StatusCode)
	}
}

// parseRetryAfter asserts a shed response's Retry-After is a positive
// integer number of seconds within the derivation's clamp.
func parseRetryAfter(t *testing.T, resp *http.Response) int {
	t.Helper()
	h := resp.Header.Get("Retry-After")
	if h == "" {
		t.Fatal("shed response carries no Retry-After")
	}
	secs, err := strconv.Atoi(h)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", h, err)
	}
	if secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %d outside [1, 60]", secs)
	}
	return secs
}

// TestRetryAfterDerived: the shed paths derive Retry-After from queue
// occupancy — a full queue yields a clamped positive hint, a draining
// server floors it at 5s — and count each shed by reason.
func TestRetryAfterDerived(t *testing.T) {
	bb := &blockingBackend{testBackend: newTestBackend(t), gate: make(chan struct{})}
	s := workload.Candidates(1)[0]
	if _, err := bb.PutSchema(s); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Backend: bb, Workers: 1, QueueLimit: 1, Shards: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(bb.gate) })

	done := make(chan struct{}, 2)
	launch := func() {
		go func() {
			defer func() { done <- struct{}{} }()
			resp, err := postMatch(context.Background(), ts.URL, s.Name)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	launch() // occupies the one worker slot
	waitReady(t, ts.URL, func(r server.Readiness) bool { return r.InFlight == 1 })
	launch() // parks in the queue
	waitReady(t, ts.URL, func(r server.Readiness) bool { return r.Queued == 1 })

	resp, err := postMatch(context.Background(), ts.URL, s.Name)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow match: HTTP %d, want 429", resp.StatusCode)
	}
	// One queued + one in flight + this request at the 1s no-samples
	// default mean over one slot: the derivation must see the occupancy,
	// not a hardcoded 1.
	if secs := parseRetryAfter(t, resp); secs < 3 {
		t.Errorf("queue-full Retry-After = %d, want >= 3 with 2 requests ahead", secs)
	}

	srv.Drain()
	resp, err = postMatch(context.Background(), ts.URL, s.Name)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining match: HTTP %d, want 503", resp.StatusCode)
	}
	if secs := parseRetryAfter(t, resp); secs < 5 {
		t.Errorf("draining Retry-After = %d, want >= 5", secs)
	}

	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics() not ok")
	}
	if got := m.Labeled("coma_match_shed_total", `reason="queue_full"`); got != 1 {
		t.Errorf("queue_full shed counter = %v, want 1", got)
	}
	if got := m.Labeled("coma_match_shed_total", `reason="draining"`); got != 1 {
		t.Errorf("draining shed counter = %v, want 1", got)
	}
}
