package coma_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	coma "repro"
	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/simcube"
)

// slowMatcher stretches every pair to the configured delay while
// polling the match context's cancellation, so tests can hold a match
// in flight and verify that cancellation cuts through it cooperatively
// instead of burning the full delay.
type slowMatcher struct {
	inner coma.Matcher
	delay atomic.Int64 // nanoseconds per pair
}

func (m *slowMatcher) Name() string { return m.inner.Name() }

func (m *slowMatcher) Match(ctx *match.Context, s1, s2 *schema.Schema) *simcube.Matrix {
	deadline := time.Now().Add(time.Duration(m.delay.Load()))
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return nil // the scheduler's post-pair check reports the cause
		}
		time.Sleep(time.Millisecond)
	}
	return m.inner.Match(ctx, s1, s2)
}

// namedFaultMatcher fails every pair whose candidate carries the given
// name — the served form of the core-level fault injection wrapper,
// keyed by name because server-side instances are rebuilt from the log.
type namedFaultMatcher struct {
	inner coma.Matcher
	fail  string
}

func (m namedFaultMatcher) Name() string { return m.inner.Name() }

func (m namedFaultMatcher) Match(ctx *match.Context, s1, s2 *schema.Schema) *simcube.Matrix {
	if s2.Name == m.fail {
		return nil
	}
	return m.inner.Match(ctx, s1, s2)
}

func probePayload(seed int) coma.SchemaPayload {
	return coma.SchemaPayload{Name: "probe", Format: "sql", Source: tinyDDL(seed)}
}

// waitDrained polls /readyz until no match request is queued or in
// flight. The bound is the test's cooperative-stop assertion: a
// non-cooperative matcher would hold its slot for the full injected
// delay, far past the deadline.
func waitDrained(t *testing.T, client *coma.Client, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		ready, err := client.Ready(context.Background())
		if err == nil && ready.Queued == 0 && ready.InFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not drain within %v (readyz: %+v, err %v) — cancellation not cooperative", within, ready, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServedMatchCancellation: a canceled POST /match returns
// promptly, stops the batch server-side well before the injected
// per-pair delay elapses, leaks no analyzer entries, and leaves the
// server fully healthy — on a single shard and with the candidates
// spread across shards.
func TestServedMatchCancellation(t *testing.T) {
	for _, shards := range servedShardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testServedMatchCancellation(t, shards)
		})
	}
}

func testServedMatchCancellation(t *testing.T, shards int) {
	const stored = 4
	slow := &slowMatcher{inner: match.NewName()}
	ts, repo := newServedRepo(t, shards, stored, coma.WithMatcherInstances(slow))
	engine := repo.Engine()
	client := coma.NewClient(ts.URL)
	ctx := context.Background()

	// Baseline with no delay: the matcher set serves a full ranking.
	resp, err := client.Match(ctx, coma.MatchRequest{Schema: probePayload(42)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != stored {
		t.Fatalf("baseline match: %d candidates, want %d", len(resp.Candidates), stored)
	}

	slow.delay.Store(int64(3 * time.Second))
	for i := 0; i < 4; i++ {
		cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		start := time.Now()
		_, err := client.Match(cctx, coma.MatchRequest{Schema: probePayload(50 + i)})
		cancel()
		if err == nil {
			t.Fatal("canceled match succeeded")
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("canceled match returned after %v, want prompt return", el)
		}
	}
	// Server-side cooperative stop: the canceled batches must release
	// their slots far sooner than the 3s a non-cooperative pair burns.
	waitDrained(t, client, 1500*time.Millisecond)
	if got := engine.CachedAnalyses(); got > stored {
		t.Errorf("canceled matches leaked analyses: %d cached, stored %d", got, stored)
	}

	// The server stays healthy: the next uncanceled match succeeds and
	// the steady-state cache holds exactly the stored schemas.
	slow.delay.Store(0)
	resp, err = client.Match(ctx, coma.MatchRequest{Schema: probePayload(42)})
	if err != nil {
		t.Fatalf("match after cancellations: %v", err)
	}
	if len(resp.Candidates) != stored {
		t.Errorf("match after cancellations: %d candidates, want %d", len(resp.Candidates), stored)
	}
	if got := engine.CachedAnalyses(); got != stored {
		t.Errorf("analyzer holds %d analyses after recovery, want %d (stored only)", got, stored)
	}
}

// TestServedPartialShardFailure: an injected matcher fault in one
// shard fails a strict match outright, while AllowPartial degrades it
// to a ranking over the surviving shards — bit-identical, per
// candidate, to a fresh local engine — naming the dropped shard.
func TestServedPartialShardFailure(t *testing.T) {
	const shards, stored = 3, 6
	const badName = "Stored2"
	repo, err := coma.OpenShardedRepository(filepath.Join(t.TempDir(), "shards"), shards,
		coma.WithMatcherInstances(namedFaultMatcher{inner: match.NewName(), fail: badName}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	for i := 0; i < stored; i++ {
		s, err := coma.LoadSQL(fmt.Sprintf("Stored%d", i), tinyDDL(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	badShard := -1
	lost := map[string]bool{}
	for i := 0; i < shards; i++ {
		for _, s := range repo.ShardSchemas(i) {
			if s.Name == badName {
				badShard = i
			}
		}
	}
	if badShard < 0 {
		t.Fatalf("%s not stored in any shard", badName)
	}
	for _, s := range repo.ShardSchemas(badShard) {
		lost[s.Name] = true
	}
	ts := httptest.NewServer(repo.Handler())
	t.Cleanup(ts.Close)
	client := coma.NewClient(ts.URL)
	ctx := context.Background()

	// Strict: the injected fault fails the whole request.
	if _, err := client.Match(ctx, coma.MatchRequest{Schema: probePayload(42)}); err == nil ||
		!strings.Contains(err.Error(), "HTTP 500") {
		t.Fatalf("strict match with injected fault: err = %v, want HTTP 500", err)
	}

	resp, err := client.Match(ctx, coma.MatchRequest{Schema: probePayload(42), AllowPartial: true})
	if err != nil {
		t.Fatalf("partial match: %v", err)
	}
	if !resp.Partial {
		t.Error("degraded response not marked Partial")
	}
	if len(resp.FailedShards) != 1 || resp.FailedShards[0].Shard != badShard ||
		resp.FailedShards[0].Error == "" {
		t.Fatalf("failed shards = %+v, want exactly shard %d with a message", resp.FailedShards, badShard)
	}
	if want := stored - len(lost); len(resp.Candidates) != want {
		t.Fatalf("partial ranking has %d candidates, want %d (survivors)", len(resp.Candidates), want)
	}

	// Surviving candidates are bit-identical to a fresh local engine
	// over the same matcher set.
	fresh, err := coma.NewEngine(coma.WithMatcherInstances(match.NewName()))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := coma.LoadSQL("probe", tinyDDL(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range resp.Candidates {
		if lost[cand.Schema] {
			t.Fatalf("candidate %q belongs to the failed shard %d", cand.Schema, badShard)
		}
		seed := 0
		if _, err := fmt.Sscanf(cand.Schema, "Stored%d", &seed); err != nil {
			t.Fatalf("unexpected candidate %q", cand.Schema)
		}
		local, err := coma.LoadSQL(cand.Schema, tinyDDL(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Match(probe, local)
		if err != nil {
			t.Fatal(err)
		}
		if cand.SchemaSim != want.SchemaSim {
			t.Errorf("surviving %s similarity %v, fresh engine %v", cand.Schema, cand.SchemaSim, want.SchemaSim)
		}
	}

	// TopK composes with degradation: the shortlist is cut over the
	// surviving shards only.
	resp, err = client.Match(ctx, coma.MatchRequest{Schema: probePayload(42), TopK: 2, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || len(resp.Candidates) != 2 {
		t.Errorf("partial TopK: partial=%v candidates=%d, want true/2", resp.Partial, len(resp.Candidates))
	}
	for _, cand := range resp.Candidates {
		if lost[cand.Schema] {
			t.Errorf("partial TopK kept failed-shard candidate %q", cand.Schema)
		}
	}
}

// TestClientRetryFlaky: WithRetry rides out transient 5xx answers from
// a flaky server, reusing one Idempotency-Key across a POST's
// attempts, while non-retryable statuses and retry-less clients fail
// on the first answer.
func TestClientRetryFlaky(t *testing.T) {
	var calls atomic.Int32
	var mode atomic.Int32 // 0: 503 twice then OK; 1: always 400; 2: always 503
	var mu sync.Mutex
	var keys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/match" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		n := calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		switch {
		case mode.Load() == 1:
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":"malformed request"}`)
		case mode.Load() == 2 || n <= 2:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"transient outage"}`)
		default:
			fmt.Fprint(w, `{"incoming":"probe","candidates":[{"schema":"Stored1","schemaSim":0.5}]}`)
		}
	}))
	t.Cleanup(ts.Close)
	ctx := context.Background()
	req := coma.MatchRequest{Schema: probePayload(1)}

	retrying := coma.NewClient(ts.URL,
		coma.WithRetry(4), coma.WithRetryBackoff(time.Millisecond, 4*time.Millisecond))
	resp, err := retrying.Match(ctx, req)
	if err != nil {
		t.Fatalf("retrying client failed against flaky server: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("flaky server answered %d calls, want 3 (two 503s + success)", got)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Schema != "Stored1" {
		t.Errorf("retried match decoded %+v", resp.Candidates)
	}
	mu.Lock()
	if len(keys) != 3 || keys[0] == "" || keys[0] != keys[1] || keys[1] != keys[2] {
		t.Errorf("idempotency keys across attempts = %q, want one non-empty key reused", keys)
	}
	mu.Unlock()

	// Non-retryable status: a single attempt, even with retries armed.
	mode.Store(1)
	calls.Store(0)
	if _, err := retrying.Match(ctx, req); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("400 answer: err = %v, want HTTP 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("non-retryable status retried: %d calls, want 1", got)
	}

	// A retry-less client fails on the first transient answer.
	mode.Store(2)
	calls.Store(0)
	plain := coma.NewClient(ts.URL)
	if _, err := plain.Match(ctx, req); err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Errorf("retry-less client: err = %v, want HTTP 503", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("retry-less client made %d calls, want 1", got)
	}

	// Cancellation wins over backoff: a done context stops the retry
	// loop instead of sleeping through it.
	slowRetry := coma.NewClient(ts.URL,
		coma.WithRetry(10), coma.WithRetryBackoff(100*time.Millisecond, time.Second))
	cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := slowRetry.Match(cctx, req); err == nil {
		t.Error("canceled retry loop succeeded")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("canceled retry loop returned after %v, want prompt return", el)
	}
}

// TestHandlerDrain: Drain flips readiness to 503 and sheds new matches
// while liveness and reads stay up — the probe split load balancers
// rely on during graceful shutdown.
func TestHandlerDrain(t *testing.T) {
	repo, err := coma.OpenShardedRepository(filepath.Join(t.TempDir(), "drain"), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	for i := 0; i < 2; i++ {
		s, err := coma.LoadSQL(fmt.Sprintf("Stored%d", i), tinyDDL(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	handler := repo.Handler()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	client := coma.NewClient(ts.URL)
	ctx := context.Background()

	ready, err := client.Ready(ctx)
	if err != nil {
		t.Fatalf("readyz before drain: %v", err)
	}
	if ready.Status != "ok" || ready.Draining || ready.Workers < 1 {
		t.Errorf("readiness before drain = %+v", ready)
	}

	handler.Drain()
	if _, err := client.Ready(ctx); err == nil {
		t.Error("readyz answered ok while draining")
	}
	if _, err := client.Match(ctx, coma.MatchRequest{Schema: probePayload(9)}); err == nil ||
		!strings.Contains(err.Error(), "HTTP 503") {
		t.Errorf("match while draining: err = %v, want HTTP 503", err)
	}
	// Liveness and reads survive the drain.
	if h, err := client.Health(ctx); err != nil || h.Status != "ok" {
		t.Errorf("healthz while draining: %+v, %v", h, err)
	}
	if infos, err := client.Schemas(ctx); err != nil || len(infos) != 2 {
		t.Errorf("schemas while draining: %d infos, %v", len(infos), err)
	}
}
