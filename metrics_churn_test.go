package coma_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	coma "repro"
	"repro/internal/workload"
)

// monotonicSeries reports whether a series must never decrease:
// counters and histogram accumulations are monotonic, gauges (queue
// depth, cache entries, schema count) legitimately fluctuate.
func monotonicSeries(name string) bool {
	return strings.HasSuffix(name, "_total") ||
		strings.HasSuffix(name, "_count") ||
		strings.HasSuffix(name, "_sum")
}

// TestMetricsMonotonicUnderChurn hammers a served sharded repository
// with concurrent PUT/DELETE/match churn while a watcher snapshots the
// metrics registry the whole time: every counter-like series must be
// monotonic across snapshots, and afterwards the request counter must
// equal exactly the number of requests issued — no lost or double
// counts under contention.
func TestMetricsMonotonicUnderChurn(t *testing.T) {
	repo, err := coma.OpenShardedRepository(filepath.Join(t.TempDir(), "churn"), 2,
		coma.WithSyncPolicy(coma.SyncNone()),
		coma.WithPersistentColumnCache(),
		coma.WithCandidateIndex())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	handler := repo.Handler()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	client := coma.NewClient(ts.URL)
	ctx := context.Background()

	cands := workload.Candidates(12)
	stable := cands[:4] // always stored: the match targets
	churn := cands[4:]  // put and deleted concurrently, two per worker
	for _, s := range stable {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	const iters = 5
	var requests atomic.Int64
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		prev := make(map[string]float64)
		for {
			m, ok := handler.Metrics()
			if !ok {
				t.Error("Metrics() not ok on default handler")
				return
			}
			for _, s := range m.Samples {
				if !monotonicSeries(s.Name) {
					continue
				}
				key := s.Name + "|" + s.Labels
				if s.Value < prev[key] {
					t.Errorf("series %s{%s} went backwards: %v -> %v",
						s.Name, s.Labels, prev[key], s.Value)
				}
				prev[key] = s.Value
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := churn[w*2 : w*2+2]
			for i := 0; i < iters; i++ {
				s := mine[i%2]
				if _, err := client.PutSchemaGraph(ctx, s); err != nil {
					t.Error(err)
				}
				requests.Add(1)
				if _, err := client.MatchStored(ctx, stable[w%len(stable)].Name, 3); err != nil {
					t.Error(err)
				}
				requests.Add(1)
				if err := client.DeleteSchema(ctx, s.Name); err != nil {
					t.Error(err)
				}
				requests.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-watcherDone

	// A request is counted once its handler returns, which can be just
	// after the client has decoded the response: wait for the last count
	// to land (bounded), then require the exact total.
	want := float64(requests.Load())
	var m coma.ServerMetrics
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var ok bool
		if m, ok = handler.Metrics(); !ok {
			t.Fatal("Metrics() not ok after churn")
		}
		if m.Sum("coma_http_requests_total") >= want || time.Now().After(deadline) {
			break
		}
	}
	if got := m.Sum("coma_http_requests_total"); got != want {
		t.Errorf("coma_http_requests_total = %v, want %v (requests issued)", got, want)
	}
	if got, want := m.Value("coma_match_exec_seconds_count"), float64(workers*iters); got != want {
		t.Errorf("coma_match_exec_seconds_count = %v, want %v (matches executed)", got, want)
	}
	if got := m.Sum("coma_analyzer_cache_hits_total"); got == 0 {
		t.Error("coma_analyzer_cache_hits_total stayed 0 across a stored-schema match workload")
	}
	if got := m.Sum("coma_prune_batches_total"); got == 0 {
		t.Error("coma_prune_batches_total stayed 0 with the candidate index enabled")
	}
}
