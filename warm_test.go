package coma_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	coma "repro"
	"repro/internal/dict"
	"repro/internal/importer"
	"repro/internal/workload"
)

// totalAnalyzerMisses reads the store engine's analyzer-cache miss
// counter — the "did anything re-analyze?" probe of the warm-restart
// tests.
func totalAnalyzerMisses(repo *coma.ShardedRepository) uint64 {
	return repo.Engine().AnalyzerCacheStats().Misses
}

// assertMatchesEqual compares two MatchIncoming rankings bit for bit.
func assertMatchesEqual(t *testing.T, label string, got, want []coma.IncomingMatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Schema.Name != want[i].Schema.Name {
			t.Errorf("%s rank %d: %s, want %s", label, i, got[i].Schema.Name, want[i].Schema.Name)
			continue
		}
		assertResultsEqual(t, label+"/"+got[i].Schema.Name, got[i].Result, want[i].Result)
	}
}

// TestPagedMatchIncomingGolden is the paged storage golden guarantee:
// a store checkpointed into its page file and reopened through a small
// buffer pool produces MatchIncoming results bit-identical to the
// in-memory (pre-restart) store, across shard counts.
func TestPagedMatchIncomingGolden(t *testing.T) {
	all := workload.Candidates(13)
	incoming, stored := all[0], all[1:]

	for _, nShards := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("paged-%d", nShards))
		repo, err := coma.OpenShardedRepository(dir, nShards)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stored {
			if err := repo.PutSchema(s); err != nil {
				t.Fatal(err)
			}
		}
		want, err := repo.MatchIncoming(incoming)
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen through a two-page pool: every record access pages in.
		repo, err = coma.OpenShardedRepository(dir, nShards, coma.WithPageCache(2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := repo.MatchIncoming(incoming)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesEqual(t, fmt.Sprintf("shards=%d", nShards), got, want)
		st := repo.PageCacheStats()
		if st.Misses == 0 {
			t.Errorf("shards=%d: no page misses — records were not served from the page file", nShards)
		}
		if st.Capacity != 2*nShards {
			t.Errorf("shards=%d: pool capacity %d, want %d", nShards, st.Capacity, 2*nShards)
		}
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPagedStoreLargerThanPool serves a store whose page file exceeds
// the buffer pool many times over: a one-page pool per shard must
// still serve every record correctly — evicting clock-wise — and the
// match results stay bit-identical to the in-memory store.
func TestPagedStoreLargerThanPool(t *testing.T) {
	stored, incoming := workload.CorpusPair(96, 5)
	dir := filepath.Join(t.TempDir(), "big")
	repo, err := coma.OpenShardedRepository(dir, 2, coma.WithSyncPolicy(coma.SyncNone()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	want, err := repo.MatchIncoming(incoming, coma.TopK(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err = coma.OpenShardedRepository(dir, 2,
		coma.WithSyncPolicy(coma.SyncNone()), coma.WithPageCache(1))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	got, err := repo.MatchIncoming(incoming, coma.TopK(10))
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesEqual(t, "larger-than-pool", got, want)
	st := repo.PageCacheStats()
	if st.Evictions == 0 {
		t.Errorf("no evictions: page file did not exceed the one-page pools (misses %d)", st.Misses)
	}
	if st.Resident > st.Capacity {
		t.Errorf("%d resident pages over capacity %d", st.Resident, st.Capacity)
	}
}

// TestShardedWarmRestart is the warm-restart acceptance test:
// Checkpoint writes the sidecar, a reopen restores every stored
// schema's analysis into the store's engine, and matching a stored
// schema afterwards performs no analysis at all (zero analyzer-cache
// misses) while staying bit-identical to the pre-restart results.
func TestShardedWarmRestart(t *testing.T) {
	const shards = 2
	all := workload.Candidates(11)
	incoming, stored := all[0], all[1:]
	opts := []coma.Option{coma.WithCandidateIndex(), coma.WithPersistentColumnCache()}
	dir := filepath.Join(t.TempDir(), "warm")

	repo, err := coma.OpenShardedRepository(dir, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if ws := repo.WarmStart(); ws.Attempted {
		t.Fatalf("fresh store reported a warm-start attempt: %+v", ws)
	}
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	// One match analyzes and candidate-indexes every stored schema, so
	// the checkpoint below has warmth to persist.
	want, err := repo.MatchIncoming(incoming)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err = coma.OpenShardedRepository(dir, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ws := repo.WarmStart()
	if !ws.Attempted || !ws.Used {
		t.Fatalf("warm restore not used: %+v", ws)
	}
	if ws.Restored != len(stored) || ws.Discarded != 0 {
		t.Fatalf("restored %d / discarded %d, want %d / 0", ws.Restored, ws.Discarded, len(stored))
	}
	if got := totalAnalyzerMisses(repo); got != 0 {
		t.Fatalf("%d analyzer misses right after open — restore analyzed instead of seeding", got)
	}

	// Matching a stored (hence seeded) schema must run entirely on the
	// restored analyses: zero misses.
	probe, ok := repo.GetSchema(stored[0].Name)
	if !ok {
		t.Fatalf("stored schema %s missing after reopen", stored[0].Name)
	}
	res, err := repo.MatchIncoming(probe, coma.TopK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d matches, want 3", len(res))
	}
	if got := totalAnalyzerMisses(repo); got != 0 {
		t.Errorf("warm restart re-analyzed: %d analyzer misses while matching a stored schema", got)
	}

	// The external probe itself is one fresh analysis, but every stored
	// candidate stays warm — and the ranking is bit-identical to the
	// pre-restart store. The one other miss is stored[0]: this store is
	// not served, so its schemas are unpinned, and the by-name match
	// above evicted stored[0]'s analysis as a transient incoming schema
	// at batch end.
	got, err := repo.MatchIncoming(incoming)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesEqual(t, "warm", got, want)
	if misses := totalAnalyzerMisses(repo); misses != 2 {
		t.Errorf("external probe cost %d misses, want exactly 2 (the probe, and the evicted by-name probe as a candidate)", misses)
	}
}

// TestWarmSidecarSourceChangeDiscards: a sidecar written under one
// dictionary must be rejected wholesale by a process opening with
// different auxiliary sources — warmth never crosses a vocabulary
// change — while matching still works (cold).
func TestWarmSidecarSourceChangeDiscards(t *testing.T) {
	all := workload.Candidates(6)
	incoming, stored := all[0], all[1:]
	dir := filepath.Join(t.TempDir(), "src")

	repo, err := coma.OpenShardedRepository(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := repo.MatchIncoming(incoming); err != nil {
		t.Fatal(err)
	}
	if err := repo.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	changed := dict.Default()
	changed.AddSynonym("froob", "blarg")
	repo, err = coma.OpenShardedRepository(dir, 2, coma.WithDictionary(changed))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ws := repo.WarmStart()
	if !ws.Attempted {
		t.Fatal("sidecar not found after checkpoint")
	}
	if ws.Used || ws.Restored != 0 {
		t.Fatalf("sidecar used across a dictionary change: %+v", ws)
	}
	if _, err := repo.MatchIncoming(incoming); err != nil {
		t.Fatalf("cold match after discarded sidecar: %v", err)
	}
}

// TestWarmSidecarStaleEntryDiscarded: replacing one schema after the
// checkpoint invalidates exactly that schema's sidecar entry (its
// stored-payload CRC no longer matches); every other entry restores.
func TestWarmSidecarStaleEntryDiscarded(t *testing.T) {
	all := workload.Candidates(7)
	incoming, stored := all[0], all[1:]
	dir := filepath.Join(t.TempDir(), "stale")

	repo, err := coma.OpenShardedRepository(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := repo.MatchIncoming(incoming); err != nil {
		t.Fatal(err)
	}
	if err := repo.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Replace one stored schema after the sidecar was written: its
	// entry describes a payload that no longer exists.
	replacement, err := importer.ParseAs(stored[0].Name, "sql",
		[]byte("CREATE TABLE Swap.SwapT (totallyNewColumn INT, anotherOne VARCHAR(10));"))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.PutSchema(replacement); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err = coma.OpenShardedRepository(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ws := repo.WarmStart()
	if !ws.Used {
		t.Fatalf("sidecar not used: %+v", ws)
	}
	if ws.Discarded != 1 || ws.Restored != len(stored)-1 {
		t.Fatalf("restored %d / discarded %d, want %d / 1", ws.Restored, ws.Discarded, len(stored)-1)
	}
	// The replaced schema must be served from its new (appended)
	// record, not resurrected from the sidecar.
	got, ok := repo.GetSchema(stored[0].Name)
	if !ok {
		t.Fatal("replaced schema missing")
	}
	if len(got.Paths()) != len(replacement.Paths()) {
		t.Errorf("replaced schema has %d paths, want %d", len(got.Paths()), len(replacement.Paths()))
	}
}

// TestWarmRestartColumnsNeedCache: the warm-start column count is the
// number of columns actually installed. A store reopened without
// WithPersistentColumnCache has nowhere to put the sidecar's columns,
// so WarmStats, /readyz and /metrics all report none while every
// analysis still restores; reopened with the cache, the columns count.
func TestWarmRestartColumnsNeedCache(t *testing.T) {
	const shards = 2
	stored := workload.Candidates(7)
	dir := filepath.Join(t.TempDir(), "cols")

	repo, err := coma.OpenShardedRepository(dir, shards, coma.WithPersistentColumnCache())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
		repo.Engine().Pin(s)
	}
	// Matching every stored schema as the (pinned) incoming side fills
	// the persistent column cache the checkpoint exports.
	for _, s := range stored {
		if _, err := repo.MatchIncoming(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err = coma.OpenShardedRepository(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	ws := repo.WarmStart()
	if !ws.Used || ws.Restored != len(stored) {
		t.Fatalf("reopen without column cache: %+v, want Used with %d restored", ws, len(stored))
	}
	if ws.Columns != 0 {
		t.Errorf("reopen without column cache reports %d restored columns, want 0", ws.Columns)
	}
	handler := repo.Handler()
	ts := httptest.NewServer(handler)
	ready, err := coma.NewClient(ts.URL).Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ready.WarmStart == nil || ready.WarmStart.Columns != 0 {
		t.Errorf("/readyz warmStart = %+v, want 0 columns", ready.WarmStart)
	}
	m, ok := handler.Metrics()
	if !ok {
		t.Fatal("Metrics() not ok on default handler")
	}
	if got := m.Value("coma_warm_restored_columns"); got != 0 {
		t.Errorf("coma_warm_restored_columns = %v, want 0", got)
	}
	ts.Close()
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err = coma.OpenShardedRepository(dir, shards, coma.WithPersistentColumnCache())
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if ws := repo.WarmStart(); !ws.Used || ws.Columns == 0 {
		t.Errorf("reopen with column cache: %+v, want restored columns", ws)
	}
}

// TestConcurrentCheckpoints: checkpoints racing each other — a periodic
// one and the shutdown one, say — all succeed, because sidecar writes
// are serialized.
func TestConcurrentCheckpoints(t *testing.T) {
	repo := openShardedRepo(t, 2, workload.Candidates(4))
	const n = 8
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- repo.Checkpoint()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
