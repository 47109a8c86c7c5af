package coma_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	coma "repro"
	"repro/internal/workload"
)

// tinyDDL builds a small distinct relational schema per seed: big
// enough to produce correspondences, small enough that a thousand
// served matches stay cheap.
func tinyDDL(seed int) string {
	return fmt.Sprintf(`CREATE TABLE T%d.Orders (
  orderNo%d INT,
  customerName VARCHAR(100),
  city VARCHAR(50),
  amount%d DECIMAL(10,2)
);`, seed, seed, seed)
}

// servedShardCounts are the store layouts the served tests run over:
// a single shard, and several with the schemas spread across them.
var servedShardCounts = []int{1, 3}

// newServedRepo opens a store of the given shard count with n tiny
// stored schemas behind the comaserve HTTP API; cache-lifecycle
// assertions read the store's engine directly.
func newServedRepo(t *testing.T, shards, n int, opts ...coma.Option) (*httptest.Server, *coma.ShardedRepository) {
	t.Helper()
	repo, err := coma.OpenShardedRepository(filepath.Join(t.TempDir(), "served"), shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	for i := 0; i < n; i++ {
		s, err := coma.LoadSQL(fmt.Sprintf("Stored%d", i), tinyDDL(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(repo.Handler())
	t.Cleanup(ts.Close)
	return ts, repo
}

// TestServedInlineAnalyzerBounded is the heap-stability acceptance
// test of the cache-lifecycle subsystem: a long burst of inline POST
// /match requests must leave the store engine's analysis cache holding
// only the stored (pinned) schemas — before the end-of-batch eviction,
// every request leaked one analyzer entry keyed by its throwaway
// schema instance — whatever the shard count.
func TestServedInlineAnalyzerBounded(t *testing.T) {
	for _, shards := range servedShardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			const stored = 3
			ts, repo := newServedRepo(t, shards, stored,
				coma.WithAnalyzerLimit(64), coma.WithPersistentColumnCache())
			client := coma.NewClient(ts.URL)
			ctx := context.Background()

			requests := 1000
			if testing.Short() {
				requests = 100
			}
			// A handful of distinct inline sources, each posted many
			// times — every request still parses its own throwaway schema
			// instance, the leak's exact shape.
			for i := 0; i < requests; i++ {
				resp, err := client.Match(ctx, coma.MatchRequest{
					Schema: coma.SchemaPayload{
						Name:   "inline",
						Format: "sql",
						Source: tinyDDL(100 + i%5),
					},
					TopK: 2,
				})
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if len(resp.Candidates) != 2 {
					t.Fatalf("request %d: %d candidates, want 2", i, len(resp.Candidates))
				}
			}

			if got := repo.Engine().CachedAnalyses(); got != stored {
				t.Errorf("analyzer holds %d analyses after %d inline matches, want %d (stored schemas only)",
					got, requests, stored)
			}
		})
	}
}

// TestShardedOneAnalysisPerStoredSchema: a sharded store analyzes and
// pins each stored schema exactly once, whichever shard holds it. One
// by-name match per stored schema behind the served API — every stored
// schema serving once as the incoming side and many times as a
// candidate — leaves one cached analysis and one pin per schema.
func TestShardedOneAnalysisPerStoredSchema(t *testing.T) {
	const shards, stored = 4, 32
	repo, err := coma.OpenShardedRepository(filepath.Join(t.TempDir(), "shards"), shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	for _, s := range workload.Corpus(stored, 7) {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(repo.Handler())
	t.Cleanup(ts.Close)
	client := coma.NewClient(ts.URL)
	ctx := context.Background()

	names := repo.SchemaNames()
	if len(names) != stored {
		t.Fatalf("%d schemas stored, want %d", len(names), stored)
	}
	for _, name := range names {
		resp, err := client.Match(ctx, coma.MatchRequest{Schema: coma.SchemaPayload{Name: name}, TopK: 3})
		if err != nil {
			t.Fatalf("match %s: %v", name, err)
		}
		if len(resp.Candidates) != 3 {
			t.Fatalf("match %s: %d candidates, want 3", name, len(resp.Candidates))
		}
	}
	e := repo.Engine()
	if got := e.CachedAnalyses(); got != stored {
		t.Errorf("engine caches %d analyses for %d stored schemas, want one each", got, stored)
	}
	if got := e.AnalyzerCacheStats().Pins; got != stored {
		t.Errorf("%d pins for %d stored schemas, want one each", got, stored)
	}
}

// TestPersistentColumnCacheGolden pins bit-identity of the
// engine-scoped column cache against the per-batch behavior of PR 3/4:
// MatchAll batches (cold and warm rounds) and repeated single Matches
// through a persistent-column engine agree bit for bit with a plain
// engine. It also pins the retention split: an Analyze'd (pinned)
// incoming schema keeps its analysis across batches, a transient one
// is evicted at batch end.
func TestPersistentColumnCacheGolden(t *testing.T) {
	const n = 6
	schemas := make([]*coma.Schema, n)
	for i := range schemas {
		var err error
		if schemas[i], err = coma.LoadSQL(fmt.Sprintf("S%d", i), tinyDDL(i)); err != nil {
			t.Fatal(err)
		}
	}
	incoming, cands := schemas[0], schemas[1:]

	plain, err := coma.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.MatchAll(incoming, cands)
	if err != nil {
		t.Fatal(err)
	}
	wantSingle, err := plain.Match(incoming, cands[0])
	if err != nil {
		t.Fatal(err)
	}

	persist, err := coma.NewEngine(coma.WithPersistentColumnCache())
	if err != nil {
		t.Fatal(err)
	}
	persist.Analyze(incoming) // retained: columns persist across rounds
	for round := 0; round < 3; round++ {
		got, err := persist.MatchAll(incoming, cands)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range got {
			assertResultsEqual(t, fmt.Sprintf("round %d candidate %d", round, i), res, want[i])
		}
	}
	gotSingle, err := persist.Match(incoming, cands[0])
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "single match on warm columns", gotSingle, wantSingle)

	// Retention split: the pinned incoming plus the candidates stay
	// analyzed; a transient incoming is evicted at batch end.
	if got := persist.CachedAnalyses(); got != n {
		t.Errorf("pinned engine caches %d analyses, want %d", got, n)
	}
	transient, err := coma.LoadSQL("Transient", tinyDDL(99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.MatchAll(transient, cands); err != nil {
		t.Fatal(err)
	}
	if got := persist.CachedAnalyses(); got != n {
		t.Errorf("after a transient batch the engine caches %d analyses, want %d (incoming evicted)", got, n)
	}

	// Releasing the pin makes the incoming transient again.
	persist.Release(incoming)
	if _, err := persist.MatchAll(incoming, cands); err != nil {
		t.Fatal(err)
	}
	if got := persist.CachedAnalyses(); got != n-1 {
		t.Errorf("after Release the engine caches %d analyses, want %d", got, n-1)
	}
}

// TestServedChurnCacheLifecycle is the -race satellite: concurrent
// inline matches, schema PUT/DELETE churn and wholesale engine
// invalidation against a live server, for each shard count.
// Afterwards the analyzer must hold no more than the surviving stored
// schemas, and a served match must agree bit for bit with a fresh
// local engine over the final store — no stale analyses, no stale
// columns.
func TestServedChurnCacheLifecycle(t *testing.T) {
	for _, shards := range servedShardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testServedChurnCacheLifecycle(t, shards)
		})
	}
}

func testServedChurnCacheLifecycle(t *testing.T, shards int) {
	const stored = 3
	ts, repo := newServedRepo(t, shards, stored,
		coma.WithAnalyzerLimit(64), coma.WithPersistentColumnCache())
	engine := repo.Engine()
	client := coma.NewClient(ts.URL)
	ctx := context.Background()

	const writers, matchers, rounds = 2, 3, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("Churn%d", w)
				if _, err := client.PutSchema(ctx, name, "sql", tinyDDL(10+w*rounds+r)); err != nil {
					t.Errorf("put %s: %v", name, err)
					return
				}
				if r%2 == 1 {
					if err := client.DeleteSchema(ctx, name); err != nil {
						t.Errorf("delete %s: %v", name, err)
						return
					}
				}
			}
		}(w)
	}
	for m := 0; m < matchers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := client.Match(ctx, coma.MatchRequest{
					Schema: coma.SchemaPayload{Name: "inline", Format: "sql", Source: tinyDDL(20 + m)},
					TopK:   2,
				})
				if err != nil {
					t.Errorf("match: %v", err)
					return
				}
				if len(resp.Candidates) == 0 {
					t.Error("match: no candidates")
					return
				}
			}
		}(m)
	}
	// Wholesale invalidation churn: drops every cached analysis and
	// column mid-flight; in-flight batches keep their captured indexes
	// (immutable) and later ones rebuild.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			engine.Invalidate(nil)
		}
	}()
	wg.Wait()

	names, err := client.Schemas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Analyzer tombstones close the former residual: a DELETE racing an
	// in-flight batch can no longer resurrect the deleted candidate's
	// analysis, so the cache bound holds right after churn with no
	// wholesale invalidation — the analyzer holds at most the surviving
	// stored schemas (every batch evicted its own transients).
	if got := engine.CachedAnalyses(); got > len(names) {
		t.Errorf("right after churn the engine caches %d analyses, want <= %d (stored schemas)",
			got, len(names))
	}

	// Staleness check: replace one schema's structure, then compare the
	// served match against a fresh engine over the same pair.
	if _, err := client.PutSchema(ctx, "Stored0", "sql",
		`CREATE TABLE R.Replaced (invoiceNo INT, supplierName VARCHAR(80), street VARCHAR(60));`); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Match(ctx, coma.MatchRequest{
		Schema: coma.SchemaPayload{Name: "probe", Format: "sql", Source: tinyDDL(42)},
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := coma.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	probe, err := coma.LoadSQL("probe", tinyDDL(42))
	if err != nil {
		t.Fatal(err)
	}
	// Each writer's final action on its Churn name is a delete (odd
	// last round), so the final store is exactly the three Stored
	// schemas — rebuild them locally for the reference match.
	localSrc := map[string]string{
		"Stored0": `CREATE TABLE R.Replaced (invoiceNo INT, supplierName VARCHAR(80), street VARCHAR(60));`,
		"Stored1": tinyDDL(1),
		"Stored2": tinyDDL(2),
	}
	if len(resp.Candidates) != len(localSrc) {
		t.Fatalf("final store serves %d candidates, want %d", len(resp.Candidates), len(localSrc))
	}
	if len(names) != len(localSrc) {
		t.Fatalf("final store lists %d schemas, want %d", len(names), len(localSrc))
	}
	// The probe batch analyzed the three stored candidates and evicted
	// its own transient incoming: the steady-state cache holds exactly
	// the stored schemas again.
	if got := engine.CachedAnalyses(); got != len(localSrc) {
		t.Errorf("analyzer holds %d analyses after post-churn match, want %d (stored schemas only)",
			got, len(localSrc))
	}
	for _, cand := range resp.Candidates {
		src, ok := localSrc[cand.Schema]
		if !ok {
			t.Fatalf("unexpected surviving schema %q", cand.Schema)
		}
		storedSchema, err := coma.LoadSQL(cand.Schema, src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Match(probe, storedSchema)
		if err != nil {
			t.Fatal(err)
		}
		if cand.SchemaSim != want.SchemaSim {
			t.Errorf("served %s similarity %v, fresh engine %v — stale cache state",
				cand.Schema, cand.SchemaSim, want.SchemaSim)
		}
		if len(cand.Correspondences) != len(want.Mapping.Correspondences()) {
			t.Errorf("served %s has %d correspondences, fresh engine %d",
				cand.Schema, len(cand.Correspondences), len(want.Mapping.Correspondences()))
		}
	}
}

// TestColumnCachePruneVsUnrelatedInvalidate is the race regression for
// the schema mutation counter: the persistent column cache's prune
// loop reads OTHER schemas' versions while a match runs, so mutating
// and Invalidate-ing an unrelated schema concurrently with a match
// must be race-free (atomic version counter).
func TestColumnCachePruneVsUnrelatedInvalidate(t *testing.T) {
	persist, err := coma.NewEngine(coma.WithPersistentColumnCache())
	if err != nil {
		t.Fatal(err)
	}
	a, err := coma.LoadSQL("A", tinyDDL(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := coma.LoadSQL("B", tinyDDL(2))
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]*coma.Schema, 3)
	for i := range cands {
		if cands[i], err = coma.LoadSQL(fmt.Sprintf("C%d", i), tinyDDL(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	persist.Analyze(a)
	persist.Analyze(b)
	// Seed a column entry keyed by b's index so later prune scans read
	// b's version while a is being matched.
	if _, err := persist.MatchAll(b, cands); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := persist.MatchAll(a, cands); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			b.Invalidate() // unrelated schema mutates mid-match
		}
	}()
	wg.Wait()
}
