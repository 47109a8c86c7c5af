package coma_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	coma "repro"
	"repro/internal/schema"
	"repro/internal/workload"
)

// openPrunedRepo opens a single-file store with the candidate-pruning
// index, preloaded with the given schemas.
func openPrunedRepo(t *testing.T, stored []*coma.Schema) *coma.ShardedRepository {
	t.Helper()
	repo, err := coma.OpenRepository(filepath.Join(t.TempDir(), "pruned.repo"), coma.WithCandidateIndex())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// requireSameMatches fails unless the two rankings are bit-identical:
// same candidates in the same order, equal combined schema
// similarities, equal selected mappings.
func requireSameMatches(t *testing.T, label string, got, want []coma.IncomingMatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Schema.Name != w.Schema.Name {
			t.Fatalf("%s: rank %d is %s, want %s", label, i, g.Schema.Name, w.Schema.Name)
		}
		if g.Result.SchemaSim != w.Result.SchemaSim {
			t.Fatalf("%s: rank %d (%s) sim %.17g, want %.17g",
				label, i, g.Schema.Name, g.Result.SchemaSim, w.Result.SchemaSim)
		}
		gc, wc := g.Result.Mapping.Correspondences(), w.Result.Mapping.Correspondences()
		if len(gc) != len(wc) {
			t.Fatalf("%s: rank %d (%s) has %d correspondences, want %d",
				label, i, g.Schema.Name, len(gc), len(wc))
		}
		for j := range gc {
			if gc[j] != wc[j] {
				t.Fatalf("%s: rank %d (%s) correspondence %d = %+v, want %+v",
					label, i, g.Schema.Name, j, gc[j], wc[j])
			}
		}
	}
}

// TestPrunedMatchBitIdentical is the tentpole's golden test: the
// pruned TopK ranking equals the exhaustive one bit for bit — scores,
// order and mappings — on the single-file store and on every tested
// shard count.
func TestPrunedMatchBitIdentical(t *testing.T) {
	ctx := context.Background()
	stored, incoming := workload.CorpusPair(60, 3)

	t.Run("single", func(t *testing.T) {
		repo := openPrunedRepo(t, stored)
		pruned, _, err := repo.MatchIncomingContext(ctx, incoming, coma.TopK(10))
		if err != nil {
			t.Fatal(err)
		}
		exhaustive, _, err := repo.MatchIncomingContext(ctx, incoming, coma.TopK(10), coma.Exhaustive())
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, "single", pruned, exhaustive)
		stats := repo.LastPruneStats()
		if stats.Candidates != len(stored) {
			t.Errorf("stats.Candidates = %d, want %d", stats.Candidates, len(stored))
		}
		if stats.Skipped == 0 {
			t.Error("pruned match skipped nothing — the index carries no discrimination")
		}
		t.Logf("single-file store: %d candidates, %d matched, %d skipped (ratio %.2f)",
			stats.Candidates, stats.Matched, stats.Skipped, stats.Ratio())
	})

	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("sharded-%d", shards), func(t *testing.T) {
			repo := openShardedRepo(t, shards, stored, coma.WithCandidateIndex())
			pruned, perrs, err := repo.MatchIncomingContext(ctx, incoming, coma.TopK(10))
			if err != nil {
				t.Fatal(err)
			}
			exhaustive, eerrs, err := repo.MatchIncomingContext(ctx, incoming, coma.TopK(10), coma.Exhaustive())
			if err != nil {
				t.Fatal(err)
			}
			if len(perrs) != 0 || len(eerrs) != 0 {
				t.Fatalf("shard errors: pruned %v, exhaustive %v", perrs, eerrs)
			}
			requireSameMatches(t, fmt.Sprintf("%d shards", shards), pruned, exhaustive)
			stats := repo.LastPruneStats()
			if stats.Candidates != len(stored) {
				t.Errorf("stats.Candidates = %d, want %d", stats.Candidates, len(stored))
			}
			t.Logf("%d shards: %d candidates, %d matched, %d skipped (ratio %.2f)",
				shards, stats.Candidates, stats.Matched, stats.Skipped, stats.Ratio())
		})
	}
}

// TestPrunedMatchWithoutTopK pins the fallback: without a TopK there
// is no k-th score to prune against, so the match runs exhaustively
// and records no prune stats.
func TestPrunedMatchWithoutTopK(t *testing.T) {
	ctx := context.Background()
	stored, incoming := workload.CorpusPair(10, 5)
	repo := openPrunedRepo(t, stored)
	out, _, err := repo.MatchIncomingContext(ctx, incoming)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(stored) {
		t.Fatalf("%d matches, want %d", len(out), len(stored))
	}
	if stats := repo.LastPruneStats(); stats != (coma.PruneStats{}) {
		t.Errorf("prune stats recorded for an unpruned match: %+v", stats)
	}
}

// TestPrunedMatchMaxCandidates pins the explicit shortlist cap: with
// MaxCandidates(m), at most m candidates are matched at all, and a cap
// covering every candidate changes nothing.
func TestPrunedMatchMaxCandidates(t *testing.T) {
	ctx := context.Background()
	stored, incoming := workload.CorpusPair(24, 9)
	repo := openPrunedRepo(t, stored)

	out, _, err := repo.MatchIncomingContext(ctx, incoming, coma.TopK(5), coma.MaxCandidates(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 5 {
		t.Fatalf("%d matches, want <= 5", len(out))
	}
	stats := repo.LastPruneStats()
	if stats.Matched > 8 {
		t.Errorf("matched %d pairs despite MaxCandidates(8)", stats.Matched)
	}
	if stats.Skipped < len(stored)-8 {
		t.Errorf("skipped %d, want >= %d", stats.Skipped, len(stored)-8)
	}

	// A cap above the candidate count must not change the ranking.
	capped, _, err := repo.MatchIncomingContext(ctx, incoming, coma.TopK(5), coma.MaxCandidates(len(stored)))
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, _, err := repo.MatchIncomingContext(ctx, incoming, coma.TopK(5), coma.Exhaustive())
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "covering cap", capped, exhaustive)
}

// TestPrunedServedChurn interleaves served PUT/DELETE with pruned
// matches: the incremental index maintenance hooked into the server
// backends must never fail a match or serve a deleted posting, and
// once the churn quiesces the pruned ranking must equal the exhaustive
// one on the final store. Run under -race, this is the maintenance
// subsystem's concurrency proof.
func TestPrunedServedChurn(t *testing.T) {
	ctx := context.Background()
	repo, err := coma.OpenShardedRepository(filepath.Join(t.TempDir(), "churn"), 4, coma.WithCandidateIndex())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	ts := httptest.NewServer(repo.Handler())
	t.Cleanup(ts.Close)
	client := coma.NewClient(ts.URL)

	stored, incoming := workload.CorpusPair(32, 11)
	for _, s := range stored[:16] {
		if _, err := client.PutSchemaGraph(ctx, s); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 24
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	wg.Add(1)
	go func() { // churn: PUT and DELETE the upper half of the corpus
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s := stored[16+i%16]
			if _, err := client.PutSchemaGraph(ctx, s); err != nil {
				errc <- fmt.Errorf("put %s: %w", s.Name, err)
				return
			}
			if err := client.DeleteSchema(ctx, s.Name); err != nil {
				errc <- fmt.Errorf("delete %s: %w", s.Name, err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // pruned matches riding through the churn
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := client.MatchGraph(ctx, incoming, 5)
				if err != nil {
					errc <- fmt.Errorf("match round %d: %w", i, err)
					return
				}
				if len(resp.Candidates) > 5 {
					errc <- fmt.Errorf("match round %d: %d candidates", i, len(resp.Candidates))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesced: pruned and exhaustive must agree on the final store.
	var xsd bytes.Buffer
	if err := coma.WriteSchemaXSD(&xsd, incoming); err != nil {
		t.Fatal(err)
	}
	req := coma.MatchRequest{
		Schema: coma.SchemaPayload{Name: incoming.Name, Format: "xsd", Source: xsd.String()},
		TopK:   5,
	}
	prunedResp, err := client.Match(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Exhaustive = true
	exhResp, err := client.Match(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(prunedResp.Candidates) != len(exhResp.Candidates) {
		t.Fatalf("pruned %d candidates, exhaustive %d", len(prunedResp.Candidates), len(exhResp.Candidates))
	}
	for i := range prunedResp.Candidates {
		p, e := prunedResp.Candidates[i], exhResp.Candidates[i]
		if p.Schema != e.Schema || p.SchemaSim != e.SchemaSim {
			t.Errorf("rank %d: pruned (%s, %.17g), exhaustive (%s, %.17g)",
				i, p.Schema, p.SchemaSim, e.Schema, e.SchemaSim)
		}
	}

	// /readyz reports the index: schemas indexed, prune ratio recorded.
	ready, err := client.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ready.CandidateIndex == nil {
		t.Fatal("/readyz reports no candidate index on an indexed backend")
	}
	if ready.CandidateIndex.Schemas == 0 || ready.CandidateIndex.Postings == 0 {
		t.Errorf("index readiness %+v, want nonzero schemas and postings", *ready.CandidateIndex)
	}
}

// TestPrunedMatchCyclicIncoming: a schema with a containment cycle
// (Order → Item → Order) is rejected by validation before anything
// analyzes it — enumerating its paths would never end. The pruned
// store path, the exhaustive one, MatchAll on either side and a put
// all return the validation error promptly.
func TestPrunedMatchCyclicIncoming(t *testing.T) {
	cyclic := schema.New("Cyclic")
	order, item := schema.NewNode("Order"), schema.NewNode("Item")
	cyclic.Root.AddChild(order)
	order.AddChild(item)
	item.AddChild(order)

	repo := openShardedRepo(t, 2, workload.Candidates(4), coma.WithCandidateIndex())
	engine, err := coma.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ok := workload.Candidates(2)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"pruned", func() error { _, err := repo.MatchIncoming(cyclic, coma.TopK(2)); return err }},
		{"exhaustive", func() error { _, err := repo.MatchIncoming(cyclic); return err }},
		{"matchall-incoming", func() error { _, err := engine.MatchAll(cyclic, ok); return err }},
		{"matchall-candidate", func() error { _, err := engine.MatchAll(ok[0], []*coma.Schema{ok[1], cyclic}); return err }},
		{"put", func() error { return repo.PutSchema(cyclic) }},
	} {
		done := make(chan error, 1)
		go func() { done <- tc.run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), `containment cycle through "Order"`) {
				t.Errorf("%s: err = %v, want the containment-cycle validation error", tc.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no answer within 10s (analyzing the cyclic schema?)", tc.name)
		}
	}
	if got := len(repo.SchemaNames()); got != 4 {
		t.Errorf("%d schemas stored after the rejected put, want 4", got)
	}
}

// TestServedPutDeleteRaceIndexConsistent: concurrent PUT and DELETE of
// one name must leave the candidate index, the analyzer and the store
// agreeing on the stored set. The store adds a schema's analysis and
// postings before publishing it and drops them after unpublishing it,
// so a DELETE can never unindex a schema before its PUT indexed it.
func TestServedPutDeleteRaceIndexConsistent(t *testing.T) {
	// Per-append fsync (the default) widens each PUT's window between
	// publishing and returning, which is where an index maintained
	// after publishing lost the race.
	repo, err := coma.OpenShardedRepository(filepath.Join(t.TempDir(), "race"), 2, coma.WithCandidateIndex())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	ts := httptest.NewServer(repo.Handler())
	t.Cleanup(ts.Close)
	client := coma.NewClient(ts.URL)
	ctx := context.Background()

	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("R%d", r)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := client.PutSchema(ctx, name, "sql", tinyDDL(r)); err != nil {
				t.Errorf("put %s: %v", name, err)
			}
		}()
		go func() {
			defer wg.Done()
			// A DELETE that lands before its PUT answers 404.
			if err := client.DeleteSchema(ctx, name); err != nil && !strings.Contains(err.Error(), "HTTP 404") {
				t.Errorf("delete %s: %v", name, err)
			}
		}()
		wg.Wait()
	}
	requireStoreAnalyses(t, repo)
}

// requireStoreAnalyses fails unless the store's engine caches exactly
// one analysis and the candidate index exactly one posting set per
// stored schema.
func requireStoreAnalyses(t *testing.T, repo *coma.ShardedRepository) {
	t.Helper()
	stored := len(repo.SchemaNames())
	st, ok := repo.Engine().CandidateIndexStats()
	if !ok {
		t.Fatal("store has no candidate index")
	}
	if got := repo.Engine().CachedAnalyses(); st.Schemas != stored || got != stored {
		t.Errorf("%d stored schemas, %d indexed, %d cached analyses; want all equal", stored, st.Schemas, got)
	}
}
