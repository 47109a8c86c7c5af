package coma_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	coma "repro"
	"repro/internal/workload"
)

// storeLayouts are the repository layouts the golden tests sweep: the
// single-file store (0, OpenRepository) and directories of 1, 4 and 16
// shards.
var storeLayouts = []int{0, 1, 4, 16}

// layoutName labels a layout of openShardedRepo.
func layoutName(n int) string {
	if n == 0 {
		return "file"
	}
	return fmt.Sprintf("shards-%d", n)
}

// openShardedRepo opens a repository under t's temp dir, preloaded
// with the given schemas: a single-file store for n == 0, an n-shard
// directory otherwise.
func openShardedRepo(t *testing.T, n int, stored []*coma.Schema, opts ...coma.Option) *coma.ShardedRepository {
	t.Helper()
	var repo *coma.ShardedRepository
	var err error
	if n == 0 {
		repo, err = coma.OpenRepository(filepath.Join(t.TempDir(), "file.repo"), opts...)
	} else {
		repo, err = coma.OpenShardedRepository(filepath.Join(t.TempDir(), fmt.Sprintf("shards-%d", n)), n, opts...)
	}
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

// referenceMatches is the golden reference for a store's
// MatchIncoming: one Engine.Match per stored schema on a fresh engine,
// skipping the incoming schema's name, ranked by descending combined
// schema similarity (name breaking ties) and cut to topK (0 = keep
// all).
func referenceMatches(t *testing.T, incoming *coma.Schema, stored []*coma.Schema, topK int) []coma.IncomingMatch {
	t.Helper()
	e, err := coma.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	var out []coma.IncomingMatch
	for _, s := range stored {
		if s.Name == incoming.Name {
			continue
		}
		res, err := e.Match(incoming, s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, coma.IncomingMatch{Schema: s, Result: res})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Result.SchemaSim != out[j].Result.SchemaSim {
			return out[i].Result.SchemaSim > out[j].Result.SchemaSim
		}
		return out[i].Schema.Name < out[j].Schema.Name
	})
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}

// TestShardedMatchIncomingGolden is the store's golden guarantee:
// MatchIncoming — one engine over every shard's candidates, merged
// ranking — produces results bit-identical to a loop of Engine.Match
// over the stored schemas, for the single-file layout and shard counts
// {1, 4, 16}, sequentially and in parallel.
func TestShardedMatchIncomingGolden(t *testing.T) {
	all := workload.Candidates(13)
	incoming, stored := all[0], all[1:]

	want := referenceMatches(t, incoming, stored, 0)
	if len(want) != len(stored) {
		t.Fatalf("reference: %d matches for %d stored", len(want), len(stored))
	}

	for _, nShards := range storeLayouts {
		for _, workers := range []int{1, 0} { // sequential, all CPUs
			label := fmt.Sprintf("%s/workers=%d", layoutName(nShards), workers)
			repo := openShardedRepo(t, nShards, stored, coma.WithWorkers(workers))
			// Two rounds through the same store: the second runs on
			// the warm analysis cache and must not drift.
			for round := 0; round < 2; round++ {
				got, err := repo.MatchIncoming(incoming)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s round %d: %d matches, want %d", label, round, len(got), len(want))
				}
				for i := range got {
					if got[i].Schema.Name != want[i].Schema.Name {
						t.Errorf("%s round %d rank %d: %s, want %s",
							label, round, i, got[i].Schema.Name, want[i].Schema.Name)
						continue
					}
					assertResultsEqual(t, label+"/"+got[i].Schema.Name, got[i].Result, want[i].Result)
				}
			}
		}
	}
}

// TestShardedMatchIncomingTopK pins the global shortlist semantics:
// per-shard pruning plus the merged cut equals the reference TopK, on
// every layout.
func TestShardedMatchIncomingTopK(t *testing.T) {
	all := workload.Candidates(11)
	incoming, stored := all[0], all[1:]

	for _, k := range []int{1, 3, 25} { // 25 > candidate count: keep all
		want := referenceMatches(t, incoming, stored, k)
		for _, nShards := range storeLayouts {
			label := fmt.Sprintf("TopK(%d)/%s", k, layoutName(nShards))
			repo := openShardedRepo(t, nShards, stored)
			got, err := repo.MatchIncoming(incoming, coma.TopK(k))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
			}
			for i := range got {
				if got[i].Schema.Name != want[i].Schema.Name {
					t.Errorf("%s rank %d: %s, want %s", label, i, got[i].Schema.Name, want[i].Schema.Name)
					continue
				}
				assertResultsEqual(t, fmt.Sprintf("%s/%s", label, got[i].Schema.Name), got[i].Result, want[i].Result)
			}
			if err := repo.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedMatchIncomingSkipsSameName: a stored schema sharing the
// incoming name never matches itself, wherever it is sharded.
func TestShardedMatchIncomingSkipsSameName(t *testing.T) {
	all := workload.Candidates(6)
	incoming, stored := all[0], all[1:]
	repo := openShardedRepo(t, 4, stored)
	if err := repo.PutSchema(incoming); err != nil {
		t.Fatal(err)
	}
	got, err := repo.MatchIncoming(incoming)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(stored) {
		t.Fatalf("%d matches, want %d", len(got), len(stored))
	}
	for _, m := range got {
		if m.Schema.Name == incoming.Name {
			t.Errorf("incoming schema matched against itself")
		}
	}
}

// TestShardedAddSchemaDuringMatchIncoming is the satellite -race churn
// test on the store: PutSchema churns the shards while MatchIncoming
// batches run. Each batch sees some consistent snapshot per shard;
// nothing may race or crash, and every returned result must carry a
// complete mapping.
func TestShardedAddSchemaDuringMatchIncoming(t *testing.T) {
	all := workload.Candidates(16)
	incoming, seed, churn := all[0], all[1:6], all[6:]
	repo := openShardedRepo(t, 4, seed)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, s := range churn {
			if err := repo.PutSchema(s); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			got, err := repo.MatchIncoming(incoming, coma.TopK(3))
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) == 0 {
				t.Error("no matches during churn")
				return
			}
			for _, m := range got {
				if m.Result.Mapping == nil || m.Result.Matrix == nil {
					t.Errorf("incomplete result for %s", m.Schema.Name)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Steady state after the churn: all schemas visible, ranking sane.
	got, err := repo.MatchIncoming(incoming)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(seed) + len(churn); len(got) != want {
		t.Fatalf("%d matches after churn, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Result.SchemaSim > got[i-1].Result.SchemaSim {
			t.Errorf("ranking violated at %d", i)
		}
	}
}
