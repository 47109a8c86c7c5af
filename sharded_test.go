package coma_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	coma "repro"
	"repro/internal/workload"
)

// openShardedRepo opens an n-shard repository under t's temp dir,
// preloaded with the given schemas.
func openShardedRepo(t *testing.T, n int, stored []*coma.Schema, opts ...coma.Option) *coma.ShardedRepository {
	t.Helper()
	repo, err := coma.OpenShardedRepository(filepath.Join(t.TempDir(), fmt.Sprintf("shards-%d", n)), n, opts...)
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

// TestShardedMatchIncomingGolden is the sharded backend's golden
// guarantee: MatchIncoming through an N-shard store — one engine over
// every shard's candidates, merged ranking — produces results
// bit-identical to the single-store Repository.MatchIncoming, for
// shard counts {1, 4, 16}, sequentially and in parallel.
func TestShardedMatchIncomingGolden(t *testing.T) {
	all := workload.Candidates(13)
	incoming, stored := all[0], all[1:]

	// Single-store reference.
	ref, err := coma.OpenRepository(filepath.Join(t.TempDir(), "ref.repo"))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, s := range stored {
		if err := ref.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	refEngine, err := coma.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MatchIncoming(refEngine, incoming)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(stored) {
		t.Fatalf("reference: %d matches for %d stored", len(want), len(stored))
	}

	for _, nShards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 0} { // sequential, all CPUs
			label := fmt.Sprintf("shards=%d/workers=%d", nShards, workers)
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
// per-shard pruning plus the merged cut equals the single-store TopK.
func TestShardedMatchIncomingTopK(t *testing.T) {
	all := workload.Candidates(11)
	incoming, stored := all[0], all[1:]

	ref, err := coma.OpenRepository(filepath.Join(t.TempDir(), "ref.repo"))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, s := range stored {
		if err := ref.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	refEngine, err := coma.NewEngine()
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 3, 25} { // 25 > candidate count: keep all
		want, err := ref.MatchIncoming(refEngine, incoming, coma.TopK(k))
		if err != nil {
			t.Fatal(err)
		}
		repo := openShardedRepo(t, 4, stored)
		got, err := repo.MatchIncoming(incoming, coma.TopK(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("TopK(%d): %d matches, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Schema.Name != want[i].Schema.Name {
				t.Errorf("TopK(%d) rank %d: %s, want %s", k, i, got[i].Schema.Name, want[i].Schema.Name)
				continue
			}
			assertResultsEqual(t, fmt.Sprintf("topk%d/%s", k, got[i].Schema.Name), got[i].Result, want[i].Result)
		}
		if err := repo.Close(); err != nil {
			t.Fatal(err)
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
