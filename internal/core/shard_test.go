package core

import (
	"context"
	"testing"

	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/workload"
)

// groupsOf splits candidates into n round-robin groups — the layout of
// a sharded store's candidates.
func groupsOf(candidates []*schema.Schema, n int) [][]*schema.Schema {
	groups := make([][]*schema.Schema, n)
	for i, c := range candidates {
		groups[i%n] = append(groups[i%n], c)
	}
	return groups
}

// TestMatchShardedGolden pins MatchBatch over candidate groups
// bit-identical to a direct Match per pair, for several group counts
// and worker bounds.
func TestMatchShardedGolden(t *testing.T) {
	all := workload.Candidates(9)
	incoming, candidates := all[0], all[1:]
	cfg := DefaultConfig()

	ref := match.NewContext()
	want := make([]*Result, len(candidates))
	for i, c := range candidates {
		var err error
		want[i], err = Match(ref, incoming, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, nShards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 0} {
			cfg := cfg
			cfg.Workers = workers
			shards := groupsOf(candidates, nShards)
			got, _, shardErrs, err := MatchBatch(context.Background(), match.NewContext(), incoming, shards, nil, cfg, BatchOptions{})
			if len(shardErrs) != 0 {
				t.Fatalf("unexpected shard errors: %v", shardErrs)
			}
			if err != nil {
				t.Fatal(err)
			}
			for si, shardResults := range got {
				for ci, res := range shardResults {
					// Map the shard slot back to the original
					// candidate index (round-robin layout).
					orig := ci*nShards + si
					w := want[orig]
					if res.SchemaSim != w.SchemaSim {
						t.Errorf("shards=%d workers=%d %s: sim %v, want %v",
							nShards, workers, shards[si][ci].Name, res.SchemaSim, w.SchemaSim)
					}
					gc, wc := res.Mapping.Correspondences(), w.Mapping.Correspondences()
					if len(gc) != len(wc) {
						t.Fatalf("shards=%d workers=%d %s: %d correspondences, want %d",
							nShards, workers, shards[si][ci].Name, len(gc), len(wc))
					}
					for k := range gc {
						if gc[k] != wc[k] {
							t.Errorf("shards=%d workers=%d %s: corr %d = %v, want %v",
								nShards, workers, shards[si][ci].Name, k, gc[k], wc[k])
						}
					}
				}
			}
		}
	}
}

// TestMatchShardedTopK prunes per group: each group keeps its K best,
// identical to a single-group batch over it with the same option.
func TestMatchShardedTopK(t *testing.T) {
	all := workload.Candidates(9)
	incoming, candidates := all[0], all[1:]
	cfg := DefaultConfig()
	got, _, _, err := MatchBatch(context.Background(), match.NewContext(), incoming, groupsOf(candidates, 2), nil, cfg, BatchOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for si, shardResults := range got {
		kept := 0
		for _, res := range shardResults {
			if res != nil {
				kept++
			}
		}
		if kept != 2 {
			t.Errorf("shard %d kept %d results, want 2", si, kept)
		}
	}
}

// TestMatchShardedEdgeCases: no groups, empty groups, nil contexts.
func TestMatchShardedEdgeCases(t *testing.T) {
	all := workload.Candidates(2)
	incoming := all[0]
	cfg := DefaultConfig()
	ctx := context.Background()

	res, _, _, err := MatchBatch(ctx, match.NewContext(), incoming, nil, nil, cfg, BatchOptions{})
	if err != nil || len(res) != 0 {
		t.Errorf("no groups: res=%v err=%v", res, err)
	}
	res, _, _, err = MatchBatch(ctx, match.NewContext(), incoming, [][]*schema.Schema{nil}, nil, cfg, BatchOptions{})
	if err != nil || len(res) != 1 || len(res[0]) != 0 {
		t.Errorf("empty group: res=%v err=%v", res, err)
	}
	// A nil match context runs on a zero-value one (throwaway
	// analyses), exactly like Match.
	res, _, _, err = MatchBatch(ctx, nil, incoming, [][]*schema.Schema{all[1:]}, nil, cfg, BatchOptions{})
	if err != nil || len(res) != 1 || len(res[0]) != 1 || res[0][0] == nil {
		t.Errorf("nil match context: res=%v err=%v", res, err)
	}
	if _, _, _, err := MatchBatch(ctx, match.NewContext(), incoming, nil, nil, Config{}, BatchOptions{}); err == nil {
		t.Error("empty matcher set accepted")
	}
	// A nil request context is accepted (treated as Background).
	if _, _, _, err := MatchBatch(nil, match.NewContext(), incoming, nil, nil, cfg, BatchOptions{}); err != nil {
		t.Errorf("nil request context: %v", err)
	}
	// A pre-canceled request context fails fast with its cause.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, err := MatchBatch(cctx, match.NewContext(), incoming, groupsOf(all[1:], 1), nil, cfg, BatchOptions{}); err == nil {
		t.Error("pre-canceled context accepted")
	}
}
