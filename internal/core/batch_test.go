package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/combine"
	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/workload"
)

// matchAll is the single-group batch: MatchBatch over one candidate
// list without bounds.
func matchAll(ctx context.Context, mctx *match.Context, incoming *schema.Schema, cands []*schema.Schema, cfg Config, opt BatchOptions) ([]*Result, error) {
	groups, _, _, err := MatchBatch(ctx, mctx, incoming, [][]*schema.Schema{cands}, nil, cfg, opt)
	if err != nil {
		return nil, err
	}
	return groups[0], nil
}

// TestMatchAllAgainstLoop verifies the batch scheduler against the
// single-pair engine on every knob combination: results arrive in
// candidate order and are bit-identical to a loop of Match calls.
func TestMatchAllAgainstLoop(t *testing.T) {
	cands := workload.Candidates(7)
	incoming, cands := cands[0], cands[1:]
	cfg := DefaultConfig()

	loopCtx := match.NewContext()
	var want []*Result
	for _, c := range cands {
		res, err := Match(loopCtx, incoming, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	for _, workers := range []int{1, 4} {
		ctx := match.NewContext()
		batchCfg := cfg
		batchCfg.Workers = workers
		got, err := matchAll(context.Background(), ctx, incoming, cands, batchCfg, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cands) {
			t.Fatalf("workers=%d: %d results for %d candidates", workers, len(got), len(cands))
		}
		for i, res := range got {
			if res.Cube != nil {
				t.Errorf("workers=%d: candidate %d kept its cube without KeepCubes", workers, i)
			}
			assertSameResult(t, res, want[i])
		}
	}
}

func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.SchemaSim != want.SchemaSim {
		t.Errorf("schema sim %v, want %v", got.SchemaSim, want.SchemaSim)
	}
	if got.Matrix.Rows() != want.Matrix.Rows() || got.Matrix.Cols() != want.Matrix.Cols() {
		t.Fatalf("matrix %dx%d, want %dx%d",
			got.Matrix.Rows(), got.Matrix.Cols(), want.Matrix.Rows(), want.Matrix.Cols())
	}
	for i := 0; i < got.Matrix.Rows(); i++ {
		for j := 0; j < got.Matrix.Cols(); j++ {
			if got.Matrix.Get(i, j) != want.Matrix.Get(i, j) {
				t.Fatalf("matrix cell (%d,%d) = %v, want %v", i, j, got.Matrix.Get(i, j), want.Matrix.Get(i, j))
			}
		}
	}
	gc, wc := got.Mapping.Correspondences(), want.Mapping.Correspondences()
	if len(gc) != len(wc) {
		t.Fatalf("%d correspondences, want %d", len(gc), len(wc))
	}
	for i := range gc {
		if gc[i] != wc[i] {
			t.Errorf("correspondence %d = %v, want %v", i, gc[i], wc[i])
		}
	}
}

// TestMatchAllKeepCubes checks that KeepCubes returns full cubes whose
// layers match the single-pair engine's.
func TestMatchAllKeepCubes(t *testing.T) {
	cands := workload.Candidates(3)
	incoming, cands := cands[0], cands[1:]
	cfg := DefaultConfig()
	got, err := matchAll(context.Background(), match.NewContext(), incoming, cands, cfg, BatchOptions{KeepCubes: true})
	if err != nil {
		t.Fatal(err)
	}
	loopCtx := match.NewContext()
	for i, res := range got {
		if res.Cube == nil {
			t.Fatalf("candidate %d: cube dropped despite KeepCubes", i)
		}
		want, err := Match(loopCtx, incoming, cands[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cube.Layers() != want.Cube.Layers() {
			t.Fatalf("candidate %d: %d layers, want %d", i, res.Cube.Layers(), want.Cube.Layers())
		}
		for l := 0; l < res.Cube.Layers(); l++ {
			g, w := res.Cube.LayerAt(l), want.Cube.LayerAt(l)
			for r := 0; r < g.Rows(); r++ {
				for c := 0; c < g.Cols(); c++ {
					if g.Get(r, c) != w.Get(r, c) {
						t.Fatalf("candidate %d layer %d cell (%d,%d) = %v, want %v",
							i, l, r, c, g.Get(r, c), w.Get(r, c))
					}
				}
			}
		}
	}
}

// TestMatchAllTopK checks the pruning semantics: the slice stays in
// candidate order, exactly k slots survive, and the survivors are the
// k best schema similarities.
func TestMatchAllTopK(t *testing.T) {
	cands := workload.Candidates(5)
	incoming, cands := cands[0], cands[1:]
	cfg := DefaultConfig()
	full, err := matchAll(context.Background(), match.NewContext(), incoming, cands, cfg, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	pruned, err := matchAll(context.Background(), match.NewContext(), incoming, cands, cfg, BatchOptions{TopK: k})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != len(cands) {
		t.Fatalf("TopK changed slice length: %d, want %d", len(pruned), len(cands))
	}
	var kept int
	worstKept := 2.0
	bestPruned := -1.0
	for i, res := range pruned {
		if res == nil {
			if sim := full[i].SchemaSim; sim > bestPruned {
				bestPruned = sim
			}
			continue
		}
		kept++
		assertSameResult(t, res, full[i])
		if res.SchemaSim < worstKept {
			worstKept = res.SchemaSim
		}
	}
	if kept != k {
		t.Fatalf("kept %d results, want %d", kept, k)
	}
	if bestPruned > worstKept {
		t.Errorf("pruned a schema sim %v better than kept %v", bestPruned, worstKept)
	}

	// TopK >= len keeps everything.
	all, err := matchAll(context.Background(), match.NewContext(), incoming, cands, cfg, BatchOptions{TopK: len(cands)})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range all {
		if res == nil {
			t.Fatalf("TopK=len pruned candidate %d", i)
		}
	}
}

// TestMatchAllEdgeCases covers empty batches and configuration errors.
func TestMatchAllEdgeCases(t *testing.T) {
	cands := workload.Candidates(2)
	incoming := cands[0]

	res, err := matchAll(context.Background(), match.NewContext(), incoming, nil, DefaultConfig(), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}

	if _, err := matchAll(context.Background(), match.NewContext(), incoming, cands[1:], Config{}, BatchOptions{}); err == nil {
		t.Error("no matchers should fail")
	}

	badCfg := DefaultConfig()
	badCfg.Strategy.Agg = combine.AggSpec{Kind: combine.Weighted, Weights: []float64{1}} // 1 weight, 5 matchers
	if _, err := matchAll(context.Background(), match.NewContext(), incoming, cands[1:], badCfg, BatchOptions{}); err == nil {
		t.Error("mismatched weighted aggregation should fail")
	}
}

// TestMatchBatchBounds pins the optional bounds. Nil bounds and
// all-+Inf bounds each reproduce per-pair Match: every candidate
// without TopK, each group's TopK best with it (+Inf forces every pair
// to be matched, so nothing is skipped). Malformed bounds are
// rejected: bounds without a TopK to prune against, and bound slices
// that do not align with the candidate groups.
func TestMatchBatchBounds(t *testing.T) {
	all := workload.Candidates(9)
	incoming, cands := all[0], all[1:]
	cfg := DefaultConfig()
	ref := match.NewContext()
	want := make(map[*schema.Schema]*Result, len(cands))
	for _, c := range cands {
		res, err := Match(ref, incoming, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = res
	}
	groups := groupsOf(cands, 3)
	infBounds := func() [][]float64 {
		out := make([][]float64, len(groups))
		for gi, g := range groups {
			out[gi] = make([]float64, len(g))
			for ci := range g {
				out[gi][ci] = math.Inf(1)
			}
		}
		return out
	}
	ctx := context.Background()

	for _, tc := range []struct {
		name   string
		topK   int
		bounds [][]float64
	}{
		{"nil", 0, nil},
		{"nil/topk", 2, nil},
		{"inf/topk", 2, infBounds()},
	} {
		got, stats, _, err := MatchBatch(ctx, match.NewContext(), incoming, groups, tc.bounds, cfg, BatchOptions{TopK: tc.topK})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.Candidates != len(cands) || stats.Matched != len(cands) || stats.Skipped != 0 {
			t.Errorf("%s: stats %+v, want all %d candidates matched", tc.name, stats, len(cands))
		}
		for gi, rs := range got {
			wantKept := len(groups[gi])
			if tc.topK > 0 && tc.topK < wantKept {
				wantKept = tc.topK
			}
			kept, worstKept, bestCut := 0, 2.0, -1.0
			for ci, res := range rs {
				w := want[groups[gi][ci]]
				if res == nil {
					bestCut = math.Max(bestCut, w.SchemaSim)
					continue
				}
				kept++
				worstKept = math.Min(worstKept, res.SchemaSim)
				assertSameResult(t, res, w)
			}
			if kept != wantKept {
				t.Errorf("%s: group %d kept %d results, want %d", tc.name, gi, kept, wantKept)
			}
			if bestCut > worstKept {
				t.Errorf("%s: group %d cut a schema sim %v better than kept %v", tc.name, gi, bestCut, worstKept)
			}
		}
	}

	if _, _, _, err := MatchBatch(ctx, match.NewContext(), incoming, groups, infBounds(), cfg, BatchOptions{}); err == nil {
		t.Error("bounds without TopK accepted")
	}
	short := infBounds()
	short[1] = short[1][1:]
	if _, _, _, err := MatchBatch(ctx, match.NewContext(), incoming, groups, short, cfg, BatchOptions{TopK: 2}); err == nil {
		t.Error("bounds shorter than their candidate group accepted")
	}
	if _, _, _, err := MatchBatch(ctx, match.NewContext(), incoming, groups, infBounds()[:2], cfg, BatchOptions{TopK: 2}); err == nil {
		t.Error("fewer bound groups than candidate groups accepted")
	}
}
