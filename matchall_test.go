package coma_test

import (
	"path/filepath"
	"testing"

	coma "repro"
	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/simcube"
	"repro/internal/workload"
)

// assertResultsEqual compares two public match results bit for bit:
// aggregated matrix, mapping and schema similarity.
func assertResultsEqual(t *testing.T, label string, got, want *coma.Result) {
	t.Helper()
	if got.SchemaSim != want.SchemaSim {
		t.Errorf("%s: schema sim %v, want %v", label, got.SchemaSim, want.SchemaSim)
	}
	diffMatrices(t, label+"/matrix", got.Matrix, want.Matrix)
	gc, wc := got.Mapping.Correspondences(), want.Mapping.Correspondences()
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d correspondences, want %d", label, len(gc), len(wc))
	}
	for i := range gc {
		if gc[i] != wc[i] {
			t.Errorf("%s: correspondence %d = %v, want %v", label, i, gc[i], wc[i])
		}
	}
}

// TestMatchAllGoldenVsMatchLoop is the batch scheduler's golden
// guarantee: MatchAll over pooled arenas produces results bit-identical
// to a loop of Engine.Match over the same pairs — sequentially and in
// parallel. Pooled matrix recycling must never change a score.
func TestMatchAllGoldenVsMatchLoop(t *testing.T) {
	all := workload.Candidates(7)
	incoming, cands := all[0], all[1:]

	loopEngine, err := coma.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*coma.Result, len(cands))
	for i, c := range cands {
		if want[i], err = loopEngine.Match(incoming, c); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 0} { // sequential, all CPUs
		engine, err := coma.NewEngine(coma.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		// Two rounds through the same engine so the second round runs
		// entirely on recycled arena storage and cached analyses.
		for round := 0; round < 2; round++ {
			got, err := engine.MatchAll(incoming, cands)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(cands) {
				t.Fatalf("workers=%d: %d results for %d candidates", workers, len(got), len(cands))
			}
			for i, res := range got {
				if res.Cube != nil {
					t.Errorf("workers=%d: candidate %d has a cube without KeepCubes", workers, i)
				}
				assertResultsEqual(t, cands[i].Name, res, want[i])
			}
		}
	}
}

// TestMatchAllTopKPublic exercises the TopK option through the public
// API: kept results are bit-identical, pruned slots nil, option
// validation rejects non-positive K.
func TestMatchAllTopKPublic(t *testing.T) {
	all := workload.Candidates(5)
	incoming, cands := all[0], all[1:]
	engine, err := coma.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	full, err := engine.MatchAll(incoming, cands)
	if err != nil {
		t.Fatal(err)
	}
	top, err := engine.MatchAll(incoming, cands, coma.TopK(2))
	if err != nil {
		t.Fatal(err)
	}
	var kept int
	for i, res := range top {
		if res == nil {
			continue
		}
		kept++
		assertResultsEqual(t, cands[i].Name, res, full[i])
	}
	if kept != 2 {
		t.Fatalf("TopK(2) kept %d results", kept)
	}
	if _, err := engine.MatchAll(incoming, cands, coma.TopK(0)); err == nil {
		t.Error("TopK(0) should be rejected")
	}

	withCubes, err := engine.MatchAll(incoming, cands[:1], coma.KeepCubes())
	if err != nil {
		t.Fatal(err)
	}
	if withCubes[0].Cube == nil {
		t.Error("KeepCubes dropped the cube")
	}
	if got := withCubes[0].Cube.Layers(); got != 5 {
		t.Errorf("kept cube has %d layers, want 5", got)
	}
}

// retainingMatcher returns the same prebuilt matrix on every call — a
// pattern the Matcher contract permits and Engine.Match tolerates. The
// batch scheduler recycles cube layers, so it must leave storage it
// does not own (anything not acquired from its own arena) intact.
type retainingMatcher struct{ m *simcube.Matrix }

func (r *retainingMatcher) Name() string { return "Retaining" }
func (r *retainingMatcher) Match(*match.Context, *schema.Schema, *schema.Schema) *simcube.Matrix {
	return r.m
}

func TestMatchAllCustomMatcherRetainedMatrix(t *testing.T) {
	all := workload.Candidates(2)
	incoming, cand := all[0], all[1]
	rm := &retainingMatcher{m: simcube.NewMatrix(match.Keys(incoming), match.Keys(cand))}
	rm.m.Fill(func(i, j int) float64 { return 0.25 })
	engine, err := coma.NewEngine(coma.WithMatcherInstances(rm))
	if err != nil {
		t.Fatal(err)
	}
	// The same candidate three times: every pair hands the scheduler
	// the same retained matrix, and each cube release must leave it
	// untouched for the next pair.
	results, err := engine.MatchAll(incoming, []*coma.Schema{cand, cand, cand})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if got := res.Matrix.Get(0, 0); got != 0.25 {
			t.Errorf("result %d: aggregated cell = %v, want 0.25", i, got)
		}
	}
	if got := rm.m.Get(0, 0); got != 0.25 {
		t.Errorf("retained matrix corrupted after batch: cell = %v, want 0.25", got)
	}
}

// TestRepositoryMatchIncoming stores a candidate set and matches an
// incoming schema against the whole repository, checking ranking and
// TopK shortlist semantics.
func TestRepositoryMatchIncoming(t *testing.T) {
	repo, err := coma.OpenRepository(filepath.Join(t.TempDir(), "batch.repo"))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	all := workload.Candidates(6)
	incoming, stored := all[0], all[1:]
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := repo.MatchIncoming(incoming)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(stored) {
		t.Fatalf("%d matches for %d stored schemas", len(matches), len(stored))
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Result.SchemaSim > matches[i-1].Result.SchemaSim {
			t.Errorf("matches not sorted: %s (%v) after %s (%v)",
				matches[i].Schema.Name, matches[i].Result.SchemaSim,
				matches[i-1].Schema.Name, matches[i-1].Result.SchemaSim)
		}
	}
	// The CIDX#2 variant is structurally identical to the incoming
	// CIDX schema, so it must rank first.
	if matches[0].Schema.Name != "CIDX#2" {
		t.Errorf("best candidate %s, want CIDX#2", matches[0].Schema.Name)
	}

	short, err := repo.MatchIncoming(incoming, coma.TopK(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != 2 {
		t.Fatalf("TopK(2) shortlist has %d entries", len(short))
	}
	for i, m := range short {
		if m.Schema.Name != matches[i].Schema.Name {
			t.Errorf("shortlist[%d] = %s, want %s", i, m.Schema.Name, matches[i].Schema.Name)
		}
	}
}
