package candidates_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/workload"
)

// newSpec builds the pruning spec for the default configuration, which
// must be boundable — the default five hybrid matchers under the
// default strategy are exactly the configuration the index is for.
func newSpec(t *testing.T) (*candidates.Spec, core.Config) {
	t.Helper()
	cfg := core.DefaultConfig()
	spec := candidates.NewSpec(cfg.Matchers, cfg.Strategy, nil)
	if spec == nil {
		t.Fatal("default matcher configuration is not boundable")
	}
	return spec, cfg
}

func TestSpecGates(t *testing.T) {
	cfg := core.DefaultConfig()
	if spec := candidates.NewSpec(cfg.Matchers, cfg.Strategy, &match.Feedback{}); spec != nil {
		t.Error("feedback-carrying configuration must not be boundable")
	}
	if spec := candidates.NewSpec(nil, cfg.Strategy, nil); spec != nil {
		t.Error("empty matcher list must not be boundable")
	}
}

func TestIndexMaintenance(t *testing.T) {
	mctx := match.NewContext()
	schemas := workload.Candidates(6)
	idx := candidates.NewIndex()

	for _, s := range schemas {
		idx.Add(s, mctx.Index(s))
	}
	st := idx.Stats()
	if st.Schemas != len(schemas) {
		t.Fatalf("Schemas = %d, want %d", st.Schemas, len(schemas))
	}
	if st.Postings == 0 {
		t.Fatal("no postings after indexing")
	}

	// Re-adding the same instance replaces, not duplicates.
	idx.Add(schemas[0], mctx.Index(schemas[0]))
	if got := idx.Stats(); got.Schemas != len(schemas) || got.Postings != st.Postings {
		t.Fatalf("re-add changed stats: %+v -> %+v", st, got)
	}

	// Removing drains the schema's postings; removing twice is a no-op.
	if !idx.Remove(schemas[0]) {
		t.Fatal("Remove of an indexed schema reported false")
	}
	if idx.Remove(schemas[0]) {
		t.Fatal("second Remove reported true")
	}
	st2 := idx.Stats()
	if st2.Schemas != len(schemas)-1 || st2.Postings >= st.Postings {
		t.Fatalf("stats after remove: %+v (before %+v)", st2, st)
	}

	// Removing everything empties the posting lists completely.
	for _, s := range schemas[1:] {
		idx.Remove(s)
	}
	if got := idx.Stats(); got.Schemas != 0 || got.Postings != 0 {
		t.Fatalf("stats after removing all: %+v", got)
	}

	// A freed slot is reused.
	idx.Add(schemas[2], mctx.Index(schemas[2]))
	if got := idx.Stats(); got.Schemas != 1 {
		t.Fatalf("stats after re-add: %+v", got)
	}
}

func TestStale(t *testing.T) {
	mctx := match.NewContext()
	schemas := workload.Candidates(3)
	idx := candidates.NewIndex()
	idx.Add(schemas[0], mctx.Index(schemas[0]))

	stale := idx.Stale(schemas, mctx.Sources())
	if len(stale) != 2 {
		t.Fatalf("Stale = %d schemas, want the 2 unindexed ones", len(stale))
	}
	for _, s := range stale {
		idx.Add(s, mctx.Index(s))
	}
	if stale := idx.Stale(schemas, mctx.Sources()); len(stale) != 0 {
		t.Fatalf("Stale after full indexing = %v", stale)
	}

	// An analysis from foreign sources is stale for this index.
	other := match.NewContext()
	if stale := idx.Stale(schemas, other.Sources()); len(stale) != len(schemas) {
		t.Fatalf("Stale under foreign sources = %d, want all %d", len(stale), len(schemas))
	}
}

// TestBoundsAdmissible is the property the whole subsystem rests on:
// for every candidate, the index's cheap bound must be >= the real
// combined schema similarity of the full pipeline. It checks the five
// workload schemas pairwise (heavy dictionary and synonym traffic) and
// a corpus slice (Zipf vocabulary, evolution families).
func TestBoundsAdmissible(t *testing.T) {
	spec, cfg := newSpec(t)

	check := func(t *testing.T, incoming *schema.Schema, cands []*schema.Schema) {
		mctx := match.NewContext()
		idx := candidates.NewIndex()
		for _, s := range cands {
			idx.Add(s, mctx.Index(s))
		}
		probe := candidates.NewProbe(spec, mctx.Index(incoming))
		bounds := idx.Bounds(probe, cands)
		var xs []*analysis.SchemaIndex
		for _, s := range cands {
			xs = append(xs, mctx.Index(s))
		}
		groups, _, _, err := core.MatchBatch(context.Background(), mctx, mctx.Index(incoming), [][]*analysis.SchemaIndex{xs}, nil, cfg, core.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range groups[0] {
			if math.IsInf(bounds[i], 1) {
				t.Errorf("%s vs %s: +Inf bound for an indexed candidate", incoming.Name, cands[i].Name)
				continue
			}
			if bounds[i] < res.SchemaSim {
				t.Errorf("%s vs %s: bound %.17g < real %.17g",
					incoming.Name, cands[i].Name, bounds[i], res.SchemaSim)
			}
		}
	}

	t.Run("workload", func(t *testing.T) {
		schemas := workload.Schemas()
		for i, s := range schemas {
			others := append(append([]*schema.Schema{}, schemas[:i]...), schemas[i+1:]...)
			check(t, s, others)
		}
	})
	t.Run("corpus", func(t *testing.T) {
		stored, incoming := workload.CorpusPair(32, 7)
		check(t, incoming, stored)
		// A corpus member probing its own siblings exercises the
		// near-duplicate end (real scores close to 1).
		check(t, stored[0], stored[1:])
	})
}

// TestBoundsStaleIsInf pins the safety net: a candidate the index does
// not know (or knows under foreign sources) gets a +Inf bound — it
// must always be matched, never skipped on a guess.
func TestBoundsStaleIsInf(t *testing.T) {
	spec, _ := newSpec(t)
	mctx := match.NewContext()
	schemas := workload.Candidates(3)
	idx := candidates.NewIndex()
	idx.Add(schemas[0], mctx.Index(schemas[0]))
	probe := candidates.NewProbe(spec, mctx.Index(schemas[1]))
	bounds := idx.Bounds(probe, schemas)
	if math.IsInf(bounds[0], 1) {
		t.Error("indexed candidate got +Inf")
	}
	for i := 1; i < len(schemas); i++ {
		if !math.IsInf(bounds[i], 1) {
			t.Errorf("unindexed candidate %d got finite bound %g", i, bounds[i])
		}
	}
}
