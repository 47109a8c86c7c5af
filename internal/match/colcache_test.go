package match

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dict"
	"repro/internal/schema"
)

// colTestSchema builds a tiny distinct schema per name.
func colTestSchema(name string) *schema.Schema {
	s := schema.New(name)
	tbl := schema.NewNode(name + "Tbl")
	for _, c := range []string{"custNo", "city"} {
		leaf := schema.NewNode(c)
		leaf.TypeName = "VARCHAR(10)"
		tbl.AddChild(leaf)
	}
	s.Root.AddChild(tbl)
	return s
}

// TestColumnCacheIdentityAndStaleness: one BatchCache per live
// incoming index; entries whose index went stale (schema mutation +
// Invalidate, or in-place source mutation) are pruned on access.
func TestColumnCacheIdentityAndStaleness(t *testing.T) {
	ctx := NewContext()
	src := ctx.Sources()
	cc := NewColumnCache(0)
	s := colTestSchema("Inc")
	idx := analysis.NewIndex(s, src)

	bc1 := cc.ForIncoming(idx)
	if bc1 == nil || cc.ForIncoming(idx) != bc1 {
		t.Fatal("same index must return the same column cache")
	}
	if cc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", cc.Len())
	}

	// Structural edit: the old index goes stale; the entry dies on the
	// next access, the rebuilt index gets a fresh cache.
	s.Root.AddChild(schema.NewNode("extra"))
	s.Invalidate()
	idx2 := analysis.NewIndex(s, src)
	bc2 := cc.ForIncoming(idx2)
	if bc2 == bc1 {
		t.Fatal("stale index must not share columns with its successor")
	}
	if cc.Len() != 1 {
		t.Fatalf("Len after staleness pruning = %d, want 1", cc.Len())
	}

	// In-place dictionary mutation invalidates every entry built
	// against it.
	ctx.Dict.AddSynonym("city", "municipality")
	other := analysis.NewIndex(colTestSchema("Other"), src)
	cc.ForIncoming(other)
	if cc.Len() != 1 {
		t.Fatalf("Len after source mutation = %d, want 1 (stale entry pruned)", cc.Len())
	}
}

// TestColumnCacheInvalidate: eager invalidation by schema (the
// engine's Invalidate hook) and wholesale.
func TestColumnCacheInvalidate(t *testing.T) {
	src := (&Context{Dict: dict.Default()}).Sources()
	cc := NewColumnCache(0)
	s1, s2 := colTestSchema("A"), colTestSchema("B")
	cc.ForIncoming(analysis.NewIndex(s1, src))
	cc.ForIncoming(analysis.NewIndex(s2, src))
	if cc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cc.Len())
	}
	cc.Invalidate(s1)
	if cc.Len() != 1 {
		t.Fatalf("Len after Invalidate(s1) = %d, want 1", cc.Len())
	}
	cc.Invalidate(nil)
	if cc.Len() != 0 {
		t.Fatalf("Len after Invalidate(nil) = %d, want 0", cc.Len())
	}
}

// TestColumnCacheLimit: the LRU bound on distinct incoming indexes.
func TestColumnCacheLimit(t *testing.T) {
	src := (&Context{Dict: dict.Default()}).Sources()
	cc := NewColumnCache(2)
	idxs := make([]*analysis.SchemaIndex, 3)
	for i := range idxs {
		idxs[i] = analysis.NewIndex(colTestSchema(fmt.Sprintf("S%d", i)), src)
	}
	bc0 := cc.ForIncoming(idxs[0])
	cc.ForIncoming(idxs[1])
	cc.ForIncoming(idxs[0]) // touch 0 so 1 is the LRU victim
	cc.ForIncoming(idxs[2])
	if cc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cc.Len())
	}
	if cc.ForIncoming(idxs[0]) != bc0 {
		t.Error("recently used entry must survive the bound")
	}
	if cc.Len() != 2 {
		t.Errorf("Len = %d, want 2", cc.Len())
	}
}

// TestPersistentBatchCacheFlush: a persistent entry's column map
// flushes (and keeps working) instead of growing one column per
// candidate name ever seen.
func TestPersistentBatchCacheFlush(t *testing.T) {
	bc := &BatchCache{cols: make(map[batchKey][]float64), limit: 4}
	col := func(name string) []float64 {
		return bc.column("owner", gridFull, name, 1, func(c []float64) { c[0] = float64(len(name)) })
	}
	for i := 0; i < 10; i++ {
		col(fmt.Sprintf("name-%02d", i))
	}
	if n := len(bc.cols); n > 4 {
		t.Errorf("column map grew to %d entries past the limit of 4", n)
	}
	// Values stay correct across flushes (recomputed, identical).
	if got := col("xyz")[0]; got != 3 {
		t.Errorf("post-flush column = %v, want 3", got)
	}
}

// TestColumnCacheExportSeed: configuration-owned columns survive an
// export/seed cycle (the warm-restart path) and serve as hits in the
// new cache; instance-owned columns are never exported.
func TestColumnCacheExportSeed(t *testing.T) {
	ctx := NewContext()
	src := ctx.Sources()
	idx := analysis.NewIndex(colTestSchema("Inc"), src)

	cc := NewColumnCache(0)
	bc := cc.ForIncoming(idx)
	owner := sharedOwner{key: "name", comb: 0}
	want := []float64{0.25, 0.75}
	bc.column(owner, gridFull, "candA", len(want), func(col []float64) { copy(col, want) })
	bc.column(owner, gridLeaf, "candB", 1, func(col []float64) { col[0] = 0.5 })
	instanceOwned := &struct{ tag string }{"private"}
	bc.column(instanceOwned, gridFull, "candC", 1, func(col []float64) { col[0] = 1 })

	arts := cc.Export(idx)
	if len(arts) != 2 {
		t.Fatalf("exported %d artifacts, want 2 (instance-owned skipped)", len(arts))
	}
	if cc.Export(analysis.NewIndex(colTestSchema("Other"), src)) != nil {
		t.Fatal("exported columns for an index that holds none")
	}

	cc2 := NewColumnCache(0)
	if n := cc2.Seed(idx, arts); n != len(arts) {
		t.Fatalf("Seed installed %d columns, want %d", n, len(arts))
	}
	bc2 := cc2.ForIncoming(idx)
	col := bc2.column(owner, gridFull, "candA", len(want), func([]float64) {
		t.Fatal("seeded column recomputed")
	})
	for i, v := range want {
		if col[i] != v {
			t.Fatalf("seeded col[%d] = %v, want %v", i, col[i], v)
		}
	}
	if st := cc2.Stats(); st.Hits != 1 {
		t.Fatalf("seeded read not a hit: %+v", st)
	}
	// Seeding never overwrites a live column, and does not count it.
	if n := cc2.Seed(idx, []ColumnArtifact{{OwnerKey: "name", Comb: 0, Set: gridFull, Name: "candA", Col: []float64{9, 9}}}); n != 0 {
		t.Fatalf("Seed over a live column reported %d installed, want 0", n)
	}
	col = bc2.column(owner, gridFull, "candA", len(want), func([]float64) {
		t.Fatal("seeded column recomputed")
	})
	if col[0] != want[0] {
		t.Fatal("Seed overwrote an existing column")
	}
}
