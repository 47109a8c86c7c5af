package analysis_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/workload"
)

// TestAnalyzerLookupNeverInserts: Lookup serves a schema with an entry
// exactly as Index does, but answers a schema without one with a fresh
// throwaway index every time, counted as a miss, and leaves the cache
// untouched.
func TestAnalyzerLookupNeverInserts(t *testing.T) {
	src := defaultSources()
	schemas := workload.Schemas()
	stored, inline := schemas[0], schemas[1]
	a := analysis.NewAnalyzer()
	x := a.Index(stored, src)

	got, cached := a.Lookup(stored, src)
	if got != x || !cached {
		t.Fatalf("Lookup of a cached schema = (%p, %v), want (%p, true)", got, cached, x)
	}
	y1, cached := a.Lookup(inline, src)
	if cached || y1 == nil || y1.Schema != inline {
		t.Fatalf("Lookup of an uncached schema = (%v, %v), want a throwaway index", y1, cached)
	}
	if y2, _ := a.Lookup(inline, src); y2 == y1 {
		t.Error("a throwaway index was cached")
	}
	if n := a.Len(); n != 1 {
		t.Errorf("Len = %d after Lookups, want 1", n)
	}
	if a.Peek(inline) != nil {
		t.Error("Lookup inserted an entry")
	}
	if st := a.Stats(); st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats %+v, want 1 hit and 3 misses (one Index build, two throwaways)", st)
	}

	// Removed, the schema is served like any other uncached one.
	a.Remove(stored)
	if _, cached := a.Lookup(stored, src); cached {
		t.Error("Lookup still serves a removed schema")
	}
	if n := a.Len(); n != 0 {
		t.Errorf("Len = %d after Remove, want 0", n)
	}
}

// TestAnalyzerInvalidateKeepsEntries: Invalidate drops built indexes
// but not entries — a schema stays cached and its next Lookup rebuilds
// in place — while Remove drops the entry itself.
func TestAnalyzerInvalidateKeepsEntries(t *testing.T) {
	src := defaultSources()
	schemas := workload.Schemas()
	a := analysis.NewAnalyzer()
	x0 := a.Index(schemas[0], src)
	a.Index(schemas[1], src)

	a.Invalidate(schemas[0])
	if n := a.Len(); n != 1 {
		t.Fatalf("Len = %d after Invalidate(s), want 1", n)
	}
	x, cached := a.Lookup(schemas[0], src)
	if !cached || x == x0 {
		t.Fatalf("Lookup after Invalidate = (%v, %v), want a rebuilt cached index", x == x0, cached)
	}
	if y, _ := a.Lookup(schemas[0], src); y != x {
		t.Error("the rebuilt index was not kept")
	}

	a.Invalidate(nil)
	if n := a.Len(); n != 0 {
		t.Fatalf("Len = %d after Invalidate(nil), want 0", n)
	}
	for i, s := range schemas[:2] {
		if _, cached := a.Lookup(s, src); !cached {
			t.Errorf("schema %d lost its entry to Invalidate(nil)", i)
		}
	}
	if n := a.Len(); n != 2 {
		t.Errorf("Len = %d after rebuilding Lookups, want 2", n)
	}
	if st := a.Stats(); st.Invalidations != 3 {
		t.Errorf("%d invalidations, want 3", st.Invalidations)
	}
}

// TestAnalyzerDeleteRace is the -race proof that a deletion cannot be
// undone by a match in flight: every round invalidates a schema's
// index, then races Lookups (a batch rebuilding the stale entry in
// place) against Remove (the store deleting the schema). A rebuild
// that loses the race publishes into the entry Remove already dropped,
// so once quiet no deleted schema holds an entry.
func TestAnalyzerDeleteRace(t *testing.T) {
	src := defaultSources()
	a := analysis.NewAnalyzer()
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		s := workload.Candidates(1)[0]
		s.Name = fmt.Sprintf("race-%03d", round)
		a.Index(s, src)
		a.Invalidate(s)
		var wg sync.WaitGroup
		wg.Add(3)
		for range 2 {
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if x, _ := a.Lookup(s, src); x.Schema != s {
						t.Errorf("round %d: Lookup served another schema's index", round)
					}
				}
			}()
		}
		go func() {
			defer wg.Done()
			a.Remove(s)
		}()
		wg.Wait()
		if a.Peek(s) != nil {
			t.Fatalf("round %d: removed schema resurrected", round)
		}
	}
	if n := a.Len(); n != 0 {
		t.Errorf("deleted schemas leaked %d analyses", n)
	}
}
