package analysis_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/strutil"
	"repro/internal/workload"
)

func defaultSources() analysis.Sources {
	return analysis.Sources{
		Dict:     dict.Default(),
		Types:    dict.DefaultTypeTable(),
		Taxonomy: dict.DefaultTaxonomy(),
	}
}

// randomName draws a plausible element name: camel-cased fragments
// mixing dictionary vocabulary, abbreviations, and noise.
func randomName(rng *rand.Rand) string {
	vocab := []string{
		"ship", "deliver", "bill", "invoice", "city", "town", "zip", "street",
		"customer", "supplier", "po", "qty", "amt", "no", "num", "addr",
		"contact", "phone", "price", "total", "order", "item", "unit",
		"Xq", "zzz", "foo", "HTTP", "q9", "", "A",
	}
	n := 1 + rng.Intn(3)
	var b strings.Builder
	for i := 0; i < n; i++ {
		w := vocab[rng.Intn(len(vocab))]
		if len(w) > 0 && rng.Intn(2) == 0 {
			w = strings.ToUpper(w[:1]) + w[1:]
		}
		b.WriteString(w)
	}
	return b.String()
}

// randomSchema builds a random three-level schema over random names.
func randomSchema(rng *rand.Rand, name string) *schema.Schema {
	s := schema.New(name)
	types := []string{"VARCHAR(200)", "INT", "xsd:decimal", "DATE", "", "bool", "mystery"}
	for t := 0; t < 2+rng.Intn(3); t++ {
		top := schema.NewNode(randomName(rng) + fmt.Sprint(t))
		for c := 0; c < rng.Intn(4); c++ {
			mid := schema.NewNode(randomName(rng))
			mid.TypeName = types[rng.Intn(len(types))]
			if rng.Intn(3) == 0 {
				for l := 0; l < 1+rng.Intn(3); l++ {
					leaf := schema.NewNode(randomName(rng))
					leaf.TypeName = types[rng.Intn(len(types))]
					mid.AddChild(leaf)
				}
			}
			top.AddChild(mid)
		}
		s.Root.AddChild(top)
	}
	return s
}

// TestIndexStructureAgreesWithPaths is the structural property test:
// every dense enumeration of the index agrees with the direct
// schema.Path computation.
func TestIndexStructureAgreesWithPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schemas := []*schema.Schema{}
	for i := 0; i < 20; i++ {
		schemas = append(schemas, randomSchema(rng, fmt.Sprintf("R%d", i)))
	}
	schemas = append(schemas, workload.Schemas()...)
	src := defaultSources()
	for _, s := range schemas {
		x := analysis.NewIndex(s, src)
		paths := s.Paths()
		if len(x.Paths) != len(paths) {
			t.Fatalf("%s: %d paths indexed, want %d", s.Name, len(x.Paths), len(paths))
		}
		for i, p := range paths {
			if x.Keys[i] != p.String() {
				t.Fatalf("%s: key[%d] = %q, want %q", s.Name, i, x.Keys[i], p.String())
			}
			if x.IsLeaf[i] != p.Leaf().IsLeaf() {
				t.Fatalf("%s: IsLeaf[%d] mismatch", s.Name, i)
			}
			// Parent agrees with the path prefix.
			if parent, ok := p.Parent(); ok {
				pi := x.Parent[i]
				if pi < 0 || !paths[pi].Equal(parent) {
					t.Fatalf("%s: parent of %q wrong", s.Name, p)
				}
			} else if x.Parent[i] != -1 {
				t.Fatalf("%s: top-level %q has parent %d", s.Name, p, x.Parent[i])
			}
			// Children agree with ChildPaths.
			want := p.ChildPaths()
			if len(x.Children[i]) != len(want) {
				t.Fatalf("%s: %q has %d children, want %d", s.Name, p, len(x.Children[i]), len(want))
			}
			for k, ci := range x.Children[i] {
				if !paths[ci].Equal(want[k]) {
					t.Fatalf("%s: child %d of %q wrong", s.Name, k, p)
				}
			}
			// Leaf sets agree with LeafPaths, in order.
			lo, hi := x.LeafSet(i)
			wantLeaves := p.LeafPaths()
			if hi-lo != len(wantLeaves) {
				t.Fatalf("%s: %q leaf set size %d, want %d", s.Name, p, hi-lo, len(wantLeaves))
			}
			for k, lp := range wantLeaves {
				if !paths[x.Leaves[lo+k]].Equal(lp) {
					t.Fatalf("%s: leaf %d of %q wrong", s.Name, k, p)
				}
			}
			// Generic type classes agree with the type table.
			if x.Generic[i] != src.Types.Generic(p.Leaf().TypeName) {
				t.Fatalf("%s: generic class of %q wrong", s.Name, p)
			}
			// PathIndex resolves the key back (first occurrence wins).
			if j := x.PathIndex(x.Keys[i]); j < 0 || x.Keys[j] != x.Keys[i] {
				t.Fatalf("%s: PathIndex(%q) = %d", s.Name, x.Keys[i], j)
			}
		}
	}
}

// TestIndexProfilesAgreeWithStrutil checks that the index's name
// profiles are exactly the profiles a direct strutil analysis yields:
// same token sets, normal forms, gram multisets and Soundex codes.
func TestIndexProfilesAgreeWithStrutil(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := defaultSources()
	for round := 0; round < 10; round++ {
		s := randomSchema(rng, fmt.Sprintf("P%d", round))
		x := analysis.NewIndex(s, src)
		for i, p := range x.Paths {
			for _, pair := range []struct {
				got  *strutil.NameProfile
				name string
			}{
				{x.NameProfile(i), p.Name()},
				{x.LongNameProfile(i), strings.Join(p.Names(), ".")},
			} {
				want := strutil.NewNameProfile(pair.name, src.Dict.Expand, 2, 3)
				if pair.got.Name != want.Name {
					t.Fatalf("profile name %q, want %q", pair.got.Name, want.Name)
				}
				if strings.Join(pair.got.Tokens, "|") != strings.Join(want.Tokens, "|") {
					t.Fatalf("%q: tokens %v, want %v", pair.name, pair.got.Tokens, want.Tokens)
				}
				for k, tp := range pair.got.Profiles {
					wp := want.Profiles[k]
					if tp.Norm != wp.Norm || tp.Code != wp.Code {
						t.Fatalf("%q token %q: norm/code mismatch", pair.name, tp.Token)
					}
					for _, n := range []int{2, 3} {
						if strings.Join(tp.Grams(n), "|") != strings.Join(wp.Grams(n), "|") {
							t.Fatalf("%q token %q: %d-grams mismatch", pair.name, tp.Token, n)
						}
					}
				}
			}
		}
	}
}

// TestDictHitSetsAgreeWithLookup is the dictionary property test: for
// randomized token pairs, intersecting the precomputed hit-sets gives
// exactly dict.Dictionary.Lookup, and chain intersection gives exactly
// dict.Taxonomy.Sim.
func TestDictHitSetsAgreeWithLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := dict.Default()
	tax := dict.DefaultTaxonomy()
	dx := d.Analyze()
	tx := tax.Analyze()

	terms := d.Terms()
	pool := append([]string{}, terms...)
	pool = append(pool, "street", "city", "vendor", "unknownterm", "zz9", "measure", "party", "")
	for i := 0; i < 5000; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]

		// Dictionary: equal terms are the caller's fast path; distinct
		// terms resolve through the id hit-sets.
		var got float64
		if a == b {
			if a != "" {
				got = 1
			}
		} else {
			ida, idb := dx.TermID(a), dx.TermID(b)
			if ida >= 0 && idb >= 0 {
				got = strutil.LookupIDSim(dx.Relations(ida), idb)
			}
		}
		if want := d.Lookup(a, b); got != want {
			t.Fatalf("hit-set Lookup(%q, %q) = %v, dictionary says %v", a, b, got, want)
		}

		// Taxonomy: identical terms short-circuit to 1, others through
		// chain intersection.
		var tgot float64
		if a == b {
			if a != "" {
				tgot = 1
			}
		} else {
			tgot = dict.ChainSim(tx.Decay(), tx.Chain(a), tx.Chain(b))
		}
		if a == "" || b == "" {
			tgot = 0
		}
		if twant := tax.Sim(a, b); tgot != twant {
			t.Fatalf("chain Sim(%q, %q) = %v, taxonomy says %v", a, b, tgot, twant)
		}
	}
}

// TestAnalyzerCachesAndInvalidates covers the once-per-schema
// lifecycle: same schema and sources hit the cache, changed sources or
// a re-enumerated schema rebuild.
func TestAnalyzerCachesAndInvalidates(t *testing.T) {
	a := analysis.NewAnalyzer()
	src := defaultSources()
	s := workload.Schemas()[0]
	x1 := a.Index(s, src)
	if x2 := a.Index(s, src); x2 != x1 {
		t.Error("same schema+sources should hit the cache")
	}
	// Different sources rebuild.
	other := src
	other.Dict = dict.Default()
	if x3 := a.Index(s, other); x3 == x1 {
		t.Error("changed sources must rebuild the index")
	}
	// Structural modification + Invalidate rebuilds.
	s2 := randomSchema(rand.New(rand.NewSource(1)), "Mut")
	y1 := a.Index(s2, src)
	s2.Root.AddChild(schema.NewNode("extra"))
	s2.Invalidate()
	y2 := a.Index(s2, src)
	if y2 == y1 {
		t.Error("stale path enumeration must rebuild the index")
	}
	if len(y2.Paths) != len(y1.Paths)+1 {
		t.Errorf("rebuilt index has %d paths, want %d", len(y2.Paths), len(y1.Paths)+1)
	}
	a.Invalidate(nil)
	if x4 := a.Index(s, src); x4 == x1 {
		t.Error("Invalidate(nil) should drop all cached indexes")
	}
}

// TestIndexSharedFragments checks the dense enumerations on a schema
// with a shared fragment (one node, two containment chains).
func TestIndexSharedFragments(t *testing.T) {
	s := schema.New("Shared")
	addr := schema.NewNode("Address")
	for _, n := range []string{"street", "city"} {
		leaf := schema.NewNode(n)
		leaf.TypeName = "VARCHAR(10)"
		addr.AddChild(leaf)
	}
	ship := schema.NewNode("ShipTo")
	bill := schema.NewNode("BillTo")
	ship.AddChild(addr)
	bill.AddChild(addr)
	s.Root.AddChild(ship)
	s.Root.AddChild(bill)

	x := analysis.NewIndex(s, defaultSources())
	if len(x.Paths) != 8 {
		t.Fatalf("paths = %d, want 8 (shared fragment expands per chain)", len(x.Paths))
	}
	if len(x.Leaves) != 4 {
		t.Fatalf("leaves = %d, want 4", len(x.Leaves))
	}
	lo, hi := x.LeafSet(x.PathIndex("ShipTo"))
	if hi-lo != 2 {
		t.Fatalf("ShipTo leaf set = %d, want 2", hi-lo)
	}
	// The same node reached via BillTo is a distinct element (path).
	if x.PathIndex("BillTo.Address.city") < 0 {
		t.Fatal("missing shared-fragment path under BillTo")
	}
}

// TestSourceMutationInvalidates pins the staleness guard: mutating a
// dictionary or taxonomy IN PLACE (same pointers) must invalidate
// cached indexes, so an engine reused across Match calls never serves
// hit-sets that predate the mutation.
func TestSourceMutationInvalidates(t *testing.T) {
	a := analysis.NewAnalyzer()
	src := defaultSources()
	s := workload.Schemas()[0]
	x1 := a.Index(s, src)
	src.Dict.AddSynonym("warehouse", "depot")
	x2 := a.Index(s, src)
	if x2 == x1 {
		t.Fatal("in-place dictionary mutation must rebuild the index")
	}
	src.Taxonomy.SetDecay(0.5)
	x3 := a.Index(s, src)
	if x3 == x2 {
		t.Fatal("in-place taxonomy mutation must rebuild the index")
	}
	src.Types.MapName("mystery", dict.GenString)
	if a.Index(s, src) == x3 {
		t.Fatal("in-place type table mutation must rebuild the index")
	}
	// And the fresh index carries the new relationship.
	x4 := a.Index(s, src)
	dx := src.Dict.Analyze()
	wid, did := dx.TermID("warehouse"), dx.TermID("depot")
	if wid < 0 || did < 0 || strutil.LookupIDSim(dx.Relations(wid), did) != 1 {
		t.Fatal("rebuilt snapshot must contain the new synonym")
	}
	_ = x4
}

// TestDictAnalyzeSnapshotCached pins the once-per-version snapshot:
// repeated Analyze calls on an unmutated dictionary return the same
// object; a mutation produces a fresh one.
func TestDictAnalyzeSnapshotCached(t *testing.T) {
	d := dict.Default()
	a, b := d.Analyze(), d.Analyze()
	if a != b {
		t.Error("Analyze should cache its snapshot per version")
	}
	d.AddAbbreviation("xyz", "xylophone")
	if d.Analyze() == a {
		t.Error("mutation must produce a fresh snapshot")
	}
}

// TestInvalidateCatchesInPlaceEdit is the regression test for the
// schema mutation version: an in-place node edit that keeps the path
// COUNT identical (a rename) must still rebuild the cached index after
// Schema.Invalidate — the staleness check rides the mutation counter,
// not the enumeration's shape.
func TestInvalidateCatchesInPlaceEdit(t *testing.T) {
	a := analysis.NewAnalyzer()
	src := defaultSources()
	s := schema.New("Edit")
	leaf := schema.NewNode("customer")
	leaf.TypeName = "VARCHAR(40)"
	s.Root.AddChild(leaf)
	x1 := a.Index(s, src)
	if got := x1.Names[x1.NameID[0]].Name; got != "customer" {
		t.Fatalf("indexed name = %q", got)
	}
	leaf.Name = "supplier" // same path count, different content
	s.Invalidate()
	x2 := a.Index(s, src)
	if x2 == x1 {
		t.Fatal("in-place rename + Invalidate must rebuild the index")
	}
	if got := x2.Names[x2.NameID[0]].Name; got != "supplier" {
		t.Errorf("rebuilt index still analyzes %q", got)
	}
	// Without an intervening Invalidate the rebuilt index stays cached.
	if a.Index(s, src) != x2 {
		t.Error("unchanged schema must hit the cache")
	}
}
