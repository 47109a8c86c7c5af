package repository

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/simcube"
	"repro/internal/workload"
)

// openSharded opens an n-shard store under t's temp dir.
func openSharded(t *testing.T, dir string, n int) *Sharded {
	t.Helper()
	s, err := OpenSharded(dir, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedSchemaOps stores schemas across shards and checks routing,
// lookup, deletion and the merged enumerations.
func TestShardedSchemaOps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sharded")
	s := openSharded(t, dir, 4)
	defer s.Close()

	cands := workload.Candidates(10)
	for _, c := range cands {
		if err := s.PutSchema(c); err != nil {
			t.Fatal(err)
		}
	}
	// Routing is by name hash: every schema sits in exactly the shard
	// ShardFor names, and nowhere else.
	for _, c := range cands {
		home := s.ShardFor(c.Name)
		for i := 0; i < s.NumShards(); i++ {
			_, ok := s.Shard(i).GetSchema(c.Name)
			if want := i == home; ok != want {
				t.Errorf("schema %s in shard %d: present=%v, want %v", c.Name, i, ok, want)
			}
		}
	}
	// Distribution: 10 schemas over 4 shards should occupy >1 shard
	// (fnv on the workload names does spread; this guards against a
	// degenerate hash).
	occupied := 0
	for i := 0; i < s.NumShards(); i++ {
		if len(s.Shard(i).SchemaNames()) > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Errorf("all schemas hashed into %d shard(s)", occupied)
	}

	names := s.SchemaNames()
	if len(names) != len(cands) {
		t.Fatalf("SchemaNames: %d names, want %d", len(names), len(cands))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("SchemaNames not sorted: %q before %q", names[i-1], names[i])
		}
	}
	all := s.Schemas()
	if len(all) != len(cands) {
		t.Fatalf("Schemas: %d schemas, want %d", len(all), len(cands))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("Schemas not sorted by name: %q before %q", all[i-1].Name, all[i].Name)
		}
	}

	if err := s.DeleteSchema(cands[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSchema(cands[0].Name); ok {
		t.Errorf("schema %s still present after delete", cands[0].Name)
	}
	if got := s.Stats().Schemas; got != len(cands)-1 {
		t.Errorf("Stats.Schemas = %d, want %d", got, len(cands)-1)
	}
}

// TestShardedPersistence reopens a sharded store and expects all state
// to replay from the shard logs.
func TestShardedPersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sharded")
	s := openSharded(t, dir, 3)
	cands := workload.Candidates(5)
	for _, c := range cands {
		if err := s.PutSchema(c); err != nil {
			t.Fatal(err)
		}
	}
	m := simcube.NewMapping(cands[0].Name, cands[1].Name)
	m.Add("a.b", "c.d", 0.75)
	if err := s.PutMapping("manual", m); err != nil {
		t.Fatal(err)
	}
	cube := simcube.NewCube([]string{"x"}, []string{"y"})
	layer := simcube.NewMatrix([]string{"x"}, []string{"y"})
	layer.Set(0, 0, 0.5)
	if err := cube.AddLayer("Name", layer); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCube("k1|k2", cube); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openSharded(t, dir, 3)
	defer re.Close()
	st := re.Stats()
	if st.Schemas != len(cands) || st.Mappings != 1 || st.Cubes != 1 {
		t.Fatalf("reopened stats = %+v", st)
	}
	got, ok := re.GetMapping("manual", cands[0].Name, cands[1].Name)
	if !ok || got.Len() != 1 {
		t.Fatalf("mapping lost across reopen: ok=%v", ok)
	}
	if _, ok := re.GetCube("k1|k2"); !ok {
		t.Error("cube lost across reopen")
	}

	// Reopening with a different shard count must fail: routing is
	// modulo the creation-time count.
	if _, err := OpenSharded(dir, 5); err == nil {
		t.Error("OpenSharded with mismatched shard count succeeded")
	}
}

// TestShardedMappingOrientation checks that a mapping stored in its
// FromSchema's shard is found under both orientations, inverted on the
// reverse lookup — across shard boundaries.
func TestShardedMappingOrientation(t *testing.T) {
	s := openSharded(t, filepath.Join(t.TempDir(), "sharded"), 8)
	defer s.Close()
	m := simcube.NewMapping("Alpha", "Beta")
	m.Add("Alpha.x", "Beta.y", 0.9)
	if err := s.PutMapping("manual", m); err != nil {
		t.Fatal(err)
	}
	fwd, ok := s.GetMapping("manual", "Alpha", "Beta")
	if !ok || fwd.FromSchema != "Alpha" {
		t.Fatalf("forward lookup failed: ok=%v", ok)
	}
	rev, ok := s.GetMapping("manual", "Beta", "Alpha")
	if !ok {
		t.Fatal("reverse lookup failed")
	}
	if rev.FromSchema != "Beta" || rev.ToSchema != "Alpha" {
		t.Errorf("reverse lookup not inverted: %s->%s", rev.FromSchema, rev.ToSchema)
	}
	if sim, ok := rev.Get("Beta.y", "Alpha.x"); !ok || sim != 0.9 {
		t.Errorf("inverted correspondence = %v,%v", sim, ok)
	}
	if err := s.DeleteMapping("manual", "Alpha", "Beta"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetMapping("manual", "Alpha", "Beta"); ok {
		t.Error("mapping still present after delete")
	}
}

// TestShardedTagStore exercises the cross-shard reuse.Store view.
func TestShardedTagStore(t *testing.T) {
	s := openSharded(t, filepath.Join(t.TempDir(), "sharded"), 4)
	defer s.Close()
	pairs := [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"A", "D"}}
	for _, p := range pairs {
		m := simcube.NewMapping(p[0], p[1])
		m.Add(p[0]+".e", p[1]+".f", 1)
		if err := s.PutMapping("manual", m); err != nil {
			t.Fatal(err)
		}
	}
	// A mapping under another tag must stay invisible.
	other := simcube.NewMapping("A", "Z")
	other.Add("A.e", "Z.f", 1)
	if err := s.PutMapping("auto", other); err != nil {
		t.Fatal(err)
	}

	store := s.MappingStore("manual")
	names := store.SchemaNames()
	want := []string{"A", "B", "C", "D"}
	if len(names) != len(want) {
		t.Fatalf("SchemaNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("SchemaNames = %v, want %v", names, want)
		}
	}
	all := store.AllMappings()
	if len(all) != len(pairs) {
		t.Fatalf("AllMappings: %d mappings, want %d", len(all), len(pairs))
	}
	for i := 1; i < len(all); i++ {
		prev, cur := all[i-1], all[i]
		if prev.FromSchema > cur.FromSchema ||
			(prev.FromSchema == cur.FromSchema && prev.ToSchema > cur.ToSchema) {
			t.Errorf("AllMappings not ordered at %d: %s->%s after %s->%s",
				i, cur.FromSchema, cur.ToSchema, prev.FromSchema, prev.ToSchema)
		}
	}
	between := store.MappingsBetween("D", "C")
	if len(between) != 1 {
		t.Fatalf("MappingsBetween(D,C): %d mappings", len(between))
	}
	if between[0].FromSchema != "D" {
		t.Errorf("MappingsBetween not normalized: from %s", between[0].FromSchema)
	}
}

// TestShardedCompact compacts after churn and expects live state intact
// with smaller logs.
func TestShardedCompact(t *testing.T) {
	s := openSharded(t, filepath.Join(t.TempDir(), "sharded"), 2)
	defer s.Close()
	cands := workload.Candidates(4)
	for round := 0; round < 3; round++ { // superseded records bloat the logs
		for _, c := range cands {
			if err := s.PutSchema(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.DeleteSchema(cands[3].Name); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().LogBytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.LogBytes >= before {
		t.Errorf("compact did not shrink logs: %d -> %d bytes", before, after.LogBytes)
	}
	if after.Schemas != 3 {
		t.Errorf("schemas after compact = %d, want 3", after.Schemas)
	}
}

// TestShardedInvalidCounts rejects non-positive shard counts.
func TestShardedInvalidCounts(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := OpenSharded(filepath.Join(t.TempDir(), "x"), n); err == nil {
			t.Errorf("OpenSharded(%d) succeeded", n)
		}
	}
}

// TestShardedConcurrentChurn hammers the store from concurrent writers
// and readers; run under -race this pins the per-shard locking.
func TestShardedConcurrentChurn(t *testing.T) {
	s := openSharded(t, filepath.Join(t.TempDir(), "sharded"), 4)
	defer s.Close()
	cands := workload.Candidates(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := cands[(w*20+i)%len(cands)]
				if err := s.PutSchema(c); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				for _, sc := range s.Schemas() {
					if sc.Name == "" {
						t.Error("empty schema name")
						return
					}
				}
				s.SchemaNames()
				s.Stats()
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().Schemas; got != len(cands) {
		t.Errorf("schemas after churn = %d, want %d", got, len(cands))
	}
}

// TestShardedSingleShardEquivalence: a 1-shard store behaves like one
// Repo, and OpenSingle serves an existing single-log file as such a
// store, that log its only shard.
func TestShardedSingleShardEquivalence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.repo")
	single, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sharded := openSharded(t, filepath.Join(dir, "sharded"), 1)
	defer sharded.Close()

	for _, c := range workload.Candidates(5) {
		if err := single.PutSchema(c); err != nil {
			t.Fatal(err)
		}
		if err := sharded.PutSchema(c); err != nil {
			t.Fatal(err)
		}
	}
	want := single.Stats()
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := OpenSingle(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if file.NumShards() != 1 || file.Shard(0).Path() != path {
		t.Fatalf("OpenSingle: %d shards, shard 0 at %s; want 1 at %s", file.NumShards(), file.Shard(0).Path(), path)
	}
	if got := file.Stats(); got != want {
		t.Errorf("Stats after OpenSingle = %+v, want %+v", got, want)
	}
	a, b := file.SchemaNames(), sharded.SchemaNames()
	if len(a) != len(b) {
		t.Fatalf("name counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("name %d: %q vs %q", i, a[i], b[i])
		}
	}
}
