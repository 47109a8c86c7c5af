// Package analysis implements the shared per-schema analysis layer of
// the match engine: everything about one schema that every matcher
// used to re-derive per pair of schemas is computed exactly once per
// schema and shared by all consumers (the hybrid matchers, the
// instance and flooding matchers, the reuse matchers, and the
// evaluation harness).
//
// COMA's match operation (Do & Rahm, VLDB 2002, Section 3) executes k
// independent matchers over the same pair of schemas, and the reuse
// scenario of Section 5 matches the same repository schema against
// many incoming schemas. Both workloads repeat the same per-schema
// work — path enumeration, name tokenization and expansion, n-gram
// and Soundex extraction, dictionary and taxonomy lookups, data type
// classification — once per matcher execution. A SchemaIndex hoists
// all of it into a single analysis pass, in the "pre-analyze once,
// combine flexibly" discipline of rewriting-based query answering
// systems that amortize schema reasoning across queries.
//
// # Lifecycle
//
// A SchemaIndex is built once per (schema, sources) pair — by
// NewIndex directly, or through an Analyzer that caches one index per
// schema — and is immutable afterwards: it may be shared freely
// between goroutines and across repeated Match calls. The index
// captures the schema's path enumeration and the auxiliary sources
// (dictionary, taxonomy, type table) at build time, together with the
// sources' mutation versions; structurally modifying the schema
// (followed by schema.Invalidate), swapping a source instance, or
// mutating a source in place (a new synonym, a remapped type name)
// all make Valid report false, and Analyzer.Index transparently
// rebuilds. Hand-held indexes must be rebuilt by their owner. None of
// this may happen while a match is running.
//
// Every precomputed artifact mirrors a direct computation bit for
// bit: profile-based n-gram/Soundex/edit similarities equal their
// string counterparts, dictionary hit-set intersections equal
// dict.Dictionary.Lookup, taxonomy chain intersections equal
// dict.Taxonomy.Sim, and generic type classes equal
// dict.TypeTable.Generic. Matchers therefore produce bit-identical
// matrices with and without an index; only the time to produce them
// changes.
package analysis

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/strutil"
)

// profiledGramNs are the n-gram widths precomputed for every name
// profile in an index: the widths of the library's Digram and Trigram
// matchers. Matchers needing other widths build their own profiles.
var profiledGramNs = []int{2, 3}

// ProfiledGramNs reports whether every width in ns is precomputed by
// the index's name profiles.
func ProfiledGramNs(ns []int) bool {
	for _, n := range ns {
		if n != 2 && n != 3 {
			return false
		}
	}
	return true
}

// Sources identifies the auxiliary information sources an index is
// built against. The struct is comparable: two Sources are the same
// iff they reference the same dictionary, type table and taxonomy
// instances, which is how caches decide whether an index is still
// valid for a context. Nil fields disable the respective source.
type Sources struct {
	Dict     *dict.Dictionary
	Types    *dict.TypeTable
	Taxonomy *dict.Taxonomy
}

// defaultTypes classifies declared types when Sources.Types is nil,
// matching the match package's fallback table (the instances differ,
// the classifications do not).
var defaultTypes = dict.DefaultTypeTable()

func (src Sources) types() *dict.TypeTable {
	if src.Types == nil {
		return defaultTypes
	}
	return src.Types
}

func (src Sources) expand(tok string) []string {
	if src.Dict == nil {
		return nil
	}
	return src.Dict.Expand(tok)
}

// SchemaIndex is the analysis of one schema: dense path and element
// enumerations plus every per-element artifact the matchers consume.
// Build with NewIndex or Analyzer.Index; immutable afterwards (all
// exported slices are shared — do not modify).
type SchemaIndex struct {
	// Schema is the analyzed schema.
	Schema *schema.Schema
	// Src records the auxiliary sources the index was built against.
	Src Sources

	// Paths is the schema's path enumeration (Schema.Paths order,
	// preorder); every other per-path slice is parallel to it.
	Paths []schema.Path
	// Keys holds the dotted string form of every path: the matrix keys
	// of all matchers.
	Keys []string
	// Parent maps each path to the index of its parent path, or -1 for
	// top-level paths.
	Parent []int
	// Children maps each path to the indices of its containment child
	// paths, in declaration order.
	Children [][]int
	// IsLeaf marks paths whose terminal node has no children.
	IsLeaf []bool
	// Leaves enumerates the leaf paths densely: Leaves[d] is the path
	// index of the d-th leaf in preorder.
	Leaves []int
	// LeafLo/LeafHi bound each path's leaf set: the leaves reachable
	// from path i are exactly Leaves[LeafLo[i]:LeafHi[i]], in the
	// DFS order of Path.LeafPaths. (Preorder makes every subtree's
	// leaf set a contiguous run of dense leaf ids.)
	LeafLo []int
	LeafHi []int
	// Generic classifies each path's declared type against the
	// sources' type table.
	Generic []dict.GenericType

	// NameID maps each path to its dense distinct-element-name id;
	// Names[NameID[i]] is the analyzed profile of Paths[i].Name().
	// Matchers fill one distinct-name similarity grid and project it
	// onto the path matrix instead of re-scoring duplicate names.
	NameID []int
	// Names holds one annotated NameProfile per distinct element name,
	// in order of first appearance.
	Names []*strutil.NameProfile
	// RawNames holds one TokenProfile of the raw (untokenized) element
	// name per distinct name, parallel to Names; the flooding
	// matcher's trigram initialization consumes it.
	RawNames []*strutil.TokenProfile
	// LongNameID / LongNames are the hierarchical-name counterparts of
	// NameID / Names: profiles of the dot-joined path names consumed
	// by the NamePath matcher.
	LongNameID []int
	LongNames  []*strutil.NameProfile

	keyIdx map[string]int
	// Source mutation counters captured at build time; Valid compares
	// them so in-place mutation of a dictionary/taxonomy/type table
	// (new synonyms, remapped type names) invalidates the index even
	// though the pointers still match.
	dictVersion, taxVersion, typesVersion int64
	// schemaVersion is the schema's mutation counter at build time;
	// Valid compares it against Schema.Version so a structural edit
	// followed by Schema.Invalidate is caught without re-enumerating
	// paths (and even when the edit leaves the path count intact).
	schemaVersion int64
}

// NewIndex analyzes a schema against the given sources. The schema's
// path enumeration is captured as-is; see the package comment for the
// lifecycle contract.
func NewIndex(s *schema.Schema, src Sources) *SchemaIndex {
	return buildIndex(s, src, nil, nil)
}

// NewIndexReusing analyzes s like NewIndex but reuses the name
// analysis of prev for element names it already profiled, provided
// prev was built against the same sources in the same state (same
// instances, same mutation versions). Structural arrays are always
// rebuilt from the schema's current enumeration, so after a small
// edit only the names the edit introduced are re-profiled — the
// incremental path Analyzer.Index takes when rebuilding a stale
// index. Profiles are immutable, so sharing them between the old and
// new index is safe.
func NewIndexReusing(s *schema.Schema, src Sources, prev *SchemaIndex) *SchemaIndex {
	if prev == nil || prev.Src != src ||
		prev.dictVersion != src.Dict.Version() ||
		prev.taxVersion != src.Taxonomy.Version() ||
		prev.typesVersion != src.Types.Version() {
		return NewIndex(s, src)
	}
	names := make(map[string]int, len(prev.Names))
	for i, np := range prev.Names {
		names[np.Name] = i
	}
	longs := make(map[string]int, len(prev.LongNames))
	for i, np := range prev.LongNames {
		longs[np.Name] = i
	}
	return buildIndex(s, src,
		func(name string) (*strutil.NameProfile, *strutil.TokenProfile) {
			if i, ok := names[name]; ok {
				return prev.Names[i], prev.RawNames[i]
			}
			return nil, nil
		},
		func(long string) *strutil.NameProfile {
			if i, ok := longs[long]; ok {
				return prev.LongNames[i]
			}
			return nil
		})
}

// buildIndex is the shared index construction: structural arrays are
// always derived from the schema, while distinct-name profiles come
// from lookupName/lookupLong when they yield one (profile reuse,
// warm-restart restore) and are computed fresh otherwise. nil lookups
// compute everything.
func buildIndex(s *schema.Schema, src Sources,
	lookupName func(string) (*strutil.NameProfile, *strutil.TokenProfile),
	lookupLong func(string) *strutil.NameProfile) *SchemaIndex {
	// Capture the mutation version BEFORE enumerating: an Invalidate
	// landing between the two leaves the index stamped with the older
	// version, so Valid errs toward a rebuild instead of accepting a
	// half-mutated snapshot forever.
	schemaVersion := s.Version()
	paths := s.Paths()
	n := len(paths)
	x := &SchemaIndex{
		Schema:     s,
		Src:        src,
		Paths:      paths,
		Keys:       make([]string, n),
		Parent:     make([]int, n),
		Children:   make([][]int, n),
		IsLeaf:     make([]bool, n),
		LeafLo:     make([]int, n+1),
		LeafHi:     make([]int, n),
		Generic:    make([]dict.GenericType, n),
		NameID:     make([]int, n),
		LongNameID: make([]int, n),
		keyIdx:     make(map[string]int, n),
	}

	types := src.types()
	x.schemaVersion = schemaVersion
	x.dictVersion = src.Dict.Version()
	x.taxVersion = src.Taxonomy.Version()
	x.typesVersion = src.Types.Version()
	var dictIdx *dict.Index
	if src.Dict != nil {
		// Analyze caches its snapshot per dictionary version, so
		// indexing many schemas against one dictionary interns it once.
		dictIdx = src.Dict.Analyze()
	}
	var taxIdx *dict.TaxIndex
	if src.Taxonomy != nil {
		taxIdx = src.Taxonomy.Analyze()
	}
	annotate := func(tp *strutil.TokenProfile) {
		if dictIdx != nil {
			tp.DictSrc = src.Dict
			tp.DictID = dictIdx.TermID(tp.Token)
			tp.DictRel = dictIdx.Relations(tp.DictID)
		}
		if taxIdx != nil {
			tp.TaxSrc = src.Taxonomy
			tp.TaxChain = taxIdx.Chain(tp.Token)
		}
	}

	nameIDs := make(map[string]int)
	longIDs := make(map[string]int)
	// stack[d] is the path index of the current ancestor at depth d+1.
	var stack []int
	for i, p := range paths {
		key := p.String()
		x.Keys[i] = key
		x.keyIdx[key] = i
		leaf := p.Leaf()
		x.IsLeaf[i] = leaf.IsLeaf()
		x.Generic[i] = types.Generic(leaf.TypeName)

		d := p.Len()
		x.Parent[i] = -1
		if d >= 2 {
			x.Parent[i] = stack[d-2]
			x.Children[stack[d-2]] = append(x.Children[stack[d-2]], i)
		}
		if d > len(stack) {
			stack = append(stack, i)
		} else {
			stack[d-1] = i
		}

		x.LeafLo[i] = len(x.Leaves)
		if x.IsLeaf[i] {
			x.Leaves = append(x.Leaves, i)
		}

		name := leaf.Name
		id, ok := nameIDs[name]
		if !ok {
			id = len(x.Names)
			nameIDs[name] = id
			var np *strutil.NameProfile
			var rp *strutil.TokenProfile
			if lookupName != nil {
				np, rp = lookupName(name)
			}
			if np == nil {
				np = strutil.NewNameProfile(name, src.expand, profiledGramNs...)
				np.Annotate(annotate)
			}
			if rp == nil {
				rp = strutil.NewTokenProfile(name, profiledGramNs...)
			}
			x.Names = append(x.Names, np)
			x.RawNames = append(x.RawNames, rp)
		}
		x.NameID[i] = id

		long := strings.Join(p.Names(), ".")
		lid, ok := longIDs[long]
		if !ok {
			lid = len(x.LongNames)
			longIDs[long] = lid
			var lp *strutil.NameProfile
			if lookupLong != nil {
				lp = lookupLong(long)
			}
			if lp == nil {
				lp = strutil.NewNameProfile(long, src.expand, profiledGramNs...)
				lp.Annotate(annotate)
			}
			x.LongNames = append(x.LongNames, lp)
		}
		x.LongNameID[i] = lid
	}
	x.LeafLo[n] = len(x.Leaves)

	// LeafHi[i] = LeafLo[end of i's subtree]. Preorder: the subtree of
	// path i is the contiguous run of paths deeper than i that follows
	// it; scanning backwards, a stack of open subtrees resolves every
	// end index in one pass. Equivalently: walk forward and close all
	// subtrees deeper-or-equal whenever depth drops.
	var open []int // path indices whose subtree is still open
	for i, p := range paths {
		d := p.Len()
		for len(open) >= d {
			j := open[len(open)-1]
			open = open[:len(open)-1]
			x.LeafHi[j] = x.LeafLo[i]
		}
		open = append(open, i)
	}
	for _, j := range open {
		x.LeafHi[j] = len(x.Leaves)
	}
	return x
}

// PathIndex returns the index of the path with the given dotted form,
// or -1. With duplicate dotted forms (distinct nodes whose chains
// render identically) the last occurrence wins, exactly like the
// overwrite semantics of simcube.Matrix's lazily built key maps.
func (x *SchemaIndex) PathIndex(key string) int {
	if i, ok := x.keyIdx[key]; ok {
		return i
	}
	return -1
}

// NameProfile returns the analyzed element name of path i.
func (x *SchemaIndex) NameProfile(i int) *strutil.NameProfile {
	return x.Names[x.NameID[i]]
}

// LongNameProfile returns the analyzed hierarchical name of path i.
func (x *SchemaIndex) LongNameProfile(i int) *strutil.NameProfile {
	return x.LongNames[x.LongNameID[i]]
}

// LeafSet returns the dense leaf ids reachable from path i as the
// half-open range [lo, hi) into Leaves, in Path.LeafPaths DFS order.
func (x *SchemaIndex) LeafSet(i int) (lo, hi int) {
	return x.LeafLo[i], x.LeafHi[i]
}

// Valid reports whether the index still describes the schema's
// current structure (same mutation version — every structural edit
// bumps it through Schema.Invalidate) and was built against the given
// sources in their current state (same instances, same mutation
// versions). The version comparisons are side-effect free: a stale
// index is detected without re-enumerating the schema's paths.
func (x *SchemaIndex) Valid(s *schema.Schema, src Sources) bool {
	if x == nil || x.Schema != s || x.Src != src {
		return false
	}
	if x.schemaVersion != s.Version() {
		return false
	}
	return x.dictVersion == src.Dict.Version() &&
		x.taxVersion == src.Taxonomy.Version() &&
		x.typesVersion == src.Types.Version()
}

// Analyzer caches one SchemaIndex per schema so that the analysis
// cost is paid once per schema rather than once per match: across the
// k matchers of one operation, across repeated Match calls on the
// same schema (the repository/reuse scenario), and across the
// evaluation harness's whole series grid. It is safe for concurrent
// use; the zero value is not usable, construct with NewAnalyzer or
// NewAnalyzerWithLimit.
//
// # Entry lifetime
//
// By default every analyzed schema stays cached until Invalidate — the
// right policy for a fixed working set (a repository's stored schemas,
// an evaluation grid), and a leak for request-scoped schemas: a server
// matching inline uploads would retain one entry per request forever.
// Two mechanisms bound the cache:
//
//   - Pin/Release mark long-lived instances (stored schemas). Evict —
//     called by the batch scheduler for the incoming schema at batch
//     end — drops an entry unless it is pinned, so request-scoped
//     indexes die with their batch while stored ones stay warm.
//   - NewAnalyzerWithLimit adds a capacity backstop: when the number of
//     unpinned cached indexes exceeds the limit, the least recently
//     used unpinned entries are evicted. Pinned entries are exempt and
//     do not count toward the limit.
type Analyzer struct {
	mu      sync.Mutex
	entries map[*schema.Schema]*analyzerEntry
	// limit bounds the number of unpinned cached indexes (0 = no
	// bound); pinned entries are exempt.
	limit int
	// seq is the LRU clock: every Index access stamps the entry. It
	// doubles as the tombstone/batch-window clock — one monotonic
	// counter orders accesses, batch starts and deletions alike.
	seq int64
	// active holds the start stamps of the batch windows currently
	// open (BeginBatch); dead holds tombstones: schemas deleted while
	// a window was open, stamped with the deletion time. While a
	// schema is tombstoned, Index serves throwaway indexes instead of
	// caching, so an in-flight batch that captured the schema before
	// its DELETE cannot resurrect the entry by publishing after it.
	// Tombstones are reclaimed at window close: once every window
	// that predates a deletion has ended, no in-flight build can
	// still hold the schema and the tombstone is dropped.
	active map[int64]struct{}
	dead   map[*schema.Schema]int64

	// Lifecycle counters, cumulative since construction. Atomic (not
	// guarded by mu) so Stats can be read from exposition paths without
	// contending with builds; see AnalyzerStats for meanings.
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	tombstones    atomic.Uint64
	pins          atomic.Uint64
}

// AnalyzerStats is a point-in-time snapshot of the cache's cumulative
// lifecycle counters plus its current occupancy. Counters are
// monotonic; Entries/Pinned are instantaneous.
type AnalyzerStats struct {
	// Hits counts Index calls served from a cached, still-valid index.
	Hits uint64
	// Misses counts index builds: first use, stale rebuilds, and
	// throwaway builds for tombstoned schemas.
	Misses uint64
	// Evictions counts entries dropped by Evict or the LRU capacity
	// backstop.
	Evictions uint64
	// Invalidations counts entries whose index was dropped by
	// Invalidate (wholesale Invalidate(nil) counts each entry).
	Invalidations uint64
	// Tombstones counts deletions that laid a tombstone because a batch
	// window was open (the delete/batch race being defused).
	Tombstones uint64
	// Pins counts Pin calls.
	Pins uint64
	// Entries is the number of currently cached built indexes (as Len).
	Entries int
	// Pinned is the number of currently pinned schemas.
	Pinned int
}

// Stats returns the cache's cumulative counters and current occupancy.
func (a *Analyzer) Stats() AnalyzerStats {
	st := AnalyzerStats{
		Hits:          a.hits.Load(),
		Misses:        a.misses.Load(),
		Evictions:     a.evictions.Load(),
		Invalidations: a.invalidations.Load(),
		Tombstones:    a.tombstones.Load(),
		Pins:          a.pins.Load(),
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.entries {
		if e.idx.Load() != nil {
			st.Entries++
		}
		if e.pinned {
			st.Pinned++
		}
	}
	return st
}

// analyzerEntry serializes builds per schema: concurrent Index calls
// on different schemas analyze in parallel, while calls on the same
// schema block on one build (which also guards the schema's lazy path
// enumeration against concurrent first use). The index pointer is
// atomic so map-level operations (eviction scans, Len) read it without
// taking the build lock.
type analyzerEntry struct {
	mu  sync.Mutex
	idx atomic.Pointer[SchemaIndex]
	// pinned and lastUse are guarded by Analyzer.mu.
	pinned  bool
	lastUse int64
}

// NewAnalyzer returns an empty, unbounded analysis cache.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		entries: make(map[*schema.Schema]*analyzerEntry),
		active:  make(map[int64]struct{}),
		dead:    make(map[*schema.Schema]int64),
	}
}

// NewAnalyzerWithLimit returns an analysis cache that retains at most
// limit unpinned indexes, evicting least-recently-used ones beyond
// that; limit <= 0 means unbounded. Pinned entries are exempt from the
// bound. The limit is a backstop for transient schemas that escape the
// batch scheduler's end-of-batch eviction; size it at a multiple of
// the expected concurrent transient set, not the stored working set.
func NewAnalyzerWithLimit(limit int) *Analyzer {
	if limit < 0 {
		limit = 0
	}
	return &Analyzer{
		entries: make(map[*schema.Schema]*analyzerEntry),
		limit:   limit,
		active:  make(map[int64]struct{}),
		dead:    make(map[*schema.Schema]int64),
	}
}

// BeginBatch opens a batch window and returns its closer (idempotent).
// While any window is open, Evict and single-schema Invalidate
// tombstone their target instead of merely dropping it: an in-flight
// match that captured the schema before the deletion gets throwaway
// indexes from then on and cannot re-publish the analysis into the
// cache. Every match operation that may run concurrently with schema
// deletion must bracket itself with BeginBatch/close; the batch
// schedulers do so via match.Context.BeginAnalysis.
func (a *Analyzer) BeginBatch() func() {
	a.mu.Lock()
	a.seq++
	id := a.seq
	a.active[id] = struct{}{}
	a.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			delete(a.active, id)
			a.pruneDeadLocked()
		})
	}
}

// killLocked tombstones a schema under a.mu when any batch window is
// open; with no window open no in-flight build can exist and a plain
// drop suffices.
func (a *Analyzer) killLocked(s *schema.Schema) {
	if len(a.active) == 0 {
		return
	}
	a.seq++
	a.dead[s] = a.seq
	a.tombstones.Add(1)
}

// pruneDeadLocked reclaims tombstones under a.mu: with no window open
// all of them, otherwise those older than every open window (no
// remaining window can predate the deletion, so no in-flight build can
// still hold the schema).
func (a *Analyzer) pruneDeadLocked() {
	if len(a.dead) == 0 {
		return
	}
	if len(a.active) == 0 {
		clear(a.dead)
		return
	}
	oldest := int64(0)
	for id := range a.active {
		if oldest == 0 || id < oldest {
			oldest = id
		}
	}
	for s, killed := range a.dead {
		if killed < oldest {
			delete(a.dead, s)
		}
	}
}

// Index returns the cached index for the schema, building it on first
// use. A cached index that went stale — the schema was structurally
// modified (and Invalidate'd), or the sources differ or were mutated —
// is rebuilt transparently.
func (a *Analyzer) Index(s *schema.Schema, src Sources) *SchemaIndex {
	a.mu.Lock()
	if _, killed := a.dead[s]; killed {
		// The schema was deleted while a batch still in flight may
		// reference it: serve a throwaway index so that match completes
		// correctly without the cache resurrecting the deleted entry.
		a.mu.Unlock()
		a.misses.Add(1)
		return NewIndex(s, src)
	}
	e := a.entries[s]
	if e == nil {
		e = &analyzerEntry{}
		a.entries[s] = e
	}
	a.seq++
	e.lastUse = a.seq
	a.mu.Unlock()
	e.mu.Lock()
	idx := e.idx.Load()
	rebuilt := false
	// The build runs under a deferred unlock so a panicking NewIndex
	// (pathological schema) cannot strand the per-schema build lock —
	// a permanently held e.mu would deadlock every later Index call on
	// this schema.
	func() {
		defer e.mu.Unlock()
		if !idx.Valid(s, src) {
			// A stale index still holds valid name profiles when only the
			// schema changed; rebuild incrementally off it.
			idx = NewIndexReusing(s, src, idx)
			e.idx.Store(idx)
			rebuilt = true
		}
	}()
	if rebuilt {
		a.misses.Add(1)
		a.enforceLimit()
	} else {
		a.hits.Add(1)
	}
	return idx
}

// Seed installs a pre-built index for its schema without counting
// cache traffic — the warm-restart path, which restores analyses from
// a persisted artifact instead of rebuilding them. An index that is
// not valid for (s, its own sources) is ignored. Seeding re-adopts a
// tombstoned schema, like Pin.
func (a *Analyzer) Seed(s *schema.Schema, idx *SchemaIndex) {
	if s == nil || idx == nil || !idx.Valid(s, idx.Src) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.dead, s)
	e := a.entries[s]
	if e == nil {
		e = &analyzerEntry{}
		a.entries[s] = e
	}
	a.seq++
	e.lastUse = a.seq
	e.idx.Store(idx)
}

// Peek returns the cached index for s when one is present and still
// valid, without building, blocking on a build, or counting cache
// traffic — the checkpoint export path, which persists exactly the
// analyses that are warm.
func (a *Analyzer) Peek(s *schema.Schema) *SchemaIndex {
	a.mu.Lock()
	e := a.entries[s]
	a.mu.Unlock()
	if e == nil {
		return nil
	}
	idx := e.idx.Load()
	if idx == nil || !idx.Valid(s, idx.Src) {
		return nil
	}
	return idx
}

// enforceLimit evicts least-recently-used unpinned indexes while more
// than limit are cached.
func (a *Analyzer) enforceLimit() {
	if a.limit <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		over := -a.limit
		var victim *schema.Schema
		var victimUse int64
		for s, e := range a.entries {
			if e.pinned || e.idx.Load() == nil {
				continue
			}
			over++
			if victim == nil || e.lastUse < victimUse {
				victim, victimUse = s, e.lastUse
			}
		}
		if over <= 0 || victim == nil {
			return
		}
		delete(a.entries, victim)
		a.evictions.Add(1)
	}
}

// Pin marks a schema as long-lived: its cached index survives Evict
// and the capacity bound until Release. Pinning is idempotent — a
// schema is pinned or not, and one Release unpins it regardless of
// how many Pins preceded (so re-mounting a server handler or calling
// Analyze repeatedly can never strand a deleted schema's entry behind
// leftover pins). Pin does not build the index — pair with Index (or
// the engine's Analyze) to front-load analysis.
func (a *Analyzer) Pin(s *schema.Schema) {
	if s == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Pinning re-adopts: a schema re-imported (or re-pinned) after a
	// tombstoning delete is long-lived again and must cache normally.
	delete(a.dead, s)
	e := a.entries[s]
	if e == nil {
		e = &analyzerEntry{}
		a.entries[s] = e
	}
	e.pinned = true
	a.pins.Add(1)
}

// Release unpins a schema. The index (if any) stays cached but
// becomes evictable again; a never-analyzed entry is dropped
// entirely.
func (a *Analyzer) Release(s *schema.Schema) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entries[s]
	if e == nil {
		return
	}
	e.pinned = false
	if e.idx.Load() == nil {
		delete(a.entries, s)
	}
}

// Pinned reports whether the schema is currently pinned.
func (a *Analyzer) Pinned(s *schema.Schema) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entries[s]
	return e != nil && e.pinned
}

// Evict drops the cached index of a transient schema; pinned schemas
// are left untouched. It reports whether an entry was dropped. The
// batch schedulers call it for the incoming schema at batch end, so a
// served inline schema's analysis dies with its request instead of
// accumulating in the engine's cache. While a batch window
// is open (BeginBatch), the schema is additionally tombstoned — even
// when no entry exists yet — so a concurrent batch's build publishing
// after the eviction is dropped instead of resurrecting the entry.
func (a *Analyzer) Evict(s *schema.Schema) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entries[s]
	if e != nil && e.pinned {
		return false
	}
	a.killLocked(s)
	if e == nil {
		return false
	}
	delete(a.entries, s)
	a.evictions.Add(1)
	return true
}

// Invalidate drops the cached index of a schema (or all schemas when
// s is nil); call it after structurally modifying a schema that may
// be matched again. Pins survive: a pinned schema's entry stays (and
// stays exempt from eviction), only its stale index is dropped.
//
// Invalidating an unpinned schema while a batch window is open
// additionally tombstones it (see BeginBatch) — the delete path
// (Release then Invalidate) relies on this so an in-flight match
// holding the deleted instance cannot re-publish its analysis. The
// wholesale Invalidate(nil) never tombstones: it flushes for
// consistency, and still-stored schemas must re-cache on next use.
func (a *Analyzer) Invalidate(s *schema.Schema) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s == nil {
		for k, e := range a.entries {
			a.dropLocked(k, e)
		}
		return
	}
	e := a.entries[s]
	if e == nil || !e.pinned {
		a.killLocked(s)
	}
	if e != nil {
		a.dropLocked(s, e)
	}
}

// dropLocked removes one entry's index under a.mu: unpinned entries
// are deleted; pinned ones are replaced by a fresh index-less entry
// carrying the pin (replaced rather than mutated, so a build racing
// on the old entry publishes into an orphan instead of resurrecting a
// dropped index).
func (a *Analyzer) dropLocked(s *schema.Schema, e *analyzerEntry) {
	a.invalidations.Add(1)
	if e.pinned {
		a.entries[s] = &analyzerEntry{pinned: true, lastUse: e.lastUse}
		return
	}
	delete(a.entries, s)
}

// Len returns the number of cached indexes (entries that currently
// hold a built index; bare pins do not count). Serving tests assert
// with it that inline-schema analyses do not accumulate.
func (a *Analyzer) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, e := range a.entries {
		if e.idx.Load() != nil {
			n++
		}
	}
	return n
}
