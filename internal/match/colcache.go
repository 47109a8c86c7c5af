package match

import (
	"sync"

	"repro/internal/analysis"
	"repro/internal/combine"
	"repro/internal/schema"
)

// DefaultColumnCacheIncoming is the default bound on the number of
// distinct incoming-schema indexes a ColumnCache retains columns for.
const DefaultColumnCacheIncoming = 8

// maxPersistentColumnBytes bounds one incoming entry's column
// storage: when the candidate name population churns without end
// (stored schemas replaced at request rate), the entry flushes and
// rebuilds instead of growing one column per name ever seen. The
// bound is in bytes — a wide incoming schema holds proportionally
// fewer columns — so eight retained entries cost at most ~64 MiB.
// persistentColumnLimit converts it to a column-count limit for one
// incoming index, keeping at least a useful floor for very wide
// schemas (a stable store's distinct-name count stays far below any
// of this, so it never flushes).
const maxPersistentColumnBytes = 8 << 20

func persistentColumnLimit(idx *analysis.SchemaIndex) int {
	width := max(len(idx.Names), len(idx.LongNames), 1)
	return max(maxPersistentColumnBytes/(8*width), 64)
}

// ColumnCache is the engine-scoped form of BatchCache: one column
// cache per incoming-schema index, persistent across batches
// and repeated single Matches on the same engine. A cached column —
// the similarity of one candidate name against every distinct
// incoming name — is a pure function of (matcher configuration,
// incoming index, candidate name, auxiliary sources); the incoming
// index freezes the incoming names and the sources' versions, so
// keying per index makes reuse across batches exactly as sound as the
// per-batch cache's reuse across pairs. Repeated matching against a
// stable store therefore stops re-scoring distinct-name columns per
// batch: the second MatchIncoming with the same (retained) incoming
// schema finds every column warm.
//
// Lifecycle: entries self-invalidate — an entry whose index no longer
// describes its schema (structural edit + Invalidate) or whose sources
// were mutated (dictionary/taxonomy/type-table version bump) is
// dropped on the next access. Invalidate drops entries eagerly (the
// engine forwards its own Invalidate calls, which the server's
// PUT/DELETE handlers in turn drive), at most limit incoming indexes
// are retained (least recently used first out), and each entry's
// column storage is byte-capped (maxPersistentColumnBytes, epoch
// flush) so endless candidate-name churn cannot grow an entry without
// bound. Safe for concurrent use.
type ColumnCache struct {
	mu      sync.Mutex
	limit   int
	seq     int64
	entries map[*analysis.SchemaIndex]*colEntry
	// stats is shared by every BatchCache this cache hands out, so
	// hits/misses aggregate across incoming indexes. Entry drops (stale
	// prune, LRU eviction, Invalidate) count as flushes alongside the
	// per-entry epoch flushes.
	stats colCacheCounters
}

// ColumnCacheStats is a point-in-time snapshot of the persistent
// column cache's cumulative traffic and current occupancy.
type ColumnCacheStats struct {
	// Hits counts columns served from cache across all retained
	// incoming indexes.
	Hits uint64
	// Misses counts columns computed (first use or after a flush).
	Misses uint64
	// Flushes counts column-discarding events: per-entry epoch flushes,
	// stale-index prunes, LRU evictions, and Invalidate drops.
	Flushes uint64
	// Entries is the number of incoming indexes currently holding
	// columns (as Len).
	Entries int
}

// Stats returns the cache's cumulative counters and current occupancy.
func (cc *ColumnCache) Stats() ColumnCacheStats {
	cc.mu.Lock()
	n := len(cc.entries)
	cc.mu.Unlock()
	return ColumnCacheStats{
		Hits:    cc.stats.hits.Load(),
		Misses:  cc.stats.misses.Load(),
		Flushes: cc.stats.flushes.Load(),
		Entries: n,
	}
}

type colEntry struct {
	bc      *BatchCache
	lastUse int64
}

// NewColumnCache returns an empty engine-scoped column cache retaining
// columns for at most limit distinct incoming indexes (<= 0 selects
// DefaultColumnCacheIncoming).
func NewColumnCache(limit int) *ColumnCache {
	if limit <= 0 {
		limit = DefaultColumnCacheIncoming
	}
	return &ColumnCache{limit: limit, entries: make(map[*analysis.SchemaIndex]*colEntry)}
}

// ForIncoming returns the column cache bound to one incoming index,
// creating it on first use. Stale entries (index no longer valid for
// its schema and sources) are pruned on every call, and the least
// recently used entries are evicted beyond the cache's limit.
func (cc *ColumnCache) ForIncoming(idx *analysis.SchemaIndex) *BatchCache {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for k := range cc.entries {
		if !k.Valid(k.Schema, k.Src) {
			delete(cc.entries, k)
			cc.stats.flush()
		}
	}
	e := cc.entries[idx]
	if e == nil {
		e = &colEntry{bc: &BatchCache{
			cols:  make(map[batchKey][]float64),
			limit: persistentColumnLimit(idx),
			stats: &cc.stats,
		}}
		cc.entries[idx] = e
		for len(cc.entries) > cc.limit {
			var victim *analysis.SchemaIndex
			var victimUse int64
			for k, v := range cc.entries {
				if k == idx {
					continue
				}
				if victim == nil || v.lastUse < victimUse {
					victim, victimUse = k, v.lastUse
				}
			}
			if victim == nil {
				break
			}
			delete(cc.entries, victim)
			cc.stats.flush()
		}
	}
	cc.seq++
	e.lastUse = cc.seq
	return e.bc
}

// ColumnArtifact is one persistable cached column: the similarity of
// one candidate name against every distinct incoming name, scored by
// a configuration-identified (library-built) matcher. OwnerKey and
// Comb reconstruct the matcher's cache identity in a new process —
// instance-owned columns have no cross-process identity and are never
// exported.
type ColumnArtifact struct {
	// OwnerKey is the library matcher's shared builder key.
	OwnerKey string
	// Comb is the matcher's set-combination knob, part of its identity.
	Comb combine.CombSim
	// Set discriminates the incoming row set the column spans.
	Set int8
	// Name is the candidate-side name the column scores.
	Name string
	// Col holds one similarity per incoming distinct name (Set order).
	Col []float64
}

// Export snapshots the persistable columns cached for one incoming
// index: those owned by configuration-identified matchers, whose
// identity survives a process restart. Returns nil when the index
// holds no cached columns.
func (cc *ColumnCache) Export(idx *analysis.SchemaIndex) []ColumnArtifact {
	cc.mu.Lock()
	e := cc.entries[idx]
	cc.mu.Unlock()
	if e == nil {
		return nil
	}
	e.bc.mu.RLock()
	defer e.bc.mu.RUnlock()
	out := make([]ColumnArtifact, 0, len(e.bc.cols))
	for k, col := range e.bc.cols {
		so, ok := k.owner.(sharedOwner)
		if !ok {
			continue
		}
		out = append(out, ColumnArtifact{
			OwnerKey: so.key, Comb: so.comb, Set: k.set, Name: k.name, Col: col,
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Seed installs previously exported columns for one incoming index —
// the warm-restart path — and returns how many it installed. The
// caller vouches that the artifacts were exported for an identical
// index against sources with equal content; existing columns are
// never overwritten, and the entry's byte bound applies.
func (cc *ColumnCache) Seed(idx *analysis.SchemaIndex, arts []ColumnArtifact) int {
	if idx == nil || len(arts) == 0 {
		return 0
	}
	bc := cc.ForIncoming(idx)
	bc.mu.Lock()
	defer bc.mu.Unlock()
	installed := 0
	for _, a := range arts {
		if len(a.Col) == 0 {
			continue
		}
		if bc.limit > 0 && len(bc.cols) >= bc.limit {
			break
		}
		key := batchKey{owner: sharedOwner{key: a.OwnerKey, comb: a.Comb}, set: a.Set, name: a.Name}
		if _, ok := bc.cols[key]; !ok {
			bc.cols[key] = a.Col
			installed++
		}
	}
	return installed
}

// Invalidate drops every entry whose incoming schema is s (all entries
// when s is nil). The engine forwards its Invalidate here so columns
// scored against a schema's old structure never survive the schema.
func (cc *ColumnCache) Invalidate(s *schema.Schema) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if s == nil {
		for range cc.entries {
			cc.stats.flush()
		}
		clear(cc.entries)
		return
	}
	for k := range cc.entries {
		if k.Schema == s {
			delete(cc.entries, k)
			cc.stats.flush()
		}
	}
}

// Len returns the number of incoming indexes currently holding cached
// columns.
func (cc *ColumnCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries)
}
