package repository

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/simcube"
)

// Store is the repository surface shared by the single-log Repo and the
// Sharded backend: schema, mapping and cube storage plus maintenance.
// Callers that only read and write repository state (the network
// server, the commands) work against this interface so the backing
// layout — one log or N sharded logs — is a deployment choice.
// MappingStore is intentionally absent: its concrete view types differ
// between backends (TagStore vs. ShardedTagStore); both satisfy
// reuse.Store.
type Store interface {
	PutSchema(s *schema.Schema) error
	SwapSchema(s *schema.Schema) (prev *schema.Schema, err error)
	GetSchema(name string) (*schema.Schema, bool)
	DeleteSchema(name string) error
	TakeSchema(name string) (prev *schema.Schema, err error)
	SchemaNames() []string
	Schemas() []*schema.Schema

	PutMapping(tag string, m *simcube.Mapping) error
	GetMapping(tag, from, to string) (*simcube.Mapping, bool)
	DeleteMapping(tag, from, to string) error

	PutCube(key string, c *simcube.Cube) error
	GetCube(key string) (*simcube.Cube, bool)
	DeleteCube(key string) error

	// Get and Iter are the raw-payload paths: encoded record bytes
	// without decoding, streamed through the buffer pool when paged.
	// Iter visits keys sorted per shard (globally sorted on a
	// single-log store).
	Get(k RecordKind, key string) ([]byte, bool)
	Iter(k RecordKind, fn func(key string, payload []byte) error) error
	// PageCacheStats snapshots the buffer pool(s) — summed across
	// shards on a sharded store.
	PageCacheStats() PageCacheStats

	Stats() Stats
	Compact() error
	Checkpoint() error
	Sync() error
	Close() error
}

var (
	_ Store = (*Repo)(nil)
	_ Store = (*Sharded)(nil)
)

// Sharded is an N-shard repository: a directory of independent Repo
// logs ("shard-000.repo", ...), with every record routed to one shard
// by an FNV-1a hash of its key (schema name, mapping source schema, or
// cube key). Each shard carries its own lock and file, so writes and
// reads touching different shards proceed without contention — the
// storage shape of the repository-server scale-out, where one shard's
// append fsync does not serialize the whole store.
//
// Records are hashed consistently per kind: schemas by schema name,
// mappings by their FromSchema (the inverted orientation is resolved at
// read time by also consulting the ToSchema's shard), cubes by the full
// cube key. A Sharded opened with one shard behaves exactly like a
// Repo in a directory.
type Sharded struct {
	dir    string
	shards []*Repo
}

// shardPattern names shard log files inside the repository directory.
const shardPattern = "shard-%03d.repo"

// OpenSharded opens (creating if needed) an n-shard repository rooted
// at dir. A fresh directory is populated with n empty shard logs; an
// existing one must contain exactly n shard files — the shard count is
// part of the on-disk layout, since records are routed by hash modulo
// n and re-sharding requires a rewrite.
func OpenSharded(dir string, n int, opts ...OpenOption) (*Sharded, error) {
	if n <= 0 {
		return nil, fmt.Errorf("repository: non-positive shard count %d", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repository: open sharded %s: %w", dir, err)
	}
	existing, err := filepath.Glob(filepath.Join(dir, "shard-*.repo"))
	if err != nil {
		return nil, fmt.Errorf("repository: open sharded %s: %w", dir, err)
	}
	if len(existing) != 0 && len(existing) != n {
		return nil, fmt.Errorf("repository: %s holds %d shards, opened with %d (shard count is fixed at creation)",
			dir, len(existing), n)
	}
	s := &Sharded{dir: dir, shards: make([]*Repo, n)}
	for i := range s.shards {
		r, err := Open(filepath.Join(dir, fmt.Sprintf(shardPattern, i)), opts...)
		if err != nil {
			for _, open := range s.shards[:i] {
				open.Close()
			}
			return nil, err
		}
		s.shards[i] = r
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Dir returns the repository directory the shard logs live in — the
// anchor for sidecar files (warm-restart snapshots) kept next to them.
func (s *Sharded) Dir() string { return s.dir }

// ShardFor returns the index of the shard holding the given schema
// name (FNV-1a modulo shard count).
func (s *Sharded) ShardFor(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Shard returns the i-th shard's underlying Repo — the unit of
// locking, logging and paging.
func (s *Sharded) Shard(i int) *Repo { return s.shards[i] }

// schemaShard routes a schema name to its shard.
func (s *Sharded) schemaShard(name string) *Repo { return s.shards[s.ShardFor(name)] }

// PutSchema stores (or replaces) a schema in its name's shard.
func (s *Sharded) PutSchema(sc *schema.Schema) error { return s.schemaShard(sc.Name).PutSchema(sc) }

// SwapSchema stores a schema in its name's shard and returns the
// replaced instance (nil when new), atomically within that shard.
func (s *Sharded) SwapSchema(sc *schema.Schema) (*schema.Schema, error) {
	return s.schemaShard(sc.Name).SwapSchema(sc)
}

// GetSchema returns the stored schema with the given name.
func (s *Sharded) GetSchema(name string) (*schema.Schema, bool) {
	return s.schemaShard(name).GetSchema(name)
}

// DeleteSchema removes a schema; deleting a missing schema is a no-op.
func (s *Sharded) DeleteSchema(name string) error { return s.schemaShard(name).DeleteSchema(name) }

// TakeSchema removes a schema from its name's shard and returns the
// removed instance (nil when absent), atomically within that shard.
func (s *Sharded) TakeSchema(name string) (*schema.Schema, error) {
	return s.schemaShard(name).TakeSchema(name)
}

// SchemaNames lists stored schema names across all shards, sorted.
func (s *Sharded) SchemaNames() []string {
	var out []string
	for _, r := range s.shards {
		out = append(out, r.SchemaNames()...)
	}
	sort.Strings(out)
	return out
}

// Schemas returns all stored schemas sorted by name — the same
// candidate-set contract as Repo.Schemas, independent of sharding.
func (s *Sharded) Schemas() []*schema.Schema {
	var out []*schema.Schema
	for _, r := range s.shards {
		out = append(out, r.Schemas()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ShardSchemas returns the i-th shard's schemas sorted by name — the
// candidate group a partial batch match can drop as a unit.
func (s *Sharded) ShardSchemas(i int) []*schema.Schema { return s.shards[i].Schemas() }

// PutMapping stores a match result in the shard of its source schema.
func (s *Sharded) PutMapping(tag string, m *simcube.Mapping) error {
	return s.schemaShard(m.FromSchema).PutMapping(tag, m)
}

// GetMapping returns the mapping stored under (tag, from, to), trying
// the inverted orientation as well. Mappings live in their FromSchema's
// shard, so the inverted orientation is looked up in to's shard.
func (s *Sharded) GetMapping(tag, from, to string) (*simcube.Mapping, bool) {
	if m, ok := s.schemaShard(from).GetMapping(tag, from, to); ok {
		return m, true
	}
	if inv := s.schemaShard(to); inv != s.schemaShard(from) {
		return inv.GetMapping(tag, from, to)
	}
	return nil, false
}

// DeleteMapping removes the mapping stored under (tag, from, to) in its
// stored orientation's shard (the same exact-key semantics as
// Repo.DeleteMapping).
func (s *Sharded) DeleteMapping(tag, from, to string) error {
	return s.schemaShard(from).DeleteMapping(tag, from, to)
}

// MappingStore returns a reuse-compatible view over the tag's mappings
// across all shards. The view reads live repository state.
func (s *Sharded) MappingStore(tag string) *ShardedTagStore {
	return &ShardedTagStore{sharded: s, tag: tag}
}

// cubeShard routes a cube key to its shard.
func (s *Sharded) cubeShard(key string) *Repo { return s.shards[s.ShardFor(key)] }

// PutCube stores a similarity cube under key in the key's shard.
func (s *Sharded) PutCube(key string, c *simcube.Cube) error { return s.cubeShard(key).PutCube(key, c) }

// GetCube returns the cube stored under key.
func (s *Sharded) GetCube(key string) (*simcube.Cube, bool) { return s.cubeShard(key).GetCube(key) }

// DeleteCube removes the cube stored under key.
func (s *Sharded) DeleteCube(key string) error { return s.cubeShard(key).DeleteCube(key) }

// recordShard routes a record-space key to its shard: schemas by
// name, mappings by the FromSchema inside the "tag|from|to" key,
// cubes by the full key — the same routing the typed paths use.
func (s *Sharded) recordShard(k RecordKind, key string) *Repo {
	if k == RecMappings {
		parts := strings.SplitN(key, "|", 3)
		if len(parts) == 3 {
			return s.schemaShard(parts[1])
		}
	}
	return s.schemaShard(key)
}

// Get returns the encoded payload stored under key, routed to the
// key's shard.
func (s *Sharded) Get(k RecordKind, key string) ([]byte, bool) {
	return s.recordShard(k, key).Get(k, key)
}

// Iter streams every record of the given space across shards, keys
// sorted within each shard.
func (s *Sharded) Iter(k RecordKind, fn func(key string, payload []byte) error) error {
	for i, r := range s.shards {
		if err := r.Iter(k, fn); err != nil {
			return fmt.Errorf("repository: iterate shard %d: %w", i, err)
		}
	}
	return nil
}

// PageCacheStats sums the per-shard buffer-pool snapshots.
func (s *Sharded) PageCacheStats() PageCacheStats {
	var st PageCacheStats
	for _, r := range s.shards {
		st = st.Add(r.PageCacheStats())
	}
	return st
}

// Stats sums the per-shard statistics.
func (s *Sharded) Stats() Stats {
	var st Stats
	for _, r := range s.shards {
		rs := r.Stats()
		st.Schemas += rs.Schemas
		st.Mappings += rs.Mappings
		st.Cubes += rs.Cubes
		st.LogBytes += rs.LogBytes
		st.PageBytes += rs.PageBytes
	}
	return st
}

// Compact rewrites every shard's log keeping only live records.
func (s *Sharded) Compact() error {
	for i, r := range s.shards {
		if err := r.Compact(); err != nil {
			return fmt.Errorf("repository: compact shard %d: %w", i, err)
		}
	}
	return nil
}

// Checkpoint snapshots every shard, bounding each shard's restart
// replay to snapshot + log suffix.
func (s *Sharded) Checkpoint() error {
	for i, r := range s.shards {
		if err := r.Checkpoint(); err != nil {
			return fmt.Errorf("repository: checkpoint shard %d: %w", i, err)
		}
	}
	return nil
}

// Sync flushes unfsynced appends on every shard — the explicit
// durability barrier under group-commit policies.
func (s *Sharded) Sync() error {
	for i, r := range s.shards {
		if err := r.Sync(); err != nil {
			return fmt.Errorf("repository: sync shard %d: %w", i, err)
		}
	}
	return nil
}

// Reports returns each shard's recovery report, indexed by shard.
func (s *Sharded) Reports() []*RecoveryReport {
	out := make([]*RecoveryReport, len(s.shards))
	for i, r := range s.shards {
		out[i] = r.RecoveryReport()
	}
	return out
}

// Close releases every shard, returning the first error.
func (s *Sharded) Close() error {
	var first error
	for _, r := range s.shards {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardedTagStore adapts one tag's mappings across all shards to the
// reuse.Store interface.
type ShardedTagStore struct {
	sharded *Sharded
	tag     string
}

// SchemaNames implements reuse.Store: every schema participating in a
// mapping under the tag, across shards, sorted.
func (t *ShardedTagStore) SchemaNames() []string {
	seen := make(map[string]bool)
	for _, r := range t.sharded.shards {
		for _, n := range (&TagStore{repo: r, tag: t.tag}).SchemaNames() {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MappingsBetween implements reuse.Store. A (from, to) pair's mappings
// live either in from's shard (stored orientation) or in to's shard
// (inverted), so at most two shards are consulted.
func (t *ShardedTagStore) MappingsBetween(from, to string) []*simcube.Mapping {
	fs := t.sharded.schemaShard(from)
	out := (&TagStore{repo: fs, tag: t.tag}).MappingsBetween(from, to)
	if ts := t.sharded.schemaShard(to); ts != fs {
		out = append(out, (&TagStore{repo: ts, tag: t.tag}).MappingsBetween(from, to)...)
	}
	return out
}

// AllMappings implements reuse.Store: every mapping under the tag in a
// deterministic global order (by from, then to schema name), matching
// the single-log TagStore's sorted-key enumeration.
func (t *ShardedTagStore) AllMappings() []*simcube.Mapping {
	var out []*simcube.Mapping
	for _, r := range t.sharded.shards {
		out = append(out, (&TagStore{repo: r, tag: t.tag}).AllMappings()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].FromSchema != out[j].FromSchema {
			return out[i].FromSchema < out[j].FromSchema
		}
		return out[i].ToSchema < out[j].ToSchema
	})
	return out
}
