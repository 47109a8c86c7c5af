package coma

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/repository"
)

// ShardedRepository is COMA's repository: the store of schemas,
// similarity cubes and match results that MatchIncoming and the reuse
// matchers (SchemaMatcher, FragmentMatcher) read. Its records live in
// one or more shard logs, routed by a hash of the schema name, each
// with its own lock and page pool: OpenRepository opens a single log
// file as the only shard, OpenShardedRepository a directory of N.
// Shards are a storage concept only: the store carries ONE match
// Engine — one analysis cache, one persistent column cache, one
// candidate index — whichever shard holds a schema. MatchIncoming
// matches an incoming schema against every shard's schemas in one
// batch under one worker budget and returns a single merged ranking.
//
// The store owns its schemas' analyses: a schema is analyzed and
// candidate-indexed once, when PutSchema or SwapSchema stores it (or
// when the store opens, unless the warm sidecar restored it), and its
// analysis, candidate-index postings and persistent columns are dropped
// when a put replaces it or DeleteSchema or TakeSchema removes it. The
// engine's cache therefore holds exactly the stored schemas, matches
// only read it, and a schema matched inline is analyzed per batch and
// never cached. Schemas written through the embedded
// repository.Sharded directly bypass this and are analyzed per match.
//
// Outputs are bit-identical across layouts and shard counts and to a
// loop of Engine.Match calls over the stored schemas; golden tests pin
// that. To match the stored schemas under another matcher
// configuration than the store's, pass Schemas() to that
// configuration's Engine.MatchAll.
type ShardedRepository struct {
	*repository.Sharded
	engine *Engine
	// pruneLog records pruned batches (LastPruneStats, PruneTotals).
	pruneLog
	// storage aggregates every shard's durability instruments (one
	// StorageMetrics shared across shard logs).
	storage *repository.StorageMetrics
	// warmPath is the warm-restart sidecar: <path>.warm beside a
	// single log file, warm.snap inside a shard directory.
	warmPath string
	// warm holds the startup warm-restore outcome (see WarmStart).
	warm WarmStats
	// warmMu serializes sidecar writes: each replaces the sidecar
	// through the same temporary file, so two at once (a periodic
	// checkpoint racing the shutdown one) would lose a rename.
	warmMu sync.Mutex
}

// OpenRepository opens (creating if necessary) the single-file
// repository at path: a one-shard store whose shard is the log at path
// (checkpoints add <path>.pages and the warm sidecar <path>.warm). The
// opts configure the store's engine (matchers, strategy, worker bound,
// caches) and its storage (sync policy, page cache), as for
// OpenShardedRepository.
func OpenRepository(path string, opts ...Option) (*ShardedRepository, error) {
	return openStore(path, path+warmSuffix, opts, func(ropts []repository.OpenOption) (*repository.Sharded, error) {
		return repository.OpenSingle(path, ropts...)
	})
}

// OpenShardedRepository opens (creating if necessary) an n-shard
// repository rooted at dir. The opts configure the store's engine
// (matchers, strategy, worker bound, caches) and its storage (sync
// policy, page cache).
func OpenShardedRepository(dir string, shards int, opts ...Option) (*ShardedRepository, error) {
	return openStore(dir, filepath.Join(dir, warmSnapName), opts, func(ropts []repository.OpenOption) (*repository.Sharded, error) {
		return repository.OpenSharded(dir, shards, ropts...)
	})
}

// openStore is the body of both constructors: it builds the store's
// engine from opts, opens the layout through open, seeds the engine
// from the warm sidecar at warmPath and analyzes every stored schema
// the sidecar did not cover. root names the store in errors.
func openStore(root, warmPath string, opts []Option, open func([]repository.OpenOption) (*repository.Sharded, error)) (*ShardedRepository, error) {
	engine, err := NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	o := engine.o
	storage := repository.NewStorageMetrics()
	ropts := []repository.OpenOption{
		repository.WithSyncPolicy(o.syncPolicy),
		repository.WithMetrics(storage),
	}
	if o.pageCache > 0 {
		ropts = append(ropts, repository.WithPageCache(o.pageCache))
	}
	store, err := open(ropts)
	if err != nil {
		return nil, fmt.Errorf("coma: open repository %s: %w", root, err)
	}
	r := &ShardedRepository{Sharded: store, engine: engine, storage: storage, warmPath: warmPath}
	// The warm sidecar (if any) seeds the engine with restored analyses
	// and columns; every stored schema it did not cover is analyzed now,
	// in parallel, so matches never analyze a stored schema.
	r.warm = restoreWarm(warmPath, store, engine)
	var cold []*Schema
	for _, s := range store.Schemas() {
		if engine.o.ctx.Analyzer.Peek(s) == nil && s.Validate() == nil {
			cold = append(cold, s)
		}
	}
	// Background is never done, so the loop cannot end early.
	_ = parallelFor(context.Background(), o.workers, len(cold), func(i int) { r.analyze(cold[i]) })
	return r, nil
}

// Engine returns the store's match engine, e.g. to read its cache
// statistics.
func (r *ShardedRepository) Engine() *Engine { return r.engine }

// PutSchema stores a schema, replacing any stored under its name; see
// SwapSchema.
func (r *ShardedRepository) PutSchema(s *Schema) error {
	_, err := r.SwapSchema(s)
	return err
}

// SwapSchema stores a schema and returns the instance it replaced (nil
// when the name was new), atomically with respect to other mutations
// of the name. Before s is published it is validated, analyzed into
// the store's engine and added to the candidate index, so a match that
// sees s finds its analysis; after the replaced instance is
// unpublished, its analysis, postings and columns are dropped. One
// instance must not be stored by two calls at once.
func (r *ShardedRepository) SwapSchema(s *Schema) (*Schema, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r.analyze(s)
	prev, err := r.Sharded.SwapSchema(s)
	if err != nil {
		if cur, ok := r.Sharded.GetSchema(s.Name); !ok || cur != s {
			r.forget(s)
		}
		return nil, err
	}
	if prev != nil && prev != s {
		r.forget(prev)
	}
	return prev, nil
}

// DeleteSchema removes a schema; see TakeSchema. Deleting a missing
// schema is a no-op.
func (r *ShardedRepository) DeleteSchema(name string) error {
	_, err := r.TakeSchema(name)
	return err
}

// TakeSchema removes a schema and returns the removed instance (nil
// when the name was absent). After the instance is unpublished, its
// analysis, candidate-index postings and persistent columns are
// dropped; a match still holding it analyzes it for its batch only.
func (r *ShardedRepository) TakeSchema(name string) (*Schema, error) {
	prev, err := r.Sharded.TakeSchema(name)
	if prev != nil {
		r.forget(prev)
	}
	return prev, err
}

// analyze caches a schema's analysis in the store's engine and posts
// it to the candidate index.
func (r *ShardedRepository) analyze(s *Schema) {
	e := r.engine
	x := e.o.ctx.Analyzer.Index(s, e.o.ctx.Sources())
	if ci := e.o.candIdx; ci != nil {
		ci.Add(s, x)
	}
}

// forget drops a schema's analysis, candidate-index postings and
// persistent columns from the store's engine.
func (r *ShardedRepository) forget(s *Schema) {
	if ci := r.engine.o.candIdx; ci != nil {
		ci.Remove(s)
	}
	r.engine.Release(s)
}

// MatchIncoming matches an incoming schema against every schema stored
// in any shard — the repository server's core operation: a new schema
// arrives and the store answers with the most similar known schemas
// and their mappings. All pairs run in one batch through the store's
// engine, on the stored schemas' own analyses, and share one worker
// budget; outcomes are ordered by descending combined schema
// similarity (name breaking ties), and candidates sharing the incoming
// schema's name are skipped. With TopK(n) only the n best survive.
func (r *ShardedRepository) MatchIncoming(incoming *Schema, opts ...MatchAllOption) ([]IncomingMatch, error) {
	out, _, err := r.MatchIncomingContext(context.Background(), incoming, opts...)
	return out, err
}

// MatchIncomingContext is MatchIncoming under a request context, with
// graceful degradation: a done ctx stops the batch cooperatively and
// returns the cancellation cause, while — with AllowPartial — a shard
// with a candidate that fails to match is dropped from the merged
// ranking and reported in the returned ShardErrors (ordered by shard
// index) instead of failing the request. Without AllowPartial the
// ShardErrors are always nil and any failure fails the whole match. A
// never-canceled ctx without failures yields results bit-identical to
// MatchIncoming.
func (r *ShardedRepository) MatchIncomingContext(ctx context.Context, incoming *Schema, opts ...MatchAllOption) ([]IncomingMatch, []ShardError, error) {
	o, err := buildMatchAllOptions(opts)
	if err != nil {
		return nil, nil, err
	}
	// One candidate group per storage shard, so AllowPartial can drop
	// a failing shard as a unit.
	groups := make([][]*Schema, r.NumShards())
	for i := range groups {
		for _, s := range r.ShardSchemas(i) {
			if s.Name != incoming.Name {
				groups[i] = append(groups[i], s)
			}
		}
	}
	results, stats, groupErrs, err := r.engine.matchBatch(ctx, incoming, groups, o, true)
	if err != nil {
		return nil, nil, err
	}
	if stats != nil {
		r.record(*stats)
	}
	var out []IncomingMatch
	for gi, rs := range results {
		for ci, res := range rs {
			if res != nil {
				out = append(out, IncomingMatch{Schema: groups[gi][ci], Result: res})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Result.SchemaSim != out[j].Result.SchemaSim {
			return out[i].Result.SchemaSim > out[j].Result.SchemaSim
		}
		return out[i].Schema.Name < out[j].Schema.Name
	})
	if o.topK > 0 && len(out) > o.topK {
		out = out[:o.topK]
	}
	return out, groupErrs, nil
}
