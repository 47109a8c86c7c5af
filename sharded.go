package coma

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/repository"
)

// ShardedRepository is the scale-out form of Repository: schemas,
// mappings and cubes are distributed over N independent shard logs
// (hash of the schema name), each with its own lock and page pool.
// Shards are a storage concept only: the store carries ONE match
// Engine — one analysis cache, one persistent column cache, one
// candidate index — so a stored schema is pinned, indexed and analyzed
// once whichever shard holds it. MatchIncoming matches an incoming
// schema against every shard's schemas in one batch under one worker
// budget and returns a single merged ranking.
//
// Outputs are bit-identical across shard counts and to the
// single-store Repository.MatchIncoming; golden tests pin that.
type ShardedRepository struct {
	*repository.Sharded
	engine *Engine
	// pruneLog records pruned batches (LastPruneStats, PruneTotals).
	pruneLog
	// storage aggregates every shard's durability instruments (one
	// StorageMetrics shared across shard logs).
	storage *repository.StorageMetrics
	// warm holds the startup warm-restore outcome (see WarmStart).
	warm WarmStats
	// warmMu serializes sidecar writes: each replaces the sidecar
	// through the same temporary file, so two at once (a periodic
	// checkpoint racing the shutdown one) would lose a rename.
	warmMu sync.Mutex
}

// OpenShardedRepository opens (creating if necessary) an n-shard
// repository rooted at dir. The opts configure the store's engine
// (matchers, strategy, worker bound, caches) and its storage (sync
// policy, page cache).
func OpenShardedRepository(dir string, shards int, opts ...Option) (*ShardedRepository, error) {
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
	store, err := repository.OpenSharded(dir, shards, ropts...)
	if err != nil {
		return nil, fmt.Errorf("coma: open sharded repository %s: %w", dir, err)
	}
	r := &ShardedRepository{Sharded: store, engine: engine, storage: storage}
	// The warm sidecar (if any) seeds the engine: restored analyses and
	// columns make the first post-restart matches hit instead of
	// re-analyzing the store.
	r.warm = restoreWarm(r.warmPath(), store, engine)
	return r, nil
}

// Engine returns the store's match engine, e.g. to front-load analysis
// (Engine.Analyze) or read its cache statistics.
func (r *ShardedRepository) Engine() *Engine { return r.engine }

// MatchIncoming matches an incoming schema against every schema stored
// in any shard — the network server's core operation. All pairs run in
// one batch through the store's engine (stored analyses stay warm
// across calls) and share one worker budget; outcomes are ordered by
// descending combined schema similarity (name breaking ties), and
// candidates sharing the incoming schema's name are skipped. With
// TopK(n) only the n best survive. Results are bit-identical to the
// single-store Repository.MatchIncoming.
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
	return r.engine.matchIncoming(ctx, incoming, o, &r.pruneLog, func() [][]*Schema {
		groups := make([][]*Schema, r.NumShards())
		for i := range groups {
			groups[i] = r.ShardSchemas(i)
		}
		return groups
	})
}
