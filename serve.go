package coma

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/metrics"
	"repro/internal/schema"
	"repro/internal/server"
)

// ServeOption adjusts the HTTP front-end built by
// ShardedRepository.Handler: per-request deadlines, admission queue
// bounds, body caps and fault injection. The compute-side knobs
// (matchers, workers, caches) stay on the engine's Options.
type ServeOption func(*server.Config)

// WithMatchTimeout bounds every admitted match request: requests
// running longer answer 504 and the pipeline stops cooperatively.
// d <= 0 disables the per-request deadline (client disconnects still
// cancel).
func WithMatchTimeout(d time.Duration) ServeOption {
	return func(cfg *server.Config) {
		if d <= 0 {
			d = 0
		}
		cfg.MatchTimeout = d
	}
}

// WithQueueLimit bounds the admission queue: match requests beyond n
// waiters are shed with 429 + Retry-After. n <= 0 means unbounded;
// the default is server.DefaultQueueLimit.
func WithQueueLimit(n int) ServeOption {
	return func(cfg *server.Config) {
		if n <= 0 {
			n = -1
		}
		cfg.QueueLimit = n
	}
}

// WithQueueTimeout bounds how long a match request may wait for an
// execution slot before answering 503. d <= 0 disables the bound; the
// default is server.DefaultQueueTimeout.
func WithQueueTimeout(d time.Duration) ServeOption {
	return func(cfg *server.Config) {
		if d <= 0 {
			d = -1
		}
		cfg.QueueTimeout = d
	}
}

// WithServeMaxBodyBytes caps request bodies (PUT /schemas,
// POST /match); oversized uploads answer 413. n <= 0 keeps the
// default.
func WithServeMaxBodyBytes(n int64) ServeOption {
	return func(cfg *server.Config) { cfg.MaxBodyBytes = n }
}

// WithFaultHook installs a fault-injection hook consulted at the start
// of every match/put/delete handler with the operation name; a non-nil
// return aborts the request with a 500 before the backend is touched.
// For tests and chaos probes only.
func WithFaultHook(hook func(op string) error) ServeOption {
	return func(cfg *server.Config) { cfg.FaultHook = hook }
}

// WithMetrics turns the served metrics registry and the GET /metrics
// endpoint on or off. Metrics are on by default — every instrument is
// a lock-free atomic — so this option exists to disable them
// (WithMetrics(false)) in embedded deployments that scrape nothing.
func WithMetrics(enabled bool) ServeOption {
	return func(cfg *server.Config) { cfg.DisableMetrics = !enabled }
}

// WithRequestLog attaches a structured request logger: one slog record
// per finished request with method, path, status, elapsed time and
// remote address. nil disables request logging (the default).
func WithRequestLog(l *slog.Logger) ServeOption {
	return func(cfg *server.Config) { cfg.RequestLog = l }
}

// ServerMetrics is a point-in-time snapshot of every series the
// handler exposes at /metrics, for embedded users and tests; obtain it
// with (*server.Server).Metrics on the value Handler returns.
type ServerMetrics = server.ServerMetrics

// Handler returns the HTTP front-end exposing the sharded repository
// over the comaserve HTTP/JSON API (see package internal/server for
// the endpoint contract): schema import and listing plus the batch
// match of an incoming schema against every stored one, executed
// through the store's engine. The returned *server.Server implements
// http.Handler; keep a reference to call Drain before graceful
// shutdown (flips /readyz to 503 and sheds new matches while in-flight
// ones finish). In-flight match requests are bounded by the engine's
// worker count. PUT and DELETE go through the store's own mutators
// (SwapSchema, TakeSchema), so served and library use keep the same
// analyses: stored ones stay warm across requests, inline incoming
// schemas are analyzed per request and never cached. Match requests
// carrying allowPartial degrade a shard with a failing candidate to a
// partial, annotated ranking instead of a failed request.
func (r *ShardedRepository) Handler(opts ...ServeOption) *server.Server {
	cfg := server.Config{
		Backend: &backend{repo: r},
		Workers: r.engine.o.workers,
		Shards:  r.NumShards(),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return server.New(cfg)
}

// backend adapts ShardedRepository to server.Backend.
type backend struct {
	repo *ShardedRepository
}

func (b *backend) MatchIncoming(ctx context.Context, incoming *schema.Schema, topK int, allowPartial, exhaustive bool) ([]server.Match, []server.ShardFailure, error) {
	var opts []MatchAllOption
	if topK > 0 {
		opts = append(opts, TopK(topK))
	}
	if exhaustive {
		opts = append(opts, Exhaustive())
	}
	if allowPartial {
		opts = append(opts, AllowPartial())
	}
	ms, shardErrs, err := b.repo.MatchIncomingContext(ctx, incoming, opts...)
	if err != nil {
		return nil, nil, err
	}
	out := make([]server.Match, len(ms))
	for i, m := range ms {
		out[i] = server.Match{Schema: m.Schema, Result: m.Result}
	}
	var failures []server.ShardFailure
	for _, se := range shardErrs {
		failures = append(failures, server.ShardFailure{Shard: se.Shard, Error: se.Err.Error()})
	}
	return out, failures, nil
}

func (b *backend) PutSchema(s *schema.Schema) (bool, error) {
	prev, err := b.repo.SwapSchema(s)
	return prev != nil, err
}

func (b *backend) DeleteSchema(name string) (bool, error) {
	prev, err := b.repo.TakeSchema(name)
	return prev != nil, err
}

func (b *backend) GetSchema(name string) (*schema.Schema, bool) { return b.repo.GetSchema(name) }
func (b *backend) SchemaNames() []string                        { return b.repo.SchemaNames() }
func (b *backend) Stats() RepositoryStats                       { return b.repo.Stats() }

func (b *backend) Recovery() []server.RecoveryStatus {
	reps := b.repo.Reports()
	out := make([]server.RecoveryStatus, len(reps))
	for i, rep := range reps {
		out[i] = server.RecoveryStatus{
			Shard:             i,
			Path:              rep.Path,
			Recovered:         rep.Recovered,
			SkippedBytes:      rep.SkippedBytes,
			TruncatedBytes:    rep.TruncatedBytes,
			Salvaged:          rep.Salvaged,
			CheckpointUsed:    rep.CheckpointUsed,
			CheckpointDamaged: rep.CheckpointDamaged,
			Clean:             rep.Clean(),
		}
	}
	return out
}

func (b *backend) PageCache() (server.PageCacheStatus, bool) {
	st := b.repo.PageCacheStats()
	return server.PageCacheStatus{
		Capacity:  st.Capacity,
		Resident:  st.Resident,
		Pinned:    st.Pinned,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
	}, true
}

func (b *backend) WarmStart() (server.WarmStartStatus, bool) {
	ws := b.repo.WarmStart()
	return server.WarmStartStatus{
		Attempted:        ws.Attempted,
		Used:             ws.Used,
		RestoredSchemas:  ws.Restored,
		DiscardedSchemas: ws.Discarded,
		Columns:          ws.Columns,
	}, true
}

func (b *backend) IndexStats() (server.IndexReadiness, bool) {
	st, ok := b.repo.engine.CandidateIndexStats()
	if !ok {
		return server.IndexReadiness{}, false
	}
	// The cumulative totals are the load-stable complement to the
	// last-write-wins LastPruneRatio snapshot.
	pt := b.repo.PruneTotals()
	return server.IndexReadiness{
		Schemas:         st.Schemas,
		Postings:        st.Postings,
		LastPruneRatio:  b.repo.LastPruneStats().Ratio(),
		PrunedTotal:     pt.Skipped,
		ConsideredTotal: pt.Candidates,
		PruneRatio:      pt.Ratio(),
	}, true
}

func (b *backend) CollectMetrics(reg *metrics.Registry) {
	e := b.repo.engine
	registerCacheMetrics(reg, e.AnalyzerCacheStats, e.ColumnCacheStats)
	registerPruneMetrics(reg, b.repo.PruneTotals)
	registerPageCacheMetrics(reg, b.repo.PageCacheStats)
	registerWarmMetrics(reg, b.repo.WarmStart)
	reg.GaugeFunc("coma_schemas", "Schemas currently stored.",
		func() float64 { return float64(b.repo.Stats().Schemas) })
	b.repo.storage.Register(reg)
}

// registerCacheMetrics exposes the store engine's cache counters; the
// closures read the engine at exposition time.
func registerCacheMetrics(reg *metrics.Registry, an func() AnalyzerCacheStats, col func() (ColumnCacheStats, bool)) {
	counter := func(name, help string, read func() uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(read()) })
	}
	counter("coma_analyzer_cache_hits_total",
		"Analyzer cache hits (Index calls served from a cached, valid index).",
		func() uint64 { return an().Hits })
	counter("coma_analyzer_cache_misses_total",
		"Analyzer cache misses (index builds: stored schemas at put, stale rebuilds, per-request analyses of inline schemas).",
		func() uint64 { return an().Misses })
	counter("coma_analyzer_cache_invalidations_total",
		"Analyzer cache entries whose index was dropped by invalidation.",
		func() uint64 { return an().Invalidations })
	reg.GaugeFunc("coma_analyzer_cache_entries",
		"Schema analyses currently cached.",
		func() float64 { return float64(an().Entries) })
	if _, ok := col(); !ok {
		return
	}
	counter("coma_column_cache_hits_total",
		"Persistent column-cache hits (name-similarity columns served warm).",
		func() uint64 { st, _ := col(); return st.Hits })
	counter("coma_column_cache_misses_total",
		"Persistent column-cache misses (columns computed).",
		func() uint64 { st, _ := col(); return st.Misses })
	counter("coma_column_cache_flushes_total",
		"Column-discarding events: epoch flushes, stale prunes, LRU evictions, invalidations.",
		func() uint64 { st, _ := col(); return st.Flushes })
	reg.GaugeFunc("coma_column_cache_entries",
		"Incoming-schema indexes currently holding cached columns.",
		func() float64 { st, _ := col(); return float64(st.Entries) })
}

// registerPageCacheMetrics exposes the buffer pool's occupancy gauges
// (summed across shard pools at exposition time). The traffic counters
// — coma_pagecache_{hits,misses,evictions}_total and the pinned gauge
// — come from repository.StorageMetrics.Register, which the backend
// also attaches.
func registerPageCacheMetrics(reg *metrics.Registry, stats func() PageCacheStats) {
	reg.GaugeFunc("coma_pagecache_capacity_pages",
		"Buffer pool capacity in pages, summed across shards.",
		func() float64 { return float64(stats().Capacity) })
	reg.GaugeFunc("coma_pagecache_resident_pages",
		"Pages currently resident in the buffer pool.",
		func() float64 { return float64(stats().Resident) })
}

// registerWarmMetrics exposes the startup warm-restore outcome.
func registerWarmMetrics(reg *metrics.Registry, warm func() WarmStats) {
	reg.GaugeFunc("coma_warm_start_used",
		"1 when the last open restored from a valid warm sidecar, else 0.",
		func() float64 {
			if warm().Used {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("coma_warm_restored_schemas",
		"Schema analyses seeded warm by the last open.",
		func() float64 { return float64(warm().Restored) })
	reg.GaugeFunc("coma_warm_discarded_schemas",
		"Warm sidecar entries rejected individually by the last open.",
		func() float64 { return float64(warm().Discarded) })
	reg.GaugeFunc("coma_warm_restored_columns",
		"Persistent similarity columns seeded warm by the last open.",
		func() float64 { return float64(warm().Columns) })
}

// registerPruneMetrics exposes the cumulative candidate-pruning
// counters.
func registerPruneMetrics(reg *metrics.Registry, totals func() PruneTotals) {
	counter := func(name, help string, read func(PruneTotals) uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(read(totals())) })
	}
	counter("coma_prune_batches_total",
		"Pruned match batches recorded.",
		func(pt PruneTotals) uint64 { return pt.Batches })
	counter("coma_prune_candidates_total",
		"Candidates considered by pruned batches.",
		func(pt PruneTotals) uint64 { return pt.Candidates })
	counter("coma_prune_matched_total",
		"Pairs the full match pipeline ran on in pruned batches.",
		func(pt PruneTotals) uint64 { return pt.Matched })
	counter("coma_prune_skipped_total",
		"Pairs pruned away (bound below the running TopK threshold, or MaxCandidates cut).",
		func(pt PruneTotals) uint64 { return pt.Skipped })
}
