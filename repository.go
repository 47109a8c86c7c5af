package coma

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/repository"
	"repro/internal/reuse"
)

// Repository is the persistent store for schemas, similarity cubes and
// match results, backing the reuse-oriented matchers. It wraps the
// embedded log-structured engine in internal/repository.
type Repository struct {
	*repository.Repo
	pruneLog
}

// RepositoryStats summarizes repository contents and log sizes.
type RepositoryStats = repository.Stats

// SyncPolicy selects when repository log appends reach stable storage:
// SyncAlways (fsync per append — the durable default), SyncInterval
// (group commit on a timer; a crash loses at most the last interval)
// or SyncNone (fsync only on close, checkpoint and compact).
type SyncPolicy = repository.SyncPolicy

// SyncAlways fsyncs after every append; an acknowledged write is never
// lost.
func SyncAlways() SyncPolicy { return repository.SyncAlways() }

// SyncInterval groups commits: appends return after the OS write and a
// background fsync runs every d (d <= 0 selects the default interval).
func SyncInterval(d time.Duration) SyncPolicy { return repository.SyncInterval(d) }

// SyncNone fsyncs only on Close, Checkpoint and Compact — for tests
// and bulk loads that can be replayed.
func SyncNone() SyncPolicy { return repository.SyncNone() }

// ParseSyncPolicy parses a policy from flag form: "always", "none",
// "interval", or a duration like "100ms".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return repository.ParseSyncPolicy(s) }

// RecoveryReport describes what opening a repository log found and did
// while replaying it (salvaged damage, torn tails, checkpoint use).
type RecoveryReport = repository.RecoveryReport

// VerifyReport is the result of an offline repository integrity check
// (comarepo fsck).
type VerifyReport = repository.VerifyReport

// VerifyStore checks a repository path — a single log file or a
// sharded repository directory — without modifying it.
func VerifyStore(path string) ([]*VerifyReport, error) { return repository.VerifyStore(path) }

// RepairStore opens (salvaging as needed) and closes every log under
// path, returning what each open recovered.
func RepairStore(path string) ([]*RecoveryReport, error) { return repository.RepairStore(path) }

// WithSyncPolicy selects the repository log's durability policy; the
// default is SyncAlways.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *Options) error {
		o.syncPolicy = p
		return nil
	}
}

// WithPageCache bounds the repository's page buffer pool at n pages
// (per shard for a sharded store). Checkpointed records are served
// from fixed-size pages through this pool, so n × page size is the
// resident memory ceiling for cold record access; a store larger than
// the pool still serves every record correctly, evicting pages
// clock-wise. 0 or less selects the storage engine's default.
func WithPageCache(n int) Option {
	return func(o *Options) error {
		o.pageCache = n
		return nil
	}
}

// PageCacheStats is a snapshot of a repository's page buffer pool
// (summed across shards for a sharded store): capacity and residency
// plus cumulative hit/miss/eviction counters.
type PageCacheStats = repository.PageCacheStats

// Mapping tags conventionally used by the evaluation.
const (
	// TagManual marks manually confirmed match results.
	TagManual = "manual"
	// TagAuto marks automatically derived match results.
	TagAuto = "auto"
)

// OpenRepository opens (creating if necessary) a repository file. The
// opts are read for storage settings (WithSyncPolicy); engine options
// are accepted and ignored, so one option list can configure both.
func OpenRepository(path string, opts ...Option) (*Repository, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	ropts := []repository.OpenOption{repository.WithSyncPolicy(o.syncPolicy)}
	if o.pageCache > 0 {
		ropts = append(ropts, repository.WithPageCache(o.pageCache))
	}
	r, err := repository.Open(path, ropts...)
	if err != nil {
		return nil, fmt.Errorf("coma: open repository %s: %w", path, err)
	}
	return &Repository{Repo: r}, nil
}

// SchemaMatcher returns a reuse-oriented Schema matcher reading the
// mappings stored under tag: given schemas S1 and S2 it composes every
// stored pair of mappings S1↔S and S↔S2 via MatchCompose and
// aggregates the compositions.
func (r *Repository) SchemaMatcher(tag string) Matcher {
	return reuse.NewSchemaMatcher("Schema", r.MappingStore(tag))
}

// FragmentMatcher returns a reuse-oriented Fragment matcher
// transferring correspondences of shared schema fragments from the
// mappings stored under tag.
func (r *Repository) FragmentMatcher(tag string) Matcher {
	return reuse.NewFragmentMatcher("Fragment", r.MappingStore(tag))
}

// IncomingMatch is one outcome of MatchIncoming: a stored schema and
// the incoming schema's match result against it.
type IncomingMatch struct {
	// Schema is the stored candidate schema.
	Schema *Schema
	// Result is the batch match result for (incoming, Schema).
	Result *Result
}

// MatchIncoming matches an incoming schema against every schema stored
// in the repository in one batch through e — the repository server's
// core operation: a new schema arrives and the store answers with the
// most similar known schemas and their mappings. Candidates sharing
// the incoming schema's name are skipped. Outcomes are ordered by
// descending combined schema similarity (name breaking ties); with
// TopK(n) only the n best survive. The repository owns no engine, so
// the stored schemas' analyses are cached in e as MatchAll caches its
// candidates.
func (r *Repository) MatchIncoming(e *Engine, incoming *Schema, opts ...MatchAllOption) ([]IncomingMatch, error) {
	return r.MatchIncomingContext(context.Background(), e, incoming, opts...)
}

// MatchIncomingContext is MatchIncoming under a request context: a
// done ctx stops the batch cooperatively (pair and row claims stop,
// pooled matrices are recycled) and returns the cancellation cause. A
// never-canceled ctx yields results bit-identical to MatchIncoming.
func (r *Repository) MatchIncomingContext(ctx context.Context, e *Engine, incoming *Schema, opts ...MatchAllOption) ([]IncomingMatch, error) {
	o, err := buildMatchAllOptions(opts)
	if err != nil {
		return nil, err
	}
	o.allowPartial = false // one store, no shard to degrade
	out, _, err := e.matchIncoming(ctx, incoming, o, &r.pruneLog, [][]*Schema{r.Schemas()}, false)
	return out, err
}

// matchIncoming is the one MatchIncoming path of both repository
// types; groups lists the stored schemas, one group per storage shard,
// and stored says whether e is the store's own engine (see
// matchBatch). Candidates sharing the incoming schema's name are
// dropped, a pruned batch's statistics go to prunes, and the groups
// merge into one ranking — descending combined schema similarity, name
// breaking ties — cut to TopK.
func (e *Engine) matchIncoming(ctx context.Context, incoming *Schema, o *matchAllOptions, prunes *pruneLog, groups [][]*Schema, stored bool) ([]IncomingMatch, []ShardError, error) {
	for i, cands := range groups {
		kept := cands[:0:0]
		for _, s := range cands {
			if s.Name != incoming.Name {
				kept = append(kept, s)
			}
		}
		groups[i] = kept
	}
	results, stats, groupErrs, err := e.matchBatch(ctx, incoming, groups, o, stored)
	if err != nil {
		return nil, nil, err
	}
	if stats != nil {
		prunes.record(*stats)
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

// MatchCompose composes two match results sharing a schema into a new
// match result, averaging similarities along the transitive step.
func MatchCompose(m1, m2 *Mapping) *Mapping {
	return reuse.MatchCompose(m1, m2, reuse.ComposeAverage)
}
