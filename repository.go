package coma

import (
	"time"

	"repro/internal/repository"
	"repro/internal/reuse"
)

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

// SchemaMatcher returns a reuse-oriented Schema matcher reading the
// mappings stored under tag: given schemas S1 and S2 it composes every
// stored pair of mappings S1↔S and S↔S2 via MatchCompose and
// aggregates the compositions.
func (r *ShardedRepository) SchemaMatcher(tag string) Matcher {
	return reuse.NewSchemaMatcher("Schema", r.MappingStore(tag))
}

// FragmentMatcher returns a reuse-oriented Fragment matcher
// transferring correspondences of shared schema fragments from the
// mappings stored under tag.
func (r *ShardedRepository) FragmentMatcher(tag string) Matcher {
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

// MatchCompose composes two match results sharing a schema into a new
// match result, averaging similarities along the transitive step.
func MatchCompose(m1, m2 *Mapping) *Mapping {
	return reuse.MatchCompose(m1, m2, reuse.ComposeAverage)
}
