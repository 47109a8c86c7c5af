package server

import (
	"fmt"

	"repro/internal/importer"
	"repro/internal/schema"
	"repro/internal/simcube"
)

// SchemaPayload names a schema over the wire: either a reference to a
// stored schema (Name only) or an inline schema (Name plus Format and
// Source), imported server-side with the same dispatch as
// coma.LoadFile.
type SchemaPayload struct {
	// Name is the schema name — of a stored schema when Source is
	// empty, of the inline schema otherwise.
	Name string `json:"name"`
	// Format selects the importer for Source: sql, ddl, xsd, xml, json
	// or dtd (a leading dot is accepted, so file extensions pass
	// through unchanged).
	Format string `json:"format,omitempty"`
	// Source is the schema document text; empty means Name references a
	// stored schema.
	Source string `json:"source,omitempty"`
}

// Inline reports whether the payload carries an inline schema source.
func (p SchemaPayload) Inline() bool { return p.Source != "" }

// MatchRequest is the body of POST /match: match the given schema —
// inline or stored — against every schema in the repository.
type MatchRequest struct {
	Schema SchemaPayload `json:"schema"`
	// TopK keeps only the K best candidates (0 = all).
	TopK int `json:"topK,omitempty"`
	// AllowPartial opts into graceful degradation on a sharded backend:
	// a failed shard is dropped from the ranking and reported in
	// MatchResponse.FailedShards instead of failing the request.
	AllowPartial bool `json:"allowPartial,omitempty"`
	// Exhaustive forces the full pipeline on every stored schema,
	// bypassing the backend's candidate-pruning index. Pruned results
	// are bit-identical to exhaustive ones, so the switch exists for
	// verification and baseline benchmarking, not correctness.
	Exhaustive bool `json:"exhaustive,omitempty"`
}

// Correspondence is one element correspondence of a wire mapping.
type Correspondence struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Sim  float64 `json:"sim"`
}

// MatchCandidate is one ranked outcome of a match request.
type MatchCandidate struct {
	// Schema is the stored candidate's name.
	Schema string `json:"schema"`
	// SchemaSim is the combined schema similarity of the pair.
	SchemaSim float64 `json:"schemaSim"`
	// Correspondences is the selected mapping, incoming-side first.
	Correspondences []Correspondence `json:"correspondences"`
}

// ShardFailure reports one shard dropped from a partial match result.
type ShardFailure struct {
	// Shard is the failed shard's index.
	Shard int `json:"shard"`
	// Error is the failure's message.
	Error string `json:"error"`
}

// MatchResponse is the body answering POST /match: stored candidates
// ranked by descending combined schema similarity. With
// MatchRequest.AllowPartial, a response missing failed shards'
// candidates carries Partial = true and names the dropped shards.
type MatchResponse struct {
	Incoming   string           `json:"incoming"`
	Candidates []MatchCandidate `json:"candidates"`
	// Partial marks a degraded result: one or more shards failed and
	// their candidates are absent from the ranking.
	Partial bool `json:"partial,omitempty"`
	// FailedShards lists the dropped shards, ordered by shard index.
	FailedShards []ShardFailure `json:"failedShards,omitempty"`
}

// SchemaInfo summarizes one stored schema.
type SchemaInfo struct {
	Name  string `json:"name"`
	Paths int    `json:"paths"`
}

// SchemasResponse is the body answering GET /schemas.
type SchemasResponse struct {
	Schemas []SchemaInfo `json:"schemas"`
}

// SchemaDetail is the body answering GET /schemas/{name}: the stored
// schema's path enumeration, the element vocabulary matchers score.
type SchemaDetail struct {
	Name  string   `json:"name"`
	Paths []string `json:"paths"`
}

// Health is the body answering GET /healthz — pure liveness plus
// store shape; it stays 200 even while the server drains.
type Health struct {
	Status  string `json:"status"`
	Schemas int    `json:"schemas"`
	Shards  int    `json:"shards"`
}

// Readiness is the body answering GET /readyz — whether the server
// should receive new traffic, with the admission queue's state. While
// draining (graceful shutdown) the endpoint answers 503 so load
// balancers stop routing before in-flight matches are killed.
type Readiness struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Draining is true once graceful shutdown began.
	Draining bool `json:"draining"`
	// Queued is the number of match requests waiting for a slot.
	Queued int `json:"queued"`
	// InFlight is the number of match requests currently executing.
	InFlight int `json:"inFlight"`
	// Workers is the admission semaphore's size.
	Workers int `json:"workers"`
	// QueueLimit is the admission queue bound (0 = unbounded).
	QueueLimit int `json:"queueLimit"`
	// CandidateIndex reports the candidate-pruning index state; absent
	// when the backend matches exhaustively only.
	CandidateIndex *IndexReadiness `json:"candidateIndex,omitempty"`
	// Recovery reports what each shard's log replay found at startup;
	// absent when the backend has no durable store.
	Recovery []RecoveryStatus `json:"recovery,omitempty"`
	// PageCache reports the repository buffer pool's state (summed
	// across shards); absent when the backend has no paged store.
	PageCache *PageCacheStatus `json:"pageCache,omitempty"`
	// WarmStart reports the startup warm-restore outcome; absent when
	// the backend never restores warm state.
	WarmStart *WarmStartStatus `json:"warmStart,omitempty"`
}

// PageCacheStatus is the page buffer pool block of /readyz: capacity
// and residency plus cumulative traffic, summed across shards.
type PageCacheStatus struct {
	// Capacity is the pool bound in pages (summed over shard pools).
	Capacity int `json:"capacity"`
	// Resident is the number of pages currently cached.
	Resident int `json:"resident"`
	// Pinned is the number of pages currently pinned by readers.
	Pinned int `json:"pinned"`
	// Hits counts page requests served from the pool.
	Hits uint64 `json:"hits"`
	// Misses counts page requests that read from disk.
	Misses uint64 `json:"misses"`
	// Evictions counts pages evicted to admit others.
	Evictions uint64 `json:"evictions"`
}

// WarmStartStatus is the warm-restart block of /readyz: whether the
// last open found and used a warm sidecar, and how much state it
// seeded.
type WarmStartStatus struct {
	// Attempted reports a sidecar file was present at open.
	Attempted bool `json:"attempted"`
	// Used reports the sidecar passed validation (CRC and
	// auxiliary-source fingerprints) and restoring ran.
	Used bool `json:"used"`
	// RestoredSchemas counts schema analyses seeded warm.
	RestoredSchemas int `json:"restoredSchemas"`
	// DiscardedSchemas counts sidecar entries rejected individually.
	DiscardedSchemas int `json:"discardedSchemas"`
	// Columns counts persistent similarity columns seeded.
	Columns int `json:"columns"`
}

// RecoveryStatus is one shard's startup-recovery block of /readyz.
type RecoveryStatus struct {
	// Shard is the shard index (0 for a single-log repository).
	Shard int `json:"shard"`
	// Path is the shard's log file.
	Path string `json:"path"`
	// Recovered counts records replayed into the store.
	Recovered int `json:"recovered"`
	// SkippedBytes is the damaged mid-log byte count salvage skipped.
	SkippedBytes int64 `json:"skippedBytes,omitempty"`
	// TruncatedBytes is the torn tail discarded after the last valid
	// record.
	TruncatedBytes int64 `json:"truncatedBytes,omitempty"`
	// Salvaged reports that damage forced a full salvage rewrite.
	Salvaged bool `json:"salvaged,omitempty"`
	// CheckpointUsed reports replay started from the page-file snapshot.
	CheckpointUsed bool `json:"checkpointUsed,omitempty"`
	// CheckpointDamaged reports an unreadable page file was dropped and
	// the log alone salvaged.
	CheckpointDamaged bool `json:"checkpointDamaged,omitempty"`
	// Clean reports the log was fully intact.
	Clean bool `json:"clean"`
}

// IndexReadiness is the candidate-pruning index block of /readyz.
type IndexReadiness struct {
	// Schemas is the number of schemas indexed, summed over segments.
	Schemas int `json:"schemas"`
	// Postings is the total posting-list entry count over segments.
	Postings int `json:"postings"`
	// LastPruneRatio is the fraction of candidates skipped by the most
	// recent pruned match batch (0 until one runs). Last-write-wins
	// under concurrent matches — kept for compatibility; read the
	// cumulative fields below for stable signals.
	LastPruneRatio float64 `json:"lastPruneRatio"`
	// PrunedTotal is the cumulative number of candidates skipped by
	// pruning across all batches since startup.
	PrunedTotal uint64 `json:"prunedTotal"`
	// ConsideredTotal is the cumulative number of candidates considered
	// by pruned batches since startup; PrunedTotal/ConsideredTotal is
	// the load-stable prune ratio.
	ConsideredTotal uint64 `json:"consideredTotal"`
	// PruneRatio is the cumulative prune ratio (0 until a pruned batch
	// runs).
	PruneRatio float64 `json:"pruneRatio"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ParseSchema imports an inline schema payload through the same
// format dispatcher as coma.LoadFile (importer.ParseAs), which also
// rejects schemas without any element path — an empty schema can
// neither be matched nor serve as a match candidate.
func ParseSchema(p SchemaPayload) (*schema.Schema, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("server: schema payload without a name")
	}
	if p.Format == "" {
		return nil, fmt.Errorf("server: inline schema %q without a format", p.Name)
	}
	return importer.ParseAs(p.Name, p.Format, []byte(p.Source))
}

// WireMapping converts a mapping into its wire correspondences.
func WireMapping(m *simcube.Mapping) []Correspondence {
	cs := m.Correspondences()
	out := make([]Correspondence, len(cs))
	for i, c := range cs {
		out[i] = Correspondence{From: c.From, To: c.To, Sim: c.Sim}
	}
	return out
}
