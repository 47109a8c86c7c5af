package coma

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/schema"
)

// This file wires the candidate-pruning index (internal/candidates)
// into the repository match path. With WithCandidateIndex, a store's
// engine maintains an inverted index over its stored schemas' analysis
// artifacts (name tokens, dictionary term ids, generic type classes);
// ShardedRepository.MatchIncoming scores each stored candidate with a
// cheap admissible upper bound on its combined schema similarity and
// hands the bounds to the batch scheduler (core.MatchBatch), which
// skips every candidate whose bound cannot reach the running k-th best
// real score. Results are bit-identical to the exhaustive scan; only
// the amount of work changes. The index falls back to the exhaustive
// scan whenever the bound would not be provably admissible (custom
// matchers, feedback, non-library strategies) or no TopK is requested.

// PruneStats reports how much work candidate pruning saved in the last
// MatchIncoming batch: total candidates, pairs fully matched, pairs
// skipped (bound below the running k-th best score, or cut by
// MaxCandidates).
type PruneStats = core.PruneStats

// PruneTotals is the cumulative form of PruneStats: candidates
// considered, matched and skipped summed over every pruned batch since
// the repository opened. Unlike the last-batch snapshot it is
// monotonic under concurrent matches, so it is what /readyz and
// /metrics report.
type PruneTotals = core.PruneTotals

// CandidateIndexStats summarizes a candidate index segment: indexed
// schema count and total posting-list entries.
type CandidateIndexStats = candidates.Stats

// WithCandidateIndex equips a store's engine with a candidate-pruning
// index: an inverted index over the stored schemas' name tokens,
// dictionary term ids and generic type classes, maintained
// incrementally as the store puts and deletes schemas (never rebuilt
// from scratch). ShardedRepository.MatchIncoming then prunes TopK
// batches through it — skipping every candidate whose upper bound
// cannot reach the running k-th best real score — with results
// bit-identical to the exhaustive scan. Matches that cannot be safely
// bounded (custom matchers, feedback, no TopK, Exhaustive) run
// exhaustively as before, and Engine.MatchAll never prunes.
func WithCandidateIndex() Option {
	return func(o *Options) error {
		o.candIdx = candidates.NewIndex()
		return nil
	}
}

// MaxCandidates caps a pruned MatchIncoming batch at the n candidates
// with the highest upper bounds; the rest are excluded without being
// matched. Unlike plain bound pruning this is a heuristic cut — an
// excluded candidate could in principle outrank a retained one — so
// results may deviate from the exhaustive scan. It is the latency
// ceiling for very large stores; leave it unset for bit-identical
// results. Ignored when the batch runs exhaustively.
func MaxCandidates(n int) MatchAllOption {
	return func(o *matchAllOptions) error {
		if n <= 0 {
			return fmt.Errorf("coma: non-positive MaxCandidates %d", n)
		}
		o.maxCandidates = n
		return nil
	}
}

// Exhaustive forces a MatchIncoming batch to run the full pipeline on
// every candidate, bypassing the candidate-pruning index. Results are
// bit-identical either way (pruning is safe); the switch exists for
// verification, benchmarking the unpruned baseline, and batches that
// must populate per-candidate results beyond the TopK.
func Exhaustive() MatchAllOption {
	return func(o *matchAllOptions) error {
		o.exhaustive = true
		return nil
	}
}

// pruneSpec decides whether a batch with these options can be pruned
// through the engine's candidate index: the index must exist, the
// batch must want a TopK (without one there is no k-th score to prune
// against) and not demand exhaustiveness, and the engine's matcher and
// strategy configuration must be one the bound formulas provably
// dominate (candidates.NewSpec returns nil otherwise).
func (e *Engine) pruneSpec(o *matchAllOptions) *candidates.Spec {
	if e.o.candIdx == nil || o.exhaustive || o.topK <= 0 {
		return nil
	}
	return candidates.NewSpec(e.o.matchers, e.o.strategy, e.o.feedback)
}

// candidateBounds computes one admissible upper bound per candidate
// from the engine's candidate index, one slice per group. A candidate
// whose posting is stale is refreshed from its batch analysis first;
// one the index no longer holds stays out, since the store indexes and
// unindexes its own schemas — so a snapshot candidate deleted
// meanwhile cannot re-enter the index. The index is consulted once
// over every group's candidates (Bounds walks every posting of the
// probe's keys, so a call per group would repeat that walk), and
// MaxCandidates cuts across all groups: the merged ranking is what the
// cap is about, not any one shard's.
func (e *Engine) candidateBounds(spec *candidates.Spec, in *analysis.SchemaIndex, groups [][]*analysis.SchemaIndex, maxCandidates int) [][]float64 {
	var xs []*analysis.SchemaIndex
	for _, g := range groups {
		xs = append(xs, g...)
	}
	all := make([]*schema.Schema, len(xs))
	for i, x := range xs {
		all[i] = x.Schema
	}
	ci := e.o.candIdx
	if stale := ci.Stale(all, e.o.ctx.Sources()); len(stale) > 0 {
		of := make(map[*schema.Schema]*analysis.SchemaIndex, len(xs))
		for _, x := range xs {
			of[x.Schema] = x
		}
		for _, s := range stale {
			ci.Refresh(s, of[s])
		}
	}
	flat := ci.Bounds(candidates.NewProbe(spec, in), all)
	limitBounds(flat, maxCandidates)
	bounds := make([][]float64, len(groups))
	for i, g := range groups {
		bounds[i], flat = flat[:len(g):len(g)], flat[len(g):]
	}
	return bounds
}

// limitBounds applies MaxCandidates: every bound outside the m highest
// (ties breaking toward the earlier candidate, so the cut is
// deterministic) becomes -Inf — the scheduler's "exclude outright"
// sentinel. m <= 0 means no cap.
func limitBounds(bounds []float64, m int) {
	if m <= 0 || len(bounds) <= m {
		return
	}
	order := make([]int, len(bounds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] > bounds[order[b]] })
	for _, i := range order[m:] {
		bounds[i] = math.Inf(-1)
	}
}

// CandidateIndexStats reports the engine's candidate index segment
// size; ok is false without WithCandidateIndex.
func (e *Engine) CandidateIndexStats() (st CandidateIndexStats, ok bool) {
	if e.o.candIdx == nil {
		return CandidateIndexStats{}, false
	}
	return e.o.candIdx.Stats(), true
}

// pruneLog records a repository's pruned batches: the most recent
// batch's statistics and the cumulative counters behind /readyz and
// /metrics.
type pruneLog struct {
	last   atomic.Pointer[PruneStats]
	totals core.PruneCounters
}

func (p *pruneLog) record(ps PruneStats) {
	p.last.Store(&ps)
	p.totals.Record(ps)
}

// LastPruneStats returns the prune statistics of the most recent
// MatchIncoming batch that ran through the candidate-pruning index
// (zero value if none did — engine without WithCandidateIndex,
// exhaustive batches, unboundable configurations).
func (p *pruneLog) LastPruneStats() PruneStats {
	if ps := p.last.Load(); ps != nil {
		return *ps
	}
	return PruneStats{}
}

// PruneTotals returns the cumulative pruning counters across every
// pruned MatchIncoming batch since the repository opened.
func (p *pruneLog) PruneTotals() PruneTotals { return p.totals.Totals() }
