package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/match"
	"repro/internal/simcube"
)

// BatchOptions tune one MatchBatch call beyond the per-iteration Config.
type BatchOptions struct {
	// TopK, when positive, retains only the TopK best results of each
	// candidate group by combined schema similarity (candidate order
	// breaking ties); the other slots of the result slices are nil and
	// retain no matrices or mappings. Required when bounds are given.
	TopK int
	// KeepCubes retains each result's similarity cube. By default the
	// scheduler recycles cube layers through the batch arena at
	// cube→mapping extraction and returns results with a nil Cube.
	KeepCubes bool
	// AllowPartial degrades group failure instead of aborting: a group
	// with a failing pair is dropped from the results — nil slice — and
	// reported as a ShardError, while the remaining groups complete
	// normally. Cancellation of the batch's request context always
	// aborts the whole batch regardless.
	AllowPartial bool
}

// ShardError records one candidate group's failure inside a partial
// batch: with BatchOptions.AllowPartial, MatchBatch degrades a failed
// group — a repository's storage shard — to a missing result slice and
// reports the cause here instead of failing the whole batch.
type ShardError struct {
	// Shard is the failed group's index into the groups slice.
	Shard int
	// Err is the first failure observed in the group.
	Err error
}

func (e ShardError) Error() string { return fmt.Sprintf("core: shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e ShardError) Unwrap() error { return e.Err }

// MatchBatch matches one incoming schema against groups of candidate
// schemas in a single scheduled batch — the repository-server
// workload, where a new schema is compared against every stored one.
// It is the one batch entry point: a plain candidate list is one
// group, a sharded store passes one group per storage shard. The
// caller hands in every schema's analysis — the incoming index and one
// index per candidate — so where analyses come from and how long they
// live is the caller's business; each index's schema must be valid
// (schema.Validate), which the caller checks before analyzing it,
// since enumerating an invalid schema's paths need not terminate.
// Pairs match through mctx (nil means a zero-value context). The
// result has one slice per group, index-aligned with the group's
// candidates, each entry bit-identical to Match(mctx, incoming,
// candidate, cfg), except that Cube is nil unless
// BatchOptions.KeepCubes and that slots cut by TopK or skipped by
// bound pruning are nil.
//
// Compared to a loop of Match calls, the batch:
//
//   - shares one incoming analysis across all pairs;
//   - schedules all pairs over one shared worker budget of
//     Config.Workers slots (a non-zero value overrides the context's
//     bound): pair-level workers claim pairs from a shared queue, and
//     the row-parallel fills inside each matcher steal whatever budget
//     the other pairs leave idle — so many small pairs saturate the
//     budget as well as one big pair does;
//   - recycles the hot allocations (cube layers, token and leaf grids)
//     through one size-bucketed arena. Released storage never reaches
//     the caller: results hold only arena-free memory;
//   - memoizes scored distinct-name similarity columns across pairs:
//     the incoming side is fixed, so a candidate name recurring across
//     the batch is scored against the incoming names once. When mctx
//     carries a persistent column cache (match.Context.Columns) the
//     columns go there, keyed by the incoming index, so later batches
//     with the same incoming analysis find them warm; otherwise they die
//     with the batch.
//
// Groups exist for graceful degradation only: with
// BatchOptions.AllowPartial, a group with a failing pair is dropped —
// nil slice plus a ShardError, ordered by group index — while the
// other groups complete; without it the first pair error aborts the
// batch. TopK applies per group; callers merging groups cut the merged
// ranking to TopK again (the global top K is a subset of the per-group
// ones).
//
// bounds, when non-nil, holds one admissible upper bound on the
// combined schema similarity per candidate, index-aligned with groups
// (typically from a candidates.Index), and requires TopK > 0; nil
// matches every pair. With bounds, pairs run in descending bound order
// and a pair whose bound falls strictly below the running k-th best
// real score is skipped: its real score is below k results the
// exhaustive scan ranks above it, so it can never enter the merged
// TopK. Two sentinel bounds steer scheduling: +Inf forces a pair to be
// matched, and -Inf excludes it without matching (MaxCandidates
// shortlisting — the only bound value that can make results deviate
// from the exhaustive scan). Without AllowPartial the skip threshold
// is global, which is what lets pruning work when the strong
// candidates are spread thinly across many groups; the per-group slices
// may then retain slightly different tails than the exhaustive scan,
// but never drop or add a candidate of the merged TopK. With
// AllowPartial each group tracks its own threshold, so a failed
// group's scores never prune a surviving group. PruneStats reports the
// work done and saved.
//
// Cancellation: once ctx is done (nil means context.Background), the
// workers stop claiming pairs, the row-parallel fills inside running
// pairs stop claiming rows, every pooled matrix is recycled, and the
// cancellation cause is returned — never a partial result.
func MatchBatch(ctx context.Context, mctx *match.Context, incoming *analysis.SchemaIndex, groups [][]*analysis.SchemaIndex, bounds [][]float64, cfg Config, opt BatchOptions) ([][]*Result, PruneStats, []ShardError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if mctx == nil {
		// Match accepts a nil context (throwaway per-request analyses);
		// keep the batch path consistent with a zero-value one.
		mctx = &match.Context{}
	}
	if len(cfg.Matchers) == 0 {
		return nil, PruneStats{}, nil, fmt.Errorf("core: no matchers configured")
	}
	if bounds != nil {
		if opt.TopK <= 0 {
			return nil, PruneStats{}, nil, fmt.Errorf("core: bounded batch requires TopK > 0")
		}
		if len(bounds) != len(groups) {
			return nil, PruneStats{}, nil, fmt.Errorf("core: %d bound groups for %d candidate groups", len(bounds), len(groups))
		}
	}

	type pair struct {
		group, cand int
		bound       float64
	}
	var stats PruneStats
	var pairs []pair
	results := make([][]*Result, len(groups))
	for gi, g := range groups {
		if bounds != nil && len(bounds[gi]) != len(g) {
			return nil, PruneStats{}, nil, fmt.Errorf("core: group %d has %d bounds for %d candidates", gi, len(bounds[gi]), len(g))
		}
		for ci := range g {
			b := math.Inf(1)
			if bounds != nil {
				b = bounds[gi][ci]
			}
			if math.IsInf(b, -1) {
				stats.Skipped++
				continue
			}
			pairs = append(pairs, pair{gi, ci, b})
		}
		results[gi] = make([]*Result, len(g))
		stats.Candidates += len(g)
	}
	if ctx.Err() != nil {
		return nil, PruneStats{}, nil, context.Cause(ctx)
	}
	if len(pairs) == 0 {
		return results, stats, nil, nil
	}
	// Descending bound order: the pairs most likely to populate the top
	// K run first, raising the threshold as early as possible. Within
	// one group the order is descending too, so the first skipped pair
	// proves every later pair of that group skippable — the group is
	// "cut" and its tail drains at counter speed.
	var thetas []thetaTracker
	if bounds != nil {
		sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].bound > pairs[b].bound })
		trackers := 1
		if opt.AllowPartial {
			trackers = len(groups)
		}
		thetas = make([]thetaTracker, trackers)
		for i := range thetas {
			thetas[i].init(opt.TopK)
		}
	}
	thetaOf := func(group int) *thetaTracker {
		if len(thetas) == 1 {
			return &thetas[0]
		}
		return &thetas[group]
	}

	// One worker budget for the whole batch, observing the request
	// context; cfg.Workers overrides the context's bound when non-zero.
	bctx := mctx
	if cfg.Workers != 0 {
		bctx = bctx.WithWorkers(cfg.Workers)
	}
	bctx = bctx.WithWorkerBudget().WithCancel(ctx)
	var cache *match.BatchCache
	if cc := bctx.Columns; cc != nil {
		cache = cc.ForIncoming(incoming)
	} else {
		cache = match.NewBatchCache()
	}
	arena := simcube.NewArena()

	errs := newBatchErrs(len(groups))
	groupCut := make([]atomic.Bool, len(groups))
	var matched, skipped atomic.Int64
	var next atomic.Int64
	work := func() {
		for {
			if ctx.Err() != nil || errs.failed() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(pairs) {
				return
			}
			p := pairs[i]
			if errs.groupDown[p.group].Load() {
				continue
			}
			if thetas != nil {
				if groupCut[p.group].Load() {
					skipped.Add(1)
					continue
				}
				if p.bound < thetaOf(p.group).theta() {
					// Safe skip: real <= bound < theta <= the final k-th
					// best score this tracker covers, strictly — the merged
					// TopK cut would drop this pair too, even on ties. The
					// cut latch stays per group: within one group pairs
					// arrive in descending bound order, and theta only
					// rises, so the first skip proves the group's tail
					// skippable.
					groupCut[p.group].Store(true)
					skipped.Add(1)
					continue
				}
			}
			res, err := matchPair(bctx, incoming, groups[p.group][p.cand], cfg, arena, cache, opt.KeepCubes)
			if err != nil {
				if opt.AllowPartial && ctx.Err() == nil {
					errs.failGroup(p.group, err)
					continue
				}
				errs.fail(err)
				return
			}
			results[p.group][p.cand] = res
			matched.Add(1)
			if thetas != nil {
				thetaOf(p.group).push(res.SchemaSim)
			}
		}
	}
	runPairWorkers(bctx, len(pairs), work)
	if ctx.Err() != nil {
		return nil, PruneStats{}, nil, context.Cause(ctx)
	}
	firstErr, groupErrs := errs.finish()
	if firstErr != nil {
		return nil, PruneStats{}, nil, firstErr
	}
	// A degraded group surfaces as a nil result slice plus a
	// ShardError; its completed pairs are dropped with it — a group
	// either contributes its full (TopK-cut) ranking or nothing.
	for _, ge := range groupErrs {
		results[ge.Shard] = nil
	}
	if opt.TopK > 0 {
		for _, rs := range results {
			pruneToTopK(rs, opt.TopK)
		}
	}
	stats.Matched = int(matched.Load())
	stats.Skipped += int(skipped.Load())
	return results, stats, groupErrs, nil
}

// batchErrs collects a batch's failures: the first fatal error, plus
// per-group failure latches for graceful degradation (a failed group's
// remaining pairs are skipped, not matched into a result the caller
// will drop anyway).
type batchErrs struct {
	mu        sync.Mutex
	firstErr  error
	groupErrs []ShardError
	groupDown []atomic.Bool
}

func newBatchErrs(groups int) *batchErrs {
	return &batchErrs{groupDown: make([]atomic.Bool, groups)}
}

func (be *batchErrs) fail(err error) {
	be.mu.Lock()
	if be.firstErr == nil {
		be.firstErr = err
	}
	be.mu.Unlock()
}

func (be *batchErrs) failed() bool {
	be.mu.Lock()
	defer be.mu.Unlock()
	return be.firstErr != nil
}

func (be *batchErrs) failGroup(gi int, err error) {
	if be.groupDown[gi].Swap(true) {
		return
	}
	be.mu.Lock()
	be.groupErrs = append(be.groupErrs, ShardError{Shard: gi, Err: err})
	be.mu.Unlock()
}

// finish returns the first fatal error, or the group errors ordered by
// group index. Only call after all workers have returned.
func (be *batchErrs) finish() (error, []ShardError) {
	if be.firstErr != nil {
		return be.firstErr, nil
	}
	sort.Slice(be.groupErrs, func(a, b int) bool { return be.groupErrs[a].Shard < be.groupErrs[b].Shard })
	return nil, be.groupErrs
}

// runPairWorkers drives a work loop over the batch's worker budget:
// each pair worker owns one budget slot and claims pairs from the
// loop's shared counter, the main goroutine serving as one of the
// workers. The matchers inside a pair run sequentially on that slot,
// their row-parallel fills opportunistically taking any slots the
// other pair workers do not occupy.
func runPairWorkers(budget *match.Context, pairs int, work func()) {
	pairWorkers := match.ResolveWorkers(budget.Workers)
	if pairWorkers > pairs {
		pairWorkers = pairs
	}
	if pairWorkers <= 1 {
		budget.AcquireWorker()
		work()
		budget.ReleaseWorker()
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < pairWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			budget.AcquireWorker()
			defer budget.ReleaseWorker()
			work()
		}()
	}
	budget.AcquireWorker()
	work()
	budget.ReleaseWorker()
	wg.Wait()
}

// matchPair runs one pair of the batch: matcher execution over the
// shared incoming index and the pair's candidate index, combination,
// and — unless the cube is kept — recycling of the cube layers into
// the batch arena at cube→mapping extraction. Aggregated matrices and
// mappings are always arena-free, so a returned Result never aliases
// pooled storage.
func matchPair(ctx *match.Context, idx1, idx2 *analysis.SchemaIndex, cfg Config, arena *simcube.Arena, cache *match.BatchCache, keepCube bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s1, s2 := idx1.Schema, idx2.Schema
	pctx := ctx.WithIndexes(idx1, idx2).WithArena(arena).WithBatchCache(cache)
	cube := simcube.NewCube(idx1.Keys, idx2.Keys)
	for _, m := range cfg.Matchers {
		// Cancellation is re-checked per matcher: a canceled context
		// leaves the current fill within a row per worker (ParallelRows
		// stops claiming), and the partial layer plus the cube's earlier
		// layers are recycled before surfacing the cause.
		if err := pctx.Err(); err != nil {
			cube.ReleaseTo(arena)
			return nil, err
		}
		layer := m.Match(pctx, s1, s2)
		if err := pctx.Err(); err != nil {
			layer.ReleaseTo(arena)
			cube.ReleaseTo(arena)
			return nil, err
		}
		if err := cube.AddLayer(m.Name(), layer); err != nil {
			layer.ReleaseTo(arena)
			cube.ReleaseTo(arena)
			return nil, err
		}
	}
	res, err := CombineCube(cube, s1, s2, cfg.Strategy, cfg.Feedback)
	if err != nil {
		cube.ReleaseTo(arena)
		return nil, err
	}
	if !keepCube {
		cube.ReleaseTo(arena)
		res.Cube = nil
	}
	return res, nil
}

// pruneToTopK nils out every non-nil result not among the k best by
// combined schema similarity; ties break toward the earlier candidate,
// so the retained set is deterministic. Slots already nil (skipped by
// bound pruning) stay nil.
func pruneToTopK(results []*Result, k int) {
	var order []int
	for i, r := range results {
		if r != nil {
			order = append(order, i)
		}
	}
	if len(order) <= k {
		return
	}
	sort.SliceStable(order, func(a, b int) bool {
		return results[order[a]].SchemaSim > results[order[b]].SchemaSim
	})
	for _, i := range order[k:] {
		results[i] = nil
	}
}
