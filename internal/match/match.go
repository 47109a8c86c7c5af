// Package match implements COMA's extensible matcher library
// (Do & Rahm, VLDB 2002, Section 4, Table 3): the simple matchers
// Affix, n-gram, EditDistance, Soundex, Synonym, DataType and
// UserFeedback; the hybrid element-level matchers Name and TypeName;
// and the hybrid structural matchers NamePath, Children and Leaves.
//
// Every matcher computes an intermediate match result: a similarity
// value between 0 and 1 for each combination of S1 and S2 schema
// elements, where elements are identified by their paths. Executing k
// matchers yields the k × m × n similarity cube processed by package
// combine.
//
// Matchers do not analyze schemas themselves: the per-schema facts
// they consume (path enumerations, name profiles, dictionary
// hit-sets, type classes) live in an analysis.SchemaIndex obtained
// through Context.Index — built once per schema and shared by every
// matcher, every repeated match on the same schema, and the
// evaluation harness.
//
// The element pairs of a matrix are independent, so matchers fill
// their matrices row-parallel; Context.Workers bounds the per-matcher
// parallelism. All similarity values are pure functions of their
// inputs, so the worker count never changes a result — only how fast
// it arrives.
package match

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/simcube"
)

// Context carries the auxiliary information sources shared by matcher
// executions: the synonym/abbreviation dictionary, the data type
// compatibility table, and an optional concept taxonomy. A nil field
// disables the respective source.
type Context struct {
	Dict     *dict.Dictionary
	Types    *dict.TypeTable
	Taxonomy *dict.Taxonomy
	// Workers bounds the parallelism of matrix fills inside a single
	// matcher execution. 0 means runtime.NumCPU(); 1 forces a
	// sequential fill. The auxiliary sources must not be mutated while
	// a match runs.
	Workers int
	// Analyzer caches one analysis.SchemaIndex per schema for this
	// context's auxiliary sources; NewContext installs one, so
	// repeated matches through the same context analyze each schema
	// exactly once. A zero-value Context (nil Analyzer) builds a
	// throwaway index per request instead.
	Analyzer *analysis.Analyzer
	// Columns, when set, is the engine-scoped persistent column cache:
	// distinct-name similarity columns survive across batches and
	// repeated single matches on the same incoming index. The batch
	// scheduler and the single-match path persist columns exactly when
	// it is set, so a caller matching a short-lived incoming schema
	// clears it. Nil (the default) keeps column reuse per batch only.
	Columns *ColumnCache
	// idx1, idx2 are the indexes of the current match's two schemas,
	// installed by the engine (WithIndexes) so every matcher of one
	// execution shares them without consulting the analyzer cache.
	idx1, idx2 *analysis.SchemaIndex
	// sem, when set (WithWorkerBudget), is a budget shared by every
	// matcher executing under this context: row-fill helpers take
	// extra workers only while slots remain, so concurrent matchers
	// cannot multiply the bound.
	sem chan struct{}
	// arena, when set (WithArena), recycles the float64 backing
	// storage of the matchers' matrices and similarity grids. The
	// batch scheduler installs one arena per batch; without
	// one every acquisition is a plain allocation.
	arena *simcube.Arena
	// batch, when set (WithBatchCache), memoizes distinct-name
	// similarity columns across the pairs of one batch: the
	// incoming side of every pair is the same schema, so a candidate
	// name seen again (same name in another candidate, or a later
	// batch round) reuses its scored column instead of re-running the
	// token-grid combination.
	batch *BatchCache
	// cancel, when set (WithCancel), is the cancellation source the
	// engine observes cooperatively: row-claim loops of parallel fills
	// and the schedulers' pair-claim loops stop once it is canceled,
	// so a dead request stops burning workers mid-matrix. done caches
	// its Done channel for cheap non-blocking checks on hot paths.
	cancel context.Context
	done   <-chan struct{}
}

// NewContext returns a context with the default dictionary, type
// compatibility table and purchase-order taxonomy used by the paper's
// evaluation and its extensions, plus a fresh per-schema analysis
// cache.
func NewContext() *Context {
	return &Context{
		Dict:     dict.Default(),
		Types:    dict.DefaultTypeTable(),
		Taxonomy: dict.DefaultTaxonomy(),
		Analyzer: analysis.NewAnalyzer(),
	}
}

// WithWorkers returns a shallow copy of the context with the worker
// bound replaced (0 restores the NumCPU default). The analysis cache
// and any installed indexes are shared with the original.
func (c *Context) WithWorkers(n int) *Context {
	out := &Context{}
	if c != nil {
		*out = *c
	}
	out.Workers = n
	return out
}

// WithIndexes returns a shallow copy of the context with the current
// match's two schema indexes installed; Index returns them without
// consulting the analyzer cache. The engine calls this once per match
// operation so all k matchers share the same analyses.
func (c *Context) WithIndexes(i1, i2 *analysis.SchemaIndex) *Context {
	out := &Context{}
	if c != nil {
		*out = *c
	}
	out.idx1, out.idx2 = i1, i2
	return out
}

// WithArena returns a shallow copy of the context whose matrix and
// grid acquisitions draw on the arena. Matchers release their
// intermediate grids back to it at the end of every Match; output
// matrices stay live until their owner (the batch scheduler) releases
// the cube at mapping extraction. A nil arena restores plain
// allocation.
func (c *Context) WithArena(a *simcube.Arena) *Context {
	out := &Context{}
	if c != nil {
		*out = *c
	}
	out.arena = a
	return out
}

// Arena returns the installed recycling arena, nil when allocations
// are unpooled. A nil arena is safe to use directly: simcube's
// acquisition helpers fall back to plain allocation on it.
func (c *Context) Arena() *simcube.Arena {
	if c == nil {
		return nil
	}
	return c.arena
}

// newMatrix acquires a zeroed matrix over the key sets, pooled when
// the context carries an arena. Matchers build their output matrices
// (the cube layers) through this helper so one batch recycles layer
// storage across pairs.
func (c *Context) newMatrix(rowKeys, colKeys []string) *simcube.Matrix {
	return simcube.NewMatrixIn(c.Arena(), rowKeys, colKeys)
}

// acquireGrid returns a zeroed scratch grid of n floats, pooled when
// the context carries an arena; release with releaseGrid once nothing
// reads it anymore.
func (c *Context) acquireGrid(n int) []float64 { return c.Arena().AcquireFloats(n) }

// releaseGrid recycles a grid obtained from acquireGrid.
func (c *Context) releaseGrid(g []float64) { c.Arena().ReleaseFloats(g) }

// BatchCache memoizes scored distinct-name similarity columns across
// the pairs sharing one incoming schema analysis. The column of
// similarities between every incoming distinct name and one candidate
// name is a pure function of (matcher configuration, incoming index,
// candidate name, auxiliary sources) — two candidates (or two batch
// rounds, or two batches over the same retained incoming index)
// sharing a name share the column. Safe for concurrent use; a column
// raced by two pairs is computed twice with identical values and
// stored once.
//
// The cache must not outlive its incoming schema analysis, matcher
// configuration or sources. Two lifetimes satisfy that: the batch
// scheduler creates one per batch for a transient incoming
// schema and drops it with the batch, and ColumnCache keys one per
// retained incoming index — whose immutability freezes the incoming
// names and source versions — dropping it when the index goes stale.
type BatchCache struct {
	mu   sync.RWMutex
	cols map[batchKey][]float64
	// limit, when positive, flushes the whole column map when it grows
	// past limit entries — the backstop that keeps a persistent
	// (engine-scoped) cache bounded when the candidate name population
	// churns without end (stored schemas replaced at request rate).
	// Per-batch caches are naturally bounded by the batch and carry no
	// limit.
	limit int
	// stats, when non-nil, receives hit/miss/flush counts. Persistent
	// caches share their owning ColumnCache's counters; per-batch caches
	// leave it nil (nil-safe methods) so the transient path pays
	// nothing.
	stats *colCacheCounters
}

// colCacheCounters accumulates column-cache traffic across every
// BatchCache one ColumnCache hands out. Atomic so the column fast path
// stays lock-free.
type colCacheCounters struct {
	hits    atomic.Uint64
	misses  atomic.Uint64
	flushes atomic.Uint64
}

func (c *colCacheCounters) hit() {
	if c != nil {
		c.hits.Add(1)
	}
}

func (c *colCacheCounters) miss() {
	if c != nil {
		c.misses.Add(1)
	}
}

func (c *colCacheCounters) flush() {
	if c != nil {
		c.flushes.Add(1)
	}
}

// batchKey identifies one cached column: the scoring matcher identity
// (a configuration value for library-built matchers, so the identical
// Name matchers embedded in TypeName/Children/Leaves share columns; an
// instance pointer for custom ones), the incoming row set the column
// spans (full distinct names vs. the leaf-occurring subset), and the
// candidate-side name.
type batchKey struct {
	owner any
	set   int8
	name  string
}

// Row-set discriminators for batchKey.set.
const (
	gridFull int8 = iota // columns over all incoming distinct names
	gridLeaf             // columns over the leaf-occurring subset
)

// NewBatchCache returns an empty per-batch column cache.
func NewBatchCache() *BatchCache {
	return &BatchCache{cols: make(map[batchKey][]float64)}
}

// column returns the cached column for key, computing and storing it
// on first use. compute must fill exactly n values; the returned slice
// is shared and must not be modified.
func (bc *BatchCache) column(owner any, set int8, name string, n int, compute func(col []float64)) []float64 {
	key := batchKey{owner: owner, set: set, name: name}
	bc.mu.RLock()
	col := bc.cols[key]
	bc.mu.RUnlock()
	if col != nil {
		bc.stats.hit()
		return col
	}
	// Columns live across pairs, so they come from the garbage
	// collector, never from a per-batch arena. A lost store race still
	// computed the column, so it counts as a miss either way.
	bc.stats.miss()
	col = make([]float64, n)
	compute(col)
	bc.mu.Lock()
	if prev := bc.cols[key]; prev != nil {
		col = prev
	} else {
		if bc.limit > 0 && len(bc.cols) >= bc.limit {
			// Epoch flush: cheaper and simpler than tracking per-column
			// recency, and correct — every column is recomputable.
			clear(bc.cols)
			bc.stats.flush()
		}
		bc.cols[key] = col
	}
	bc.mu.Unlock()
	return col
}

// WithBatchCache returns a shallow copy of the context with a
// per-batch column cache installed (nil uninstalls). The cache is only
// valid while the incoming schema, matcher set and auxiliary sources
// stay fixed — the batch scheduler's contract.
func (c *Context) WithBatchCache(bc *BatchCache) *Context {
	out := &Context{}
	if c != nil {
		*out = *c
	}
	out.batch = bc
	return out
}

// batchCache returns the installed per-batch cache, nil outside a
// batch.
func (c *Context) batchCache() *BatchCache {
	if c == nil {
		return nil
	}
	return c.batch
}

// WithCancel returns a shallow copy of the context that observes the
// given cancellation source: ParallelRows stops claiming rows and the
// batch schedulers stop claiming pairs once ctx is canceled. A nil ctx
// uninstalls cancellation. The Done channel is cached so hot-path
// checks cost one non-blocking channel read.
func (c *Context) WithCancel(ctx context.Context) *Context {
	out := &Context{}
	if c != nil {
		*out = *c
	}
	out.cancel = ctx
	out.done = nil
	if ctx != nil {
		out.done = ctx.Done()
	}
	return out
}

// Err reports why the context's cancellation source was canceled, nil
// while it is still live (or when none is installed). The check is
// non-blocking and allocation-free, so row loops can afford it per
// claim.
func (c *Context) Err() error {
	if c == nil || c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return context.Cause(c.cancel)
	default:
		return nil
	}
}

// stopped is Err without the cause lookup — the hot-path form.
func (c *Context) stopped() bool {
	if c == nil || c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Sources returns the analysis sources corresponding to the context's
// auxiliary information.
func (c *Context) Sources() analysis.Sources {
	if c == nil {
		return analysis.Sources{}
	}
	return analysis.Sources{Dict: c.Dict, Types: c.Types, Taxonomy: c.Taxonomy}
}

// Index returns the schema's analysis index: one of the installed
// per-match indexes when it fits, else the analyzer cache's entry
// (built on first use), else — on a zero-value context — a throwaway
// index. The result is never nil and always matches the context's
// current sources.
func (c *Context) Index(s *schema.Schema) *analysis.SchemaIndex {
	src := c.Sources()
	if c != nil {
		if c.idx1.Valid(s, src) {
			return c.idx1
		}
		if c.idx2.Valid(s, src) {
			return c.idx2
		}
		if c.Analyzer != nil {
			return c.Analyzer.Index(s, src)
		}
	}
	return analysis.NewIndex(s, src)
}

// WithWorkerBudget returns a copy of the context that enforces its
// worker bound as a total across every matcher executed under it: each
// running matcher occupies one budget slot (AcquireWorker), and
// row-parallel fills claim extra slots opportunistically. Without a
// budget, each matcher parallelizes up to the bound on its own.
func (c *Context) WithWorkerBudget() *Context {
	n := 0
	if c != nil {
		n = c.Workers
	}
	out := c.WithWorkers(n)
	out.sem = make(chan struct{}, out.workers())
	return out
}

// AcquireWorker takes one slot of the shared worker budget, blocking
// until one is free; a no-op without a budget.
func (c *Context) AcquireWorker() {
	if c != nil && c.sem != nil {
		c.sem <- struct{}{}
	}
}

// ReleaseWorker returns a slot taken by AcquireWorker or tryAcquire.
func (c *Context) ReleaseWorker() {
	if c != nil && c.sem != nil {
		<-c.sem
	}
}

// tryAcquire claims a budget slot without blocking; always true when
// no budget is installed.
func (c *Context) tryAcquire() bool {
	if c == nil || c.sem == nil {
		return true
	}
	select {
	case c.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// workers resolves the effective worker count.
func (c *Context) workers() int {
	if c == nil || c.Workers <= 0 {
		return runtime.NumCPU()
	}
	return c.Workers
}

// ResolveWorkers maps a worker knob to its effective count with the
// engine-wide semantics: n <= 0 means runtime.NumCPU(). Exported so
// other layers (the eval harness, commands) resolve the knob exactly
// like Context does.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// expand adapts the context's dictionary to strutil.TokenSet.
func (c *Context) expand(tok string) []string {
	if c == nil || c.Dict == nil {
		return nil
	}
	return c.Dict.Expand(tok)
}

// typeTable returns the context's type table, defaulting when unset.
var fallbackTypes = dict.DefaultTypeTable()

func (c *Context) typeTable() *dict.TypeTable {
	if c == nil || c.Types == nil {
		return fallbackTypes
	}
	return c.Types
}

// Matcher is a match algorithm: it determines a similarity matrix over
// the paths of two schemas. Implementations must be safe for concurrent
// use.
type Matcher interface {
	// Name identifies the matcher in cubes, configs and reports.
	Name() string
	// Match computes the similarity matrix whose rows are s1's paths
	// and whose columns are s2's paths, in Schema.Paths order.
	Match(ctx *Context, s1, s2 *schema.Schema) *simcube.Matrix
}

// Keys returns the matrix keys for a schema: its path strings in
// enumeration order. All matchers and the engine use this ordering.
func Keys(s *schema.Schema) []string {
	paths := s.Paths()
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = p.String()
	}
	return out
}

// ParallelRows invokes fn for every row in [0, n), distributing rows
// across the calling goroutine plus up to workers-1 extra goroutines
// (fewer when the context's shared worker budget is exhausted). Rows
// are claimed from a shared counter so uneven rows balance out. With
// one worker the loop runs inline. It is the single work-distribution
// primitive of the engine: the matchers, the instance and flooding
// extensions and the eval harness all draw their parallelism from it,
// bounded by the one Workers knob.
//
// When the context observes a cancellation source (WithCancel), each
// worker re-checks it before claiming the next row and stops claiming
// once it fires — a canceled request abandons its matrix within one
// row's worth of work per worker. Rows already claimed still complete,
// so a finished ParallelRows call never leaves a row half-written.
func ParallelRows(ctx *Context, n int, fn func(i int)) {
	extra := ctx.workers() - 1
	if extra > n-1 {
		extra = n - 1
	}
	var next atomic.Int64
	work := func() {
		for {
			if ctx.stopped() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	if extra <= 0 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		if !ctx.tryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ctx.ReleaseWorker()
			work()
		}()
	}
	work()
	wg.Wait()
}

// parallelRows is the package-internal spelling of ParallelRows.
func parallelRows(ctx *Context, n int, fn func(i int)) { ParallelRows(ctx, n, fn) }

// matchPaths fills a path × path matrix from a pairwise similarity
// function, row-parallel up to the context's worker bound. sim must be
// a pure function of its inputs (plus read-only context state).
func matchPaths(ctx *Context, s1, s2 *schema.Schema, sim func(p1, p2 schema.Path) float64) *simcube.Matrix {
	x1, x2 := ctx.Index(s1), ctx.Index(s2)
	p1, p2 := x1.Paths, x2.Paths
	m := ctx.newMatrix(x1.Keys, x2.Keys)
	parallelRows(ctx, len(p1), func(i int) {
		for j := range p2 {
			m.Set(i, j, sim(p1[i], p2[j]))
		}
	})
	return m
}
