// Package coma is a from-scratch Go implementation of COMA, the
// generic schema matching system of Do & Rahm (VLDB 2002): an
// extensible library of simple, hybrid and reuse-oriented matchers, a
// flexible framework for combining their results (aggregation,
// direction, selection, combined similarity), a repository for
// schemas, similarity cubes and match results, and the MatchCompose
// operation for reusing previous match results.
//
// Quick start:
//
//	s1, _ := coma.LoadSQL("PO1", ddl)
//	s2, _ := coma.LoadXSD("PO2", xsd)
//	res, _ := coma.Match(s1, s2)
//	for _, c := range res.Mapping.Correspondences() {
//		fmt.Println(c)
//	}
//
// Match runs the paper's default operation — the combination of all
// five hybrid matchers under (Average, Both,
// Threshold(0.5)+Delta(0.02)) — unless options select different
// matchers or strategies.
//
// Matcher execution is parallel by default: the k independent matchers
// run concurrently and each fills its similarity matrix row-parallel.
// WithWorkers bounds that parallelism (0 = runtime.NumCPU(), 1 = fully
// sequential); the result is bit-identical for every worker count,
// only the wall-clock time changes.
//
// Matching is two-phase: each schema is analyzed once into a shared
// per-schema index (path enumerations, tokenized and expanded name
// profiles, dictionary hit-sets, generic type classes) that all
// matchers read. An Engine caches these analyses across Match calls,
// so matching one schema against many others — the paper's reuse
// scenario — pays its analysis exactly once; see NewEngine and
// Engine.Analyze. For the repository-server shape of that scenario —
// one incoming schema against many stored candidates — Engine.MatchAll
// schedules the whole batch over one worker budget and recycles the
// per-pair matrices through pooled arenas.
//
// The repository (OpenRepository for a single file,
// OpenShardedRepository for a directory of shard logs; both return a
// ShardedRepository) stores schemas, similarity cubes and match
// results. It owns a match engine configured by the options it was
// opened with, analyzes each schema once when storing it, and runs the
// same batch against every stored schema in MatchIncoming; its
// SchemaMatcher and FragmentMatcher reuse the stored match results.
package coma

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/candidates"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/export"
	"repro/internal/flooding"
	"repro/internal/importer"
	"repro/internal/instance"
	"repro/internal/match"
	"repro/internal/repository"
	"repro/internal/schema"
	"repro/internal/simcube"
)

// Re-exported core types. The internal packages remain the
// implementation; these aliases are the public vocabulary.
type (
	// Schema is a rooted DAG of schema elements; see LoadSQL/LoadXSD.
	Schema = schema.Schema
	// Node is one schema element.
	Node = schema.Node
	// Path identifies an element by its containment chain.
	Path = schema.Path
	// Mapping is a match result: correspondences with similarities.
	Mapping = simcube.Mapping
	// Correspondence is one element correspondence of a mapping.
	Correspondence = simcube.Correspondence
	// Cube is the k×m×n similarity cube of a matcher execution phase.
	Cube = simcube.Cube
	// Matrix is an aggregated similarity matrix.
	Matrix = simcube.Matrix
	// Strategy is the combination strategy tuple
	// (aggregation, direction, selection, combined similarity).
	Strategy = combine.Strategy
	// Selection is a match candidate selection criterion set.
	Selection = combine.Selection
	// Result is the outcome of a match operation.
	Result = core.Result
	// Matcher is a match algorithm over two schemas.
	Matcher = match.Matcher
	// Feedback records user-asserted matches and mismatches.
	Feedback = match.Feedback
	// Dictionary is the synonym/abbreviation auxiliary source.
	Dictionary = dict.Dictionary
	// ShardError reports one shard's failure in a partial sharded
	// match (see AllowPartial).
	ShardError = core.ShardError
)

// Direction constants for Strategy.Dir.
const (
	Both       = combine.Both
	LargeSmall = combine.LargeSmall
	SmallLarge = combine.SmallLarge
)

// Aggregation constructors for Strategy.Agg.
var (
	Average = combine.AggSpec{Kind: combine.Average}
	Max     = combine.AggSpec{Kind: combine.Max}
	Min     = combine.AggSpec{Kind: combine.Min}
)

// Weighted returns a weighted aggregation with one weight per matcher.
func Weighted(weights ...float64) combine.AggSpec {
	return combine.AggSpec{Kind: combine.Weighted, Weights: weights}
}

// DefaultStrategy returns the evaluation's best default combination
// strategy: (Average, Both, Threshold(0.5)+Delta(0.02), Average).
func DefaultStrategy() Strategy { return combine.Default() }

// LoadSQL imports a relational schema from CREATE TABLE statements.
func LoadSQL(name, ddl string) (*Schema, error) { return importer.ParseSQL(name, ddl) }

// LoadXSD imports an XML schema from an XSD document.
func LoadXSD(name string, src []byte) (*Schema, error) { return importer.ParseXSD(name, src) }

// LoadJSONSchema imports a JSON Schema document (properties become
// containment children; $ref definitions become shared fragments).
func LoadJSONSchema(name string, src []byte) (*Schema, error) {
	return importer.ParseJSONSchema(name, src)
}

// LoadDTD imports a Document Type Definition (elements referenced from
// several content models become shared fragments; attributes become
// leaves).
func LoadDTD(name string, src []byte) (*Schema, error) {
	return importer.ParseDTD(name, src)
}

// LoadFile imports a schema file, choosing the importer by extension —
// .sql/.ddl (CREATE TABLE statements), .xsd/.xml (XML schema), .json
// (JSON Schema), .dtd — and naming the schema after the file's base
// name. Files importing to an empty schema (no element paths — e.g. a
// DDL file without CREATE TABLE statements) are rejected: an empty
// schema can neither be matched nor stored as a match candidate. It is
// the loader shared by the command-line tools and the server's inline
// schema import.
func LoadFile(path string) (*Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	s, err := importer.ParseAs(name, filepath.Ext(path), data)
	if err != nil {
		return nil, fmt.Errorf("coma: %s: %w", path, err)
	}
	return s, nil
}

// Instances holds sample data values per schema element path, feeding
// the instance-level matcher.
type Instances = instance.Instances

// NewInstances returns an empty sample set for the named schema.
func NewInstances(schemaName string) *Instances { return instance.NewInstances(schemaName) }

// NewInstanceMatcher returns the instance-level matcher: element
// similarity from the statistical resemblance of the elements' value
// samples (value patterns, character classes, lengths, numeric shares).
// Use WithMatcherInstances to combine it with schema-level matchers.
func NewInstanceMatcher(left, right *Instances) Matcher {
	return instance.NewMatcher(left, right)
}

// Options configure a match operation.
type Options struct {
	matchers []Matcher
	strategy Strategy
	ctx      *match.Context
	feedback *Feedback
	workers  int
	// persistCols installs the engine-scoped persistent column cache.
	persistCols bool
	// candIdx is the candidate-pruning inverted index installed by
	// WithCandidateIndex (nil = exhaustive repository matching).
	candIdx *candidates.Index
	// syncPolicy selects repository log durability (fsync cadence);
	// the zero value is SyncAlways.
	syncPolicy repository.SyncPolicy
	// pageCache bounds each repository's page buffer pool, in pages
	// (0 = the storage engine's default).
	pageCache int
}

// Option adjusts match options.
type Option func(*Options) error

// WithMatchers selects matchers by library name (e.g. "NamePath",
// "Leaves", "Flooding").
func WithMatchers(names ...string) Option {
	return func(o *Options) error {
		ms, err := Library().NewSet(names...)
		if err != nil {
			return err
		}
		o.matchers = ms
		return nil
	}
}

// WithMatcherInstances selects explicit matcher instances, e.g. a
// repository-backed Schema reuse matcher.
func WithMatcherInstances(ms ...Matcher) Option {
	return func(o *Options) error {
		if len(ms) == 0 {
			return fmt.Errorf("coma: empty matcher list")
		}
		o.matchers = ms
		return nil
	}
}

// WithStrategy replaces the default combination strategy.
func WithStrategy(s Strategy) Option {
	return func(o *Options) error {
		o.strategy = s
		return nil
	}
}

// WithDictionary replaces the default synonym/abbreviation dictionary.
func WithDictionary(d *Dictionary) Option {
	return func(o *Options) error {
		o.ctx.Dict = d
		return nil
	}
}

// WithDictionaryFile loads additional dictionary entries (syn/hyp/abb
// lines) into the context's dictionary.
func WithDictionaryFile(r io.Reader) Option {
	return func(o *Options) error {
		return o.ctx.Dict.Load(r)
	}
}

// WithFeedback supplies user feedback whose assertions are pinned into
// the result.
func WithFeedback(f *Feedback) Option {
	return func(o *Options) error {
		o.feedback = f
		return nil
	}
}

// WithWorkers bounds the parallelism of the matcher execution phase:
// matchers run concurrently and each fills its matrix row-parallel
// using up to n workers. 0 (the default) means runtime.NumCPU(); 1
// forces fully sequential execution. Results are bit-identical for
// every worker count.
func WithWorkers(n int) Option {
	return func(o *Options) error {
		if n < 0 {
			return fmt.Errorf("coma: negative worker count %d", n)
		}
		o.workers = n
		return nil
	}
}

// WithAnalyzerLimit is a no-op kept so existing option lists still
// compile.
//
// Deprecated: the engine's analysis cache needs no bound. A store's
// analyses live exactly as long as its schemas, and schemas matched
// inline are analyzed per batch and never cached.
func WithAnalyzerLimit(n int) Option {
	return func(*Options) error { return nil }
}

// WithPersistentColumnCache promotes the batch scheduler's per-batch
// distinct-name column cache to engine scope: scored similarity
// columns survive across MatchAll batches and repeated single Matches
// whose incoming schema the engine caches (stored, matched with Match,
// or front-loaded with Engine.Analyze), so repeated matching against a
// stable store stops re-scoring name columns per batch. Results are bit-identical —
// column values are pure functions of the name pair, the incoming
// analysis and the auxiliary sources, and the cache self-invalidates
// when any of them change. comaserve enables it by default.
func WithPersistentColumnCache() Option {
	return func(o *Options) error {
		o.persistCols = true
		return nil
	}
}

func buildOptions(opts []Option) (*Options, error) {
	o := &Options{
		strategy: combine.Default(),
		ctx:      match.NewContext(),
	}
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	if o.matchers == nil {
		o.matchers = core.DefaultConfig().Matchers
	}
	if o.persistCols {
		o.ctx.Columns = match.NewColumnCache(0)
	}
	return o, nil
}

// Match performs one automatic match operation on two schemas. Every
// call analyzes the schemas afresh; use an Engine (or a Session) to
// amortize schema analysis across repeated matches.
func Match(s1, s2 *Schema, opts ...Option) (*Result, error) {
	e, err := NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	return e.Match(s1, s2)
}

// Engine is a reusable match engine: it carries the matcher context
// (auxiliary sources, strategy, worker bound) and a per-schema
// analysis cache across Match calls. A schema matched repeatedly —
// the paper's reuse scenario, where an incoming schema is compared
// against every schema of a repository — is analyzed exactly once,
// instead of once per Match as with the package-level function.
//
// An Engine is safe for concurrent use as long as its options are not
// mutated after construction (the matchers hold no per-match state and
// the analysis cache is synchronized); concurrent Match calls on the
// same schemas share one analysis.
type Engine struct {
	o *Options
}

// NewEngine builds a reusable engine from the same options Match
// accepts.
func NewEngine(opts ...Option) (*Engine, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Engine{o: o}, nil
}

// Analyze precomputes the engine's analysis index for a schema (path
// enumerations, name profiles, dictionary hit-sets, type classes) and
// caches it until Release, so that later matches with the schema on
// either side find it warm. Engine.Match caches both of its schemas
// the same way, and MatchAll its candidates, but a MatchAll incoming
// schema is analyzed for its batch only unless Analyze'd; do not call
// Analyze per request on throwaway schemas, since nothing evicts them.
// A ShardedRepository analyzes its stored schemas itself. Call
// Invalidate after structurally modifying a schema.
func (e *Engine) Analyze(s *Schema) {
	e.o.ctx.Index(s)
}

// Release forgets a schema: its cached analysis and any persistent
// similarity columns scored against it leave the engine, so later
// batches with it as the incoming side analyze it afresh and keep
// nothing.
func (e *Engine) Release(s *Schema) {
	e.o.ctx.Analyzer.Remove(s)
	if cc := e.o.ctx.Columns; cc != nil {
		cc.Invalidate(s)
	}
}

// Invalidate drops the engine's cached analysis of a schema (or of
// all schemas when s is nil), along with any persistent similarity
// columns scored against that analysis. The schema stays cached: its
// next use rebuilds the analysis in place.
func (e *Engine) Invalidate(s *Schema) {
	e.o.ctx.Analyzer.Invalidate(s)
	if cc := e.o.ctx.Columns; cc != nil {
		cc.Invalidate(s)
	}
}

// CachedAnalyses returns the number of schema analyses the engine
// currently caches. For a ShardedRepository's engine that is the
// number of stored schemas (less any Invalidate emptied and no match
// has rebuilt yet): serving tests assert with it that inline schemas
// never enter the cache.
func (e *Engine) CachedAnalyses() int { return e.o.ctx.Analyzer.Len() }

// AnalyzerCacheStats is a snapshot of an engine's analysis cache:
// cumulative hits, misses (index builds) and invalidations, plus the
// current entry count.
type AnalyzerCacheStats = analysis.AnalyzerStats

// AnalyzerCacheStats returns the engine's analysis-cache counters.
func (e *Engine) AnalyzerCacheStats() AnalyzerCacheStats { return e.o.ctx.Analyzer.Stats() }

// ColumnCacheStats is a snapshot of an engine's persistent column
// cache: cumulative column hits, misses and flushes, plus the number
// of incoming indexes currently holding columns.
type ColumnCacheStats = match.ColumnCacheStats

// ColumnCacheStats returns the engine's persistent column-cache
// counters; ok is false without WithPersistentColumnCache (per-batch
// column reuse is untracked — it dies with each batch).
func (e *Engine) ColumnCacheStats() (st ColumnCacheStats, ok bool) {
	if cc := e.o.ctx.Columns; cc != nil {
		return cc.Stats(), true
	}
	return ColumnCacheStats{}, false
}

// Match performs one automatic match operation with the engine's
// configuration, reusing cached schema analyses.
func (e *Engine) Match(s1, s2 *Schema) (*Result, error) {
	return core.Match(e.o.ctx, s1, s2, e.config())
}

// MatchContext is Match under a request context: once ctx is done, the
// matcher execution stops cooperatively (row fills stop claiming rows
// within one row per worker), pooled intermediates are recycled, and
// the cancellation cause is returned instead of a result. A nil or
// never-canceled ctx behaves exactly like Match — results are
// bit-identical.
func (e *Engine) MatchContext(ctx context.Context, s1, s2 *Schema) (*Result, error) {
	mctx := e.o.ctx
	if ctx != nil {
		mctx = mctx.WithCancel(ctx)
	}
	return core.Match(mctx, s1, s2, e.config())
}

// config assembles the engine's per-iteration core configuration.
func (e *Engine) config() core.Config {
	return core.Config{
		Matchers: e.o.matchers,
		Strategy: e.o.strategy,
		Feedback: e.o.feedback,
		Workers:  e.o.workers,
	}
}

// matchAllOptions collects the per-batch knobs of MatchAll.
type matchAllOptions struct {
	topK         int
	keepCubes    bool
	allowPartial bool
	// maxCandidates caps a pruned repository batch at the n best-bounded
	// candidates; exhaustive bypasses the candidate index entirely.
	maxCandidates int
	exhaustive    bool
}

// MatchAllOption adjusts one MatchAll batch.
type MatchAllOption func(*matchAllOptions) error

// TopK retains only the n best candidates of a MatchAll batch, ranked
// by combined schema similarity; the other slots of the result slice
// are nil and retain no matrices or mappings. It is the serving-side
// tail cutter: a repository front-end answering "which stored schemas
// resemble this one?" keeps the shortlist, not all k full results.
func TopK(n int) MatchAllOption {
	return func(o *matchAllOptions) error {
		if n <= 0 {
			return fmt.Errorf("coma: non-positive TopK %d", n)
		}
		o.topK = n
		return nil
	}
}

// KeepCubes makes MatchAll retain each result's similarity cube (for
// repository persistence or later re-combination). By default the
// batch recycles cube layers once the mapping is extracted and returns
// results with a nil Cube.
func KeepCubes() MatchAllOption {
	return func(o *matchAllOptions) error {
		o.keepCubes = true
		return nil
	}
}

// AllowPartial opts ShardedRepository.MatchIncoming into graceful
// degradation: a storage shard with a candidate that fails to match is
// dropped from the merged ranking and reported as a ShardError instead
// of failing the whole request. A single-file store has one shard, so
// such a failure leaves its ranking empty with one ShardError.
// Engine.MatchAll has nothing to degrade and ignores the option;
// cancellation of the request context always aborts the whole match.
func AllowPartial() MatchAllOption {
	return func(o *matchAllOptions) error {
		o.allowPartial = true
		return nil
	}
}

// MatchAll matches one incoming schema against many candidates in a
// single scheduled batch — the repository-server workload. It returns
// one Result per candidate, in candidate order, each bit-identical to
// the corresponding Engine.Match result (except that Result.Cube is
// nil unless KeepCubes is given, and TopK-pruned slots are nil).
//
// The candidates' analyses are cached in the engine like Match caches
// them; the incoming schema's is used for the batch only, unless the
// engine already caches it (Analyze). The batch form beats the
// equivalent Match loop on both wall-clock and allocations: the
// incoming schema is analyzed once, all pairs
// share one worker budget of the engine's WithWorkers bound (many
// small pairs saturate it as well as one big pair), and the per-pair
// matrices and similarity grids are recycled through a size-bucketed
// arena instead of being reallocated per call.
func (e *Engine) MatchAll(incoming *Schema, candidates []*Schema, opts ...MatchAllOption) ([]*Result, error) {
	return e.MatchAllContext(context.Background(), incoming, candidates, opts...)
}

// MatchAllContext is MatchAll under a request context: once ctx is
// done, pair workers stop claiming candidates, running fills stop
// claiming rows, pooled matrices are recycled, and the cancellation
// cause is returned. A never-canceled ctx yields results bit-identical
// to MatchAll.
func (e *Engine) MatchAllContext(ctx context.Context, incoming *Schema, candidates []*Schema, opts ...MatchAllOption) ([]*Result, error) {
	o, err := buildMatchAllOptions(opts)
	if err != nil {
		return nil, err
	}
	// A plain candidate list is one group with nothing to degrade, and
	// it is not the store: indexing its schemas for pruning would grow
	// the candidate index by every caller's throwaway candidates.
	o.allowPartial = false
	o.exhaustive = true
	results, _, _, err := e.matchBatch(ctx, incoming, [][]*Schema{candidates}, o, false)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// buildMatchAllOptions applies one batch's options.
func buildMatchAllOptions(opts []MatchAllOption) (*matchAllOptions, error) {
	o := &matchAllOptions{}
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// matchBatch is the one batch path behind Engine.MatchAll and the
// repository's MatchIncoming. It validates every schema before
// anything analyzes it, resolves the analyses — the incoming schema's
// through Lookup, so one the engine does not cache serves this batch
// only and keeps no persistent columns; the candidates' through Index,
// or through Lookup when stored is set, since a store inserts and
// removes its own schemas' analyses — bounds the candidates through
// the engine's candidate index when the options allow pruning, and
// runs core.MatchBatch over the groups. The returned stats are non-nil
// exactly when the batch was pruned.
func (e *Engine) matchBatch(ctx context.Context, incoming *Schema, groups [][]*Schema, o *matchAllOptions, stored bool) ([][]*Result, *PruneStats, []ShardError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := incoming.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("coma: schema %s: %w", incoming.Name, err)
	}
	for gi, g := range groups {
		for ci, c := range g {
			if err := c.Validate(); err != nil {
				return nil, nil, nil, fmt.Errorf("coma: group %d candidate %d (%s): %w", gi, ci, c.Name, err)
			}
		}
	}
	cands, err := e.analyzeGroups(ctx, groups, stored)
	if err != nil {
		return nil, nil, nil, err
	}
	mctx := e.o.ctx
	in, cached := mctx.Analyzer.Lookup(incoming, mctx.Sources())
	var bounds [][]float64
	if spec := e.pruneSpec(o); spec != nil {
		bounds = e.candidateBounds(spec, in, cands, o.maxCandidates)
	}
	if !cached && mctx.Columns != nil {
		// Columns keyed by a batch-only analysis could never be found
		// again; keep them per batch.
		c := *mctx
		c.Columns = nil
		mctx = &c
	}
	results, stats, groupErrs, err := core.MatchBatch(ctx, mctx, in, cands, bounds, e.config(),
		core.BatchOptions{TopK: o.topK, KeepCubes: o.keepCubes, AllowPartial: o.allowPartial})
	if err != nil || bounds == nil {
		return results, nil, groupErrs, err
	}
	return results, &stats, groupErrs, nil
}

// analyzeGroups resolves one analysis per candidate, index-aligned
// with groups: through Index (cached) for a caller's candidate list,
// through Lookup for a store's own schemas. Analyses the cache lacks
// build in parallel over the engine's worker bound.
func (e *Engine) analyzeGroups(ctx context.Context, groups [][]*Schema, stored bool) ([][]*analysis.SchemaIndex, error) {
	var all []*Schema
	for _, g := range groups {
		all = append(all, g...)
	}
	a, src := e.o.ctx.Analyzer, e.o.ctx.Sources()
	flat := make([]*analysis.SchemaIndex, len(all))
	err := parallelFor(ctx, e.o.workers, len(all), func(i int) {
		if stored {
			flat[i], _ = a.Lookup(all[i], src)
		} else {
			flat[i] = a.Index(all[i], src)
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*analysis.SchemaIndex, len(groups))
	for i, g := range groups {
		out[i], flat = flat[:len(g):len(g)], flat[len(g):]
	}
	return out, nil
}

// parallelFor calls fn(i) for every i in [0, n) on up to workers
// goroutines (0 = runtime.NumCPU()) and returns ctx's cause when ctx
// ends the loop early.
func parallelFor(ctx context.Context, workers, n int, fn func(i int)) error {
	done := ctx.Done()
	var next atomic.Int64
	work := func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(match.ResolveWorkers(workers), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// Session is an interactive match session carrying user feedback
// across iterations.
type Session = core.Session

// NewSession prepares an interactive session; the same options as
// Match apply.
func NewSession(s1, s2 *Schema, opts ...Option) (*Session, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return core.NewSession(o.ctx, s1, s2, core.Config{
		Matchers: o.matchers,
		Strategy: o.strategy,
		Feedback: o.feedback,
		Workers:  o.workers,
	}), nil
}

// Library returns the matcher library with every built-in matcher
// registered, including the Similarity Flooding extension.
func Library() *match.Library {
	lib := match.NewLibrary()
	lib.Register("Flooding", func() match.Matcher { return flooding.New() })
	return lib
}

// Matchers lists the names available in the default library.
func Matchers() []string { return Library().Names() }

// WriteMappingJSON serializes a match result as indented JSON.
func WriteMappingJSON(w io.Writer, m *Mapping) error { return export.MappingJSON(w, m) }

// ReadMappingJSON parses a mapping written by WriteMappingJSON.
func ReadMappingJSON(r io.Reader) (*Mapping, error) { return export.ReadMappingJSON(r) }

// WriteMappingCSV serializes a match result as CSV (from,to,similarity).
func WriteMappingCSV(w io.Writer, m *Mapping) error { return export.MappingCSV(w, m) }

// WriteSchemaDOT renders a schema graph in Graphviz DOT format.
func WriteSchemaDOT(w io.Writer, s *Schema) error { return export.SchemaDOT(w, s) }

// WriteSchemaXSD serializes a schema graph as an XML Schema document
// that LoadXSD reads back to an equivalent graph: same leaf elements
// and shared fragments, with inner elements gaining a generated
// type-name path level (LoadXSD models named complex types as child
// nodes, the paper's Figure 1b) and leaf types mapped onto XSD
// builtins. It is the wire form Client.PutSchemaGraph and
// Client.MatchGraph ship in-memory schemas as.
func WriteSchemaXSD(w io.Writer, s *Schema) error { return export.SchemaXSD(w, s) }
