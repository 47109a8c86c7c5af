// Package core implements COMA's match processing (Do & Rahm, VLDB
// 2002, Section 3, Figure 2): the match operation takes two schemas and
// determines a mapping indicating which elements logically correspond.
// Processing runs in one or more iterations, each consisting of an
// optional user feedback phase, the execution of multiple independent
// matchers from the library, and the combination of the individual
// match results (aggregation, direction, selection).
//
// Automatic mode performs a single iteration with a default or
// caller-specified strategy; interactive mode is exposed through
// Session, which carries user feedback across iterations.
package core

import (
	"fmt"
	"sync"

	"repro/internal/combine"
	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/simcube"
)

// Config selects the match strategy of one iteration: the matchers to
// execute and the strategies to combine their results.
type Config struct {
	// Matchers are executed independently; their results form the
	// similarity cube. Must be non-empty.
	Matchers []match.Matcher
	// Strategy combines the cube into the match result. Strategy.Comb
	// additionally defines the schema similarity computation.
	Strategy combine.Strategy
	// Feedback, when set, pins user-asserted (mis)matches in the
	// aggregated matrix before selection (the UserFeedback matcher).
	Feedback *match.Feedback
	// Workers bounds the parallelism of the matcher execution phase:
	// the k independent matchers run concurrently (one goroutine per
	// matcher) and each matcher fills its matrix row-parallel. 0 means
	// runtime.NumCPU(); 1 forces fully sequential execution. Every
	// similarity is a pure function of its inputs, so the result is
	// bit-identical for any worker count.
	Workers int
}

// DefaultConfig returns the paper's default match operation: the
// combination of all five hybrid matchers ("All") under
// (Average, Both, Threshold(0.5)+Delta(0.02)).
func DefaultConfig() Config {
	return Config{
		Matchers: []match.Matcher{
			match.NewName(),
			match.NewNamePath(),
			match.NewTypeName(),
			match.NewChildren(),
			match.NewLeaves(),
		},
		Strategy: combine.Default(),
	}
}

// Result is the outcome of one match iteration.
type Result struct {
	// Cube holds the intermediate result of every executed matcher; it
	// is what the repository persists for later combination/selection.
	Cube *simcube.Cube
	// Matrix is the aggregated (and feedback-pinned) similarity matrix.
	Matrix *simcube.Matrix
	// Mapping is the selected match result.
	Mapping *simcube.Mapping
	// SchemaSim is the combined similarity of the two schemas derived
	// from the match result (combination step 3).
	SchemaSim float64
}

// ExecuteMatchers runs the matcher execution phase: every matcher
// produces one layer of the similarity cube over the schemas' paths.
// Both schemas are analyzed up front — through the context's analyzer
// cache, so a schema matched repeatedly pays analysis once — and the
// resulting indexes are installed on the context shared by all k
// matchers. The matchers are independent (paper Section 3), so they
// execute concurrently — one goroutine per matcher — unless the
// context's worker bound is 1. Layer order always follows the matchers
// slice, and results are bit-identical to sequential execution.
//
// A context observing a cancellation source (match.Context.WithCancel)
// stops cooperatively: the row-parallel fills stop claiming rows, the
// partially filled layers are released back to the context's arena,
// and the cancellation cause is returned instead of a cube.
func ExecuteMatchers(ctx *match.Context, s1, s2 *schema.Schema, matchers []match.Matcher) (*simcube.Cube, error) {
	if len(matchers) == 0 {
		return nil, fmt.Errorf("core: no matchers configured")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Analyze once, before any concurrent access: the indexes capture
	// the schemas' lazily cached path enumerations and every derived
	// per-element artifact.
	idx1, idx2 := ctx.Index(s1), ctx.Index(s2)
	ctx = ctx.WithIndexes(idx1, idx2)
	if ctx.Columns != nil {
		// Engine-scoped column reuse for the single-pair path: repeated
		// matches of one incoming schema against changing partners share
		// scored distinct-name columns exactly like the pairs of one
		// batch do (same purity argument — the incoming index freezes
		// names and source versions).
		ctx = ctx.WithBatchCache(ctx.Columns.ForIncoming(idx1))
	}
	cube := simcube.NewCube(idx1.Keys, idx2.Keys)
	layers := make([]*simcube.Matrix, len(matchers))
	if ctx != nil && ctx.Workers == 1 || len(matchers) == 1 {
		for i, m := range matchers {
			if ctx.Err() != nil {
				break
			}
			layers[i] = m.Match(ctx, s1, s2)
		}
	} else {
		// One goroutine per matcher, all drawing on a single shared
		// worker budget: a running matcher occupies one slot and its
		// row-parallel fill claims extra slots only while the budget
		// allows, so total parallelism stays bounded by the worker
		// count rather than multiplying per matcher.
		bctx := ctx.WithWorkerBudget()
		var wg sync.WaitGroup
		wg.Add(len(matchers))
		for i, m := range matchers {
			go func() {
				defer wg.Done()
				bctx.AcquireWorker()
				defer bctx.ReleaseWorker()
				layers[i] = m.Match(bctx, s1, s2)
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		// Canceled mid-execution: the fills stopped claiming rows, so
		// the layers are partial. Recycle them (and nothing else — the
		// analyses above are the context's to keep) and surface the
		// cause.
		for _, l := range layers {
			l.ReleaseTo(ctx.Arena())
		}
		return nil, err
	}
	for i, m := range matchers {
		if err := cube.AddLayer(m.Name(), layers[i]); err != nil {
			// A rejected layer (and every later one not yet adopted by
			// the cube) is still owned here; recycle them with the cube
			// so a faulty matcher cannot leak pooled storage.
			for _, l := range layers[i:] {
				l.ReleaseTo(ctx.Arena())
			}
			cube.ReleaseTo(ctx.Arena())
			return nil, err
		}
	}
	return cube, nil
}

// CombineCube runs the combination phase on an existing cube:
// aggregation of matcher-specific results, feedback pinning, direction
// and selection of match candidates, and computation of the combined
// schema similarity.
func CombineCube(cube *simcube.Cube, s1, s2 *schema.Schema, strategy combine.Strategy, feedback *match.Feedback) (*Result, error) {
	matrix, err := strategy.Agg.Apply(cube)
	if err != nil {
		return nil, err
	}
	if feedback != nil {
		feedback.Pin(matrix)
	}
	mapping := combine.Select(matrix, strategy.Dir, strategy.Sel)
	mapping.FromSchema = s1.Name
	mapping.ToSchema = s2.Name
	mapping.Sort()
	schemaSim := combine.CombinedSimilarity(strategy.Comb, len(s1.Paths()), len(s2.Paths()), mapping)
	return &Result{Cube: cube, Matrix: matrix, Mapping: mapping, SchemaSim: schemaSim}, nil
}

// Match performs one automatic match iteration on two schemas. A
// non-zero cfg.Workers overrides the context's worker bound for this
// iteration.
func Match(ctx *match.Context, s1, s2 *schema.Schema, cfg Config) (*Result, error) {
	if err := s1.Validate(); err != nil {
		return nil, fmt.Errorf("core: schema %s: %w", s1.Name, err)
	}
	if err := s2.Validate(); err != nil {
		return nil, fmt.Errorf("core: schema %s: %w", s2.Name, err)
	}
	if cfg.Workers != 0 {
		ctx = ctx.WithWorkers(cfg.Workers)
	}
	cube, err := ExecuteMatchers(ctx, s1, s2, cfg.Matchers)
	if err != nil {
		return nil, err
	}
	return CombineCube(cube, s1, s2, cfg.Strategy, cfg.Feedback)
}

// Session drives the interactive and iterative match process: the user
// inspects the proposed candidates of each iteration, accepts or
// rejects them, optionally adjusts the strategy, and re-runs. Feedback
// persists across iterations and pins the asserted pairs.
type Session struct {
	ctx      *match.Context
	s1, s2   *schema.Schema
	cfg      Config
	last     *Result
	iterated int
}

// NewSession prepares an interactive match session. The config's
// Feedback field is initialized when nil.
func NewSession(ctx *match.Context, s1, s2 *schema.Schema, cfg Config) *Session {
	if cfg.Feedback == nil {
		cfg.Feedback = match.NewFeedback()
	}
	return &Session{ctx: ctx, s1: s1, s2: s2, cfg: cfg}
}

// Accept approves a correspondence; it will carry similarity 1 in all
// subsequent iterations.
func (s *Session) Accept(from, to string) { s.cfg.Feedback.Accept(from, to) }

// Reject declares a mismatch; it will carry similarity 0 in all
// subsequent iterations.
func (s *Session) Reject(from, to string) { s.cfg.Feedback.Reject(from, to) }

// SetStrategy replaces the combination strategy for later iterations.
func (s *Session) SetStrategy(st combine.Strategy) { s.cfg.Strategy = st }

// SetMatchers replaces the matcher selection for later iterations.
func (s *Session) SetMatchers(ms []match.Matcher) { s.cfg.Matchers = ms }

// Iterate runs one match iteration with the current strategy and
// accumulated feedback.
func (s *Session) Iterate() (*Result, error) {
	res, err := Match(s.ctx, s.s1, s.s2, s.cfg)
	if err != nil {
		return nil, err
	}
	s.last = res
	s.iterated++
	return res, nil
}

// Last returns the most recent iteration's result (nil before the
// first Iterate).
func (s *Session) Last() *Result { return s.last }

// Iterations returns the number of completed iterations.
func (s *Session) Iterations() int { return s.iterated }

// Feedback exposes the session's accumulated user feedback.
func (s *Session) Feedback() *match.Feedback { return s.cfg.Feedback }
