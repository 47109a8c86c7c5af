package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/simcube"
	"repro/internal/workload"
)

// cancelingMatcher fires a cancel function the first time it executes,
// then delegates — a deterministic mid-batch cancellation: the claim
// loops observe the canceled context while pairs are still pending.
type cancelingMatcher struct {
	match.Matcher
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (m *cancelingMatcher) Match(ctx *match.Context, s1, s2 *schema.Schema) *simcube.Matrix {
	if m.fired.CompareAndSwap(false, true) {
		m.cancel()
	}
	return m.Matcher.Match(ctx, s1, s2)
}

// faultyMatcher is the test-only fault injection wrapper: it returns no
// matrix for one specific candidate schema, the failure mode of a
// broken matcher implementation, which the cube rejects.
type faultyMatcher struct {
	match.Matcher
	failFor *schema.Schema
}

func (m faultyMatcher) Match(ctx *match.Context, s1, s2 *schema.Schema) *simcube.Matrix {
	if s2 == m.failFor {
		return nil
	}
	return m.Matcher.Match(ctx, s1, s2)
}

// TestMatchAllCanceledMidBatch: a request context canceled while pairs
// are in flight aborts the batch with the cancellation cause instead of
// results, for both the sequential and the parallel scheduler paths.
func TestMatchAllCanceledMidBatch(t *testing.T) {
	all := workload.Candidates(6)
	incoming, cands := all[0], all[1:]
	for _, workers := range []int{1, 4} {
		cctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Matchers = append([]match.Matcher{}, cfg.Matchers...)
		cfg.Matchers[0] = &cancelingMatcher{Matcher: cfg.Matchers[0], cancel: cancel}
		results, _, _, err := MatchBatch(cctx, match.NewContext(), incoming, [][]*schema.Schema{cands}, nil, cfg, BatchOptions{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if results != nil {
			t.Errorf("workers=%d: canceled batch returned results", workers)
		}
	}
}

// TestMatchCanceledSinglePair: cancellation reaches the single-pair
// path (Engine.MatchContext → ExecuteMatchers) through a context
// carrying a cancellation source.
func TestMatchCanceledSinglePair(t *testing.T) {
	all := workload.Candidates(2)
	cctx, cancel := context.WithCancel(context.Background())
	cfg := DefaultConfig()
	cfg.Matchers = append([]match.Matcher{}, cfg.Matchers...)
	cfg.Matchers[0] = &cancelingMatcher{Matcher: cfg.Matchers[0], cancel: cancel}
	mctx := match.NewContext().WithCancel(cctx)
	res, err := Match(mctx, all[0], all[1], cfg)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled match returned a result")
	}

	// Pre-canceled: fails before any matcher runs.
	done, stop := context.WithCancel(context.Background())
	stop()
	if _, err := Match(match.NewContext().WithCancel(done), all[0], all[1], cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled err = %v, want context.Canceled", err)
	}
}

// TestMatchCanceledCause: a deadline-style cause survives to the caller
// so the serving layer can distinguish timeout (504) from disconnect.
func TestMatchCanceledCause(t *testing.T) {
	all := workload.Candidates(2)
	cctx, cancel := context.WithCancelCause(context.Background())
	cancel(context.DeadlineExceeded)
	_, _, _, err := MatchBatch(cctx, match.NewContext(), all[0], [][]*schema.Schema{all[1:]}, nil, DefaultConfig(), BatchOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded cause", err)
	}
}

// TestMatchShardedPartial: with AllowPartial, a faulty matcher failing
// one group's pair degrades that group to a ShardError while the other
// group's ranking stays bit-identical to an undisturbed reference.
func TestMatchShardedPartial(t *testing.T) {
	all := workload.Candidates(7)
	incoming, cands := all[0], all[1:]
	cfg := DefaultConfig()

	ref := make([]*Result, len(cands))
	refCtx := match.NewContext()
	for i, c := range cands {
		var err error
		if ref[i], err = Match(refCtx, incoming, c, cfg); err != nil {
			t.Fatal(err)
		}
	}

	// Fail a pair of group 1 (round-robin layout: odd candidates).
	bad := cands[3]
	faulty := cfg
	faulty.Matchers = append([]match.Matcher{}, cfg.Matchers...)
	faulty.Matchers[2] = faultyMatcher{Matcher: cfg.Matchers[2], failFor: bad}

	// Without AllowPartial the injected fault aborts the whole batch.
	if _, _, _, err := MatchBatch(context.Background(), match.NewContext(), incoming, groupsOf(cands, 2), nil, faulty, BatchOptions{}); err == nil {
		t.Fatal("injected fault did not fail the strict batch")
	}

	results, _, shardErrs, err := MatchBatch(context.Background(), match.NewContext(), incoming, groupsOf(cands, 2), nil, faulty, BatchOptions{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(shardErrs) != 1 || shardErrs[0].Shard != 1 {
		t.Fatalf("shard errors = %v, want exactly shard 1", shardErrs)
	}
	if results[1] != nil {
		t.Error("failed group kept its results")
	}
	if results[0] == nil {
		t.Fatal("healthy group lost its results")
	}
	for ci, res := range results[0] {
		orig := ci * 2 // group 0 of the round-robin layout
		if res.SchemaSim != ref[orig].SchemaSim {
			t.Errorf("surviving group: candidate %d sim %v, want %v", orig, res.SchemaSim, ref[orig].SchemaSim)
		}
	}
}

// TestMatchShardedPartialShardCancel: cancellation of the request
// context is never degraded to a partial result — AllowPartial or not,
// exhaustive or bounded, the batch aborts with the cause.
func TestMatchShardedPartialShardCancel(t *testing.T) {
	all := workload.Candidates(5)
	incoming, cands := all[0], all[1:]
	cfg := DefaultConfig()
	groups := groupsOf(cands, 2)
	inf := [][]float64{make([]float64, len(groups[0])), make([]float64, len(groups[1]))}
	for _, bs := range inf {
		for i := range bs {
			bs[i] = math.Inf(1)
		}
	}

	dead, stop := context.WithCancel(context.Background())
	stop()
	for _, bounds := range [][][]float64{nil, inf} {
		if _, _, _, err := MatchBatch(dead, match.NewContext(), incoming, groups, bounds, cfg, BatchOptions{TopK: 2, AllowPartial: true}); !errors.Is(err, context.Canceled) {
			t.Errorf("bounded=%v: canceled request degraded to partial: err = %v", bounds != nil, err)
		}
	}

	// Mid-batch: the first matcher call cancels the request while pairs
	// are still pending.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceling := cfg
	canceling.Matchers = append([]match.Matcher{}, cfg.Matchers...)
	canceling.Matchers[0] = &cancelingMatcher{Matcher: cfg.Matchers[0], cancel: cancel}
	results, _, shardErrs, err := MatchBatch(cctx, match.NewContext(), incoming, groups, nil, canceling, BatchOptions{AllowPartial: true})
	if !errors.Is(err, context.Canceled) || results != nil || shardErrs != nil {
		t.Errorf("mid-batch cancel under AllowPartial: results=%v shardErrs=%v err=%v", results != nil, shardErrs, err)
	}
}

// TestShardErrorUnwrap pins the error surface: ShardError exposes its
// cause to errors.Is and renders the shard index.
func TestShardErrorUnwrap(t *testing.T) {
	se := ShardError{Shard: 3, Err: context.DeadlineExceeded}
	if !errors.Is(se, context.DeadlineExceeded) {
		t.Error("ShardError does not unwrap its cause")
	}
	if se.Error() == "" || se.Error() == context.DeadlineExceeded.Error() {
		t.Errorf("ShardError message %q lacks shard context", se.Error())
	}
}
