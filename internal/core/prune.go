package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// PruneStats reports how much work candidate pruning saved in one
// batch.
type PruneStats struct {
	// Candidates is the total candidate count across groups.
	Candidates int
	// Matched is the number of pairs the full pipeline ran on.
	Matched int
	// Skipped is the number of pairs skipped: bound below the running
	// k-th best real score, or excluded by a -Inf bound.
	Skipped int
}

// Ratio returns the skipped fraction in [0, 1] (0 for an empty batch).
func (ps PruneStats) Ratio() float64 {
	if ps.Candidates == 0 {
		return 0
	}
	return float64(ps.Skipped) / float64(ps.Candidates)
}

// PruneCounters accumulates PruneStats across batches. Per-batch
// snapshots are last-write-wins under concurrent matches (the /readyz
// flapping bug); these cumulative counters are what time-series
// monitoring and the serving readiness report aggregate from. Safe for
// concurrent use; the zero value is ready.
type PruneCounters struct {
	batches    atomic.Uint64
	candidates atomic.Uint64
	matched    atomic.Uint64
	skipped    atomic.Uint64
}

// Record folds one batch's stats into the totals. Nil-safe so
// unmetered paths can call it unconditionally.
func (pc *PruneCounters) Record(ps PruneStats) {
	if pc == nil {
		return
	}
	pc.batches.Add(1)
	pc.candidates.Add(uint64(ps.Candidates))
	pc.matched.Add(uint64(ps.Matched))
	pc.skipped.Add(uint64(ps.Skipped))
}

// Totals returns the counters' current values.
func (pc *PruneCounters) Totals() PruneTotals {
	if pc == nil {
		return PruneTotals{}
	}
	return PruneTotals{
		Batches:    pc.batches.Load(),
		Candidates: pc.candidates.Load(),
		Matched:    pc.matched.Load(),
		Skipped:    pc.skipped.Load(),
	}
}

// PruneTotals is a snapshot of cumulative pruning work since the
// counters were created.
type PruneTotals struct {
	// Batches is the number of pruned batch matches recorded.
	Batches uint64
	// Candidates is the total candidates considered across batches.
	Candidates uint64
	// Matched is the total pairs the full pipeline ran on.
	Matched uint64
	// Skipped is the total pairs pruned away.
	Skipped uint64
}

// Ratio returns the cumulative skipped fraction in [0, 1].
func (pt PruneTotals) Ratio() float64 {
	if pt.Candidates == 0 {
		return 0
	}
	return float64(pt.Skipped) / float64(pt.Candidates)
}

// thetaTracker maintains a running k-th best real schema similarity as
// a k-bounded min-heap — for the whole batch, or for one candidate
// group under AllowPartial. The current threshold is mirrored into an
// atomic (-1 while fewer than k results exist, so nothing is skipped
// before the heap fills — every admissible bound is >= 0) for
// lock-free reads on the claim path.
type thetaTracker struct {
	mu   sync.Mutex
	heap []float64
	k    int
	bits atomic.Uint64
}

func (t *thetaTracker) init(k int) {
	t.k = k
	t.bits.Store(math.Float64bits(-1))
}

// theta returns the current skip threshold: the k-th best real score
// so far, or -1 while fewer than k pairs completed.
func (t *thetaTracker) theta() float64 { return math.Float64frombits(t.bits.Load()) }

// push records one completed pair's real score. The threshold is
// monotonically non-decreasing, which is what makes racing skips safe:
// a bound observed below theta is below every later theta too.
func (t *thetaTracker) push(sim float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.heap
	if len(h) < t.k {
		h = append(h, sim)
		// Sift up.
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.heap = h
		if len(h) == t.k {
			t.bits.Store(math.Float64bits(h[0]))
		}
		return
	}
	if sim <= h[0] {
		return
	}
	h[0] = sim
	// Sift down.
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	t.bits.Store(math.Float64bits(h[0]))
}
