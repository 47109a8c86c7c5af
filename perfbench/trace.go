package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/candidates"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/simcube"
)

// The traced run replays a workload's operations in process, one layer
// call at a time, through the same public functions the served and
// library paths use, and records a span around each call. Spans live in
// memory and are written out as JSON when the run ends.

// span is one timed layer call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans when on; when off, begin and end cost a branch.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(req, parent int, name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// durations returns the durations in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// layerStats computes each span name's total self time (its duration
// minus the time its children cover) and the share of root-span time
// that child spans cover.
func (t *tracer) layerStats() (self map[string]float64, coverage float64) {
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	self = map[string]float64{}
	var root, covered time.Duration
	for _, s := range t.spans {
		self[s.Name] += ms(s.dur() - childTime[s.ID])
		if s.Parent < 0 {
			root += s.dur()
			covered += childTime[s.ID]
		}
	}
	if root > 0 {
		coverage = float64(covered) / float64(root)
	}
	return self, coverage
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// ranked is one entry of a TopK ranking.
type ranked struct {
	Name string
	Sim  float64
}

// sameRanking compares names and SchemaSim bits.
func sameRanking(a, b []ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || math.Float64bits(a[i].Sim) != math.Float64bits(b[i].Sim) {
			return false
		}
	}
	return true
}

// replayStore is an in-process model of a served store for the traced
// replay: the stored schemas with their analyses, a candidate index and
// a persistent column cache, matched with the default "All" operation
// one layer call at a time. Pairs run one after another (Workers 1), so
// each matcher span times one matcher on one pair with the other core
// idle; the server runs two pairs at a time.
type replayStore struct {
	ctx      *match.Context
	matchers []match.Matcher
	strategy combine.Strategy
	spec     *candidates.Spec
	cand     *candidates.Index
	// cols keeps scored name columns across requests whose incoming
	// schema is stored (by-name matches), as comaserve's engines do with
	// their persistent column cache; an inline schema gets a cache of
	// its own request only.
	cols    *match.ColumnCache
	schemas map[string]*schema.Schema
	index   map[string]*analysis.SchemaIndex
	allocs  []float64 // heap allocations per matched pair (untraced passes)
}

func newReplayStore() *replayStore {
	cfg := core.DefaultConfig()
	ctx := match.NewContext()
	ctx.Analyzer = nil // every index comes from an explicit analysis.NewIndex call
	ctx.Workers = 1
	return &replayStore{
		ctx:      ctx,
		matchers: cfg.Matchers,
		strategy: cfg.Strategy,
		spec:     candidates.NewSpec(cfg.Matchers, cfg.Strategy, nil),
		cand:     candidates.NewIndex(),
		cols:     match.NewColumnCache(0),
		schemas:  map[string]*schema.Schema{},
		index:    map[string]*analysis.SchemaIndex{},
	}
}

func (rs *replayStore) analyze(tr *tracer, req, parent int, s *schema.Schema) *analysis.SchemaIndex {
	id := tr.begin(req, parent, "analysis")
	x := analysis.NewIndex(s, rs.ctx.Sources())
	tr.end(id)
	return x
}

// put stores (or replaces) a schema: analysis, then the candidate
// index update, as a PUT on the server does. The replaced schema's
// columns are dropped, as the engine's invalidation drops them.
func (rs *replayStore) put(tr *tracer, req, parent int, s *schema.Schema) {
	x := rs.analyze(tr, req, parent, s)
	old, replaced := rs.schemas[s.Name]
	if replaced {
		rs.cols.Invalidate(old)
	}
	id := tr.begin(req, parent, "candidates.add")
	if replaced {
		rs.cand.Remove(old)
	}
	rs.cand.Add(s, x)
	tr.end(id)
	rs.schemas[s.Name] = s
	rs.index[s.Name] = x
}

// matchPair runs every matcher and the combination on one pair.
func (rs *replayStore) matchPair(tr *tracer, req, parent int, s1, s2 *schema.Schema, x1, x2 *analysis.SchemaIndex, bc *match.BatchCache) (*core.Result, error) {
	a0 := uint64(0)
	if !tr.on {
		a0 = heapAllocs()
	}
	ctx := rs.ctx.WithIndexes(x1, x2)
	if bc != nil {
		ctx = ctx.WithBatchCache(bc)
	}
	cube := simcube.NewCube(x1.Keys, x2.Keys)
	for _, m := range rs.matchers {
		id := tr.begin(req, parent, "match."+m.Name())
		layer := m.Match(ctx, s1, s2)
		tr.end(id)
		if err := cube.AddLayer(m.Name(), layer); err != nil {
			return nil, err
		}
	}
	id := tr.begin(req, parent, "combine")
	res, err := core.CombineCube(cube, s1, s2, rs.strategy, nil)
	tr.end(id)
	if !tr.on {
		rs.allocs = append(rs.allocs, float64(heapAllocs()-a0))
	}
	return res, err
}

// topK ranks the stored schemas against an analyzed incoming schema the
// way the pruned repository match does: candidate bounds, then full
// matches in descending bound order until no remaining bound can reach
// the running k-th best score, then the merge by (SchemaSim desc, name).
// It also returns how many pairs it matched.
func (rs *replayStore) topK(tr *tracer, req, parent int, in *schema.Schema, x *analysis.SchemaIndex, k int) ([]ranked, int, error) {
	id := tr.begin(req, parent, "bounds")
	cands := make([]*schema.Schema, 0, len(rs.schemas))
	for name, s := range rs.schemas {
		if name != in.Name {
			cands = append(cands, s)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
	bounds := rs.cand.Bounds(candidates.NewProbe(rs.spec, x), cands)
	tr.end(id)

	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] > bounds[order[b]] })
	bc := match.NewBatchCache()
	if rs.schemas[in.Name] == in {
		bc = rs.cols.ForIncoming(x)
	}
	var out []ranked
	var best []float64 // the k best real scores, descending
	for _, ci := range order {
		if len(best) == k && bounds[ci] < best[k-1] {
			break
		}
		c := cands[ci]
		res, err := rs.matchPair(tr, req, parent, in, c, x, rs.index[c.Name], bc)
		if err != nil {
			return nil, 0, fmt.Errorf("match %s with %s: %w", in.Name, c.Name, err)
		}
		out = append(out, ranked{c.Name, res.SchemaSim})
		best = append(best, res.SchemaSim)
		sort.Sort(sort.Reverse(sort.Float64Slice(best)))
		if len(best) > k {
			best = best[:k]
		}
	}

	pairs := len(out)
	id = tr.begin(req, parent, "merge")
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > k {
		out = out[:k]
	}
	tr.end(id)
	return out, pairs, nil
}

const (
	// pairSlack is the share more pairs than the replay that the server
	// may match for the same requests (see checkPairs).
	pairSlack = 0.05
	// ingestPairSlack is how far, as a share, the replay's pairs per
	// match on ingest-mix may lie from the served figure.
	ingestPairSlack = 0.1
)

// checkPairs compares the pairs the server matched for a run's requests
// with the pairs the replay matches for the same requests on the same
// store. Both try candidates in descending bound order and stop at the
// first bound below the running k-th best score. The server, though,
// matches two pairs at a time, so a pair can start before the score
// that would have cut it is in: it may match a few pairs more, never
// fewer.
func checkPairs(res *result, served ratio, replayed float64) {
	res.report["replay.pairs_per_match"] = newRatio(replayed, served.Den)
	if served.Num < replayed || served.Num > replayed*(1+pairSlack) {
		res.fail("the server matched %.0f pairs in %.0f requests, the replay %.0f for the same requests",
			served.Num, served.Den, replayed)
	}
}

// spanReport adds the median duration of each named span to the report.
func spanReport(res *result, tr *tracer, spans map[string]string) {
	for name, span := range spans {
		d := tr.durations(span)
		res.report[name] = named{Value: median(d), Unit: "ms", N: len(d)}
	}
}

// replayBoth runs each of n operations once untraced (side 0) and once
// traced (side 1), alternating which side goes first so that warm-up
// and drift fall on both equally, and returns the traced spans and each
// side's total time: the difference is the tracing overhead.
func replayBoth(n int, step func(tr *tracer, side, i int) error) (tr *tracer, untraced, traced time.Duration, err error) {
	off, on := newTracer(false), newTracer(true)
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			t := off
			if side == 1 {
				t = on
			}
			t0 := time.Now()
			if err := step(t, side, i); err != nil {
				return nil, 0, 0, err
			}
			if side == 1 {
				traced += time.Since(t0)
			} else {
				untraced += time.Since(t0)
			}
		}
	}
	return on, untraced, traced, nil
}

// layerMetrics fills the per-layer metrics every workload reports from
// an untraced and a traced replay of the same operations.
func layerMetrics(res *result, rs *replayStore, tr *tracer, untraced, traced time.Duration, pairsPerMatch float64) {
	layer := func(name, span string) {
		d := tr.durations(span)
		res.layers[name] = metric{median(d), "ms"}
		res.report[name] = named{Value: median(d), Unit: "ms", N: len(d)}
	}
	layer("analysis.index_ms", "analysis")
	layer("match.name_ms", "match.Name")
	layer("match.namepath_ms", "match.NamePath")
	layer("match.typename_ms", "match.TypeName")
	layer("match.children_ms", "match.Children")
	layer("match.leaves_ms", "match.Leaves")
	layer("core.combine_ms", "combine")
	res.layers["match.allocs_per_pair"] = metric{mean(rs.allocs), "count"}
	res.report["match.allocs_per_pair"] = named{Value: mean(rs.allocs), Unit: "count", N: len(rs.allocs)}
	res.layers["core.pairs_per_match"] = metric{pairsPerMatch, "count"}
	self, coverage := tr.layerStats()
	overhead := float64(traced)/float64(untraced) - 1
	res.layers["trace.coverage"] = metric{coverage, "ratio"}
	res.layers["trace.overhead"] = metric{overhead, "ratio"}
	res.report["trace.coverage"] = coverage
	res.report["trace.overhead"] = map[string]float64{"value": overhead, "untraced_ms": ms(untraced), "traced_ms": ms(traced)}
	res.report["trace.self_ms"] = self
	res.report["trace.spans"] = len(tr.spans)
}
