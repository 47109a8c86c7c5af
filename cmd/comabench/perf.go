package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	coma "repro"
	"repro/internal/analysis"
	"repro/internal/combine"
	"repro/internal/export"
	"repro/internal/match"
	"repro/internal/repository"
	"repro/internal/reuse"
	"repro/internal/schema"
	"repro/internal/workload"
)

// perfReport is the JSON artifact of the perf experiment: one
// measurement per engine hot path, dumped per PR (BENCH_pr<N>.json) to
// track the performance trajectory of the match engine.
type perfReport struct {
	Experiment string        `json:"experiment"`
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"go_max_procs"`
	Benchmarks []perfMeasure `json:"benchmarks"`
}

type perfMeasure struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// expPerf measures the matcher-engine hot paths: the default
// five-matcher Match operation sequential vs. parallel vs. through a
// reusable Engine (amortized schema analysis), the batch scheduler
// against the equivalent Engine.Match loop on a 16-candidate
// repository workload, the individual hybrid matchers on the largest
// workload task, the schema analysis pass itself, a
// dictionary/taxonomy-heavy Name variant, and a single NameSim
// evaluation. With a non-empty checkPath the current numbers are
// additionally compared against the committed snapshot and an error is
// returned when any shared benchmark regressed by more than tol (the
// CI regression gate); a failed check re-measures everything up to
// retries times before giving up, absorbing transient runner noise.
func expPerf(outPath, checkPath string, tol float64, retries int) error {
	if retries < 1 {
		retries = 1
	}
	for attempt := 1; ; attempt++ {
		report := measurePerf()
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		// The file snapshot is refreshed every attempt (the last
		// measurement is the one worth inspecting); stdout gets the
		// report exactly once, on the final attempt, so piped output
		// stays a single JSON document.
		if outPath != "" {
			if err := os.WriteFile(outPath, out, 0o644); err != nil {
				return err
			}
		}
		var checkErr error
		if checkPath != "" {
			checkErr = checkRegressions(report, checkPath, tol)
		}
		if checkErr == nil || attempt >= retries {
			if outPath == "" {
				if _, err := os.Stdout.Write(out); err != nil {
					return err
				}
			}
			return checkErr
		}
		fmt.Fprintf(os.Stderr, "# check attempt %d/%d failed, re-measuring: %v\n", attempt, retries, checkErr)
	}
}

// measurePerf runs every perf scenario once and collects the report.
func measurePerf() perfReport {
	big := workload.Tasks()[9] // 4<->5, the largest problem size
	small := workload.Tasks()[0]
	report := perfReport{
		Experiment: "perf",
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		report.Benchmarks = append(report.Benchmarks, perfMeasure{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "# %-28s %12.0f ns/op %10d allocs/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp())
	}

	add("DefaultMatch/sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coma.Match(small.S1, small.S2, coma.WithWorkers(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("DefaultMatch/parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coma.Match(small.S1, small.S2); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The repeated-match scenario of the paper's reuse workload: the
	// same pair matched again and again. The fresh variant re-analyzes
	// both schemas per op (package-level Match); the engine variant
	// hits its analysis cache after the first op.
	add("RepeatedMatch/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coma.Match(big.S1, big.S2); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("RepeatedMatch/engine", func(b *testing.B) {
		engine, err := coma.NewEngine()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Match(big.S1, big.S2); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The repository-server batch workload: one incoming schema matched
	// against a 16-schema candidate store. The loop baseline drives the
	// same reusable engine pair by pair (analysis already amortized, but
	// per-call matrix allocations and per-match worker fan-out remain);
	// the batch form schedules all pairs over one worker budget and
	// recycles matrices through pooled arenas. 4x16 replays four
	// different incoming schemas against the same store — the serving
	// steady state, where the engine's candidate analyses stay hot
	// across batches (arena pools and the column cache are per-batch).
	batch := workload.Candidates(20)
	incs, bcands := batch[:4], batch[4:]
	add("MatchAll/engine-vs-loop", func(b *testing.B) {
		engine, err := coma.NewEngine()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range bcands {
				if _, err := engine.Match(incs[0], c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	add("MatchAll/1x16", func(b *testing.B) {
		engine, err := coma.NewEngine()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.MatchAll(incs[0], bcands); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("MatchAll/4x16", func(b *testing.B) {
		engine, err := coma.NewEngine()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, inc := range incs {
				if _, err := engine.MatchAll(inc, bcands); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// Repeated matching of one retained incoming schema against a
	// stable candidate store — the cache-lifecycle acceptance
	// comparison. Both variants pin the incoming analysis (Analyze), so
	// the only difference is column lifetime: cold re-scores every
	// distinct-name similarity column per batch (the per-batch cache of
	// PR 3/4), warm-colcache persists the columns at engine scope and
	// every round past the first runs on warm columns.
	add("MatchRepeat/cold", func(b *testing.B) {
		engine, err := coma.NewEngine()
		if err != nil {
			b.Fatal(err)
		}
		engine.Analyze(incs[0])
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.MatchAll(incs[0], bcands); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("MatchRepeat/warm-colcache", func(b *testing.B) {
		engine, err := coma.NewEngine(coma.WithPersistentColumnCache())
		if err != nil {
			b.Fatal(err)
		}
		engine.Analyze(incs[0])
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.MatchAll(incs[0], bcands); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The served workload: the same 16-candidate store behind the
	// comaserve HTTP front-end, hammered by 4 concurrent clients with
	// phase-shifted request streams (workload.Clients). ns/op is the
	// per-request cost including HTTP transport, inline schema import
	// and the TopK(3) batch match. 1x16 serves from a single shard;
	// 4shard spreads the same store over four storage shards under the
	// store's one engine — the acceptance comparison is that sharding
	// costs nothing per request on this workload.
	add("MatchServe/1x16", func(b *testing.B) { benchServe(b, 1) })
	add("MatchServe/4shard", func(b *testing.B) { benchServe(b, 4) })
	// The repository-scale serving workload: a 10,000-schema corpus
	// (Zipf vocabulary, evolution families — workload.Corpus) behind the
	// same front-end on a 4-shard candidate-indexed store, probed with
	// TopK(10) match requests. Both scenarios share one fixture, so the
	// measured gap is exactly what the candidate-pruning index saves:
	// exhaustive scores all 10k stored schemas per request, pruned
	// matches only the candidates whose bound survives the running
	// TopK threshold. The acceptance comparison is pruned >= 5x faster.
	if cs, err := newCorpusServe(10000, 4); err != nil {
		fmt.Fprintf(os.Stderr, "# corpus serve fixture failed: %v\n", err)
	} else {
		add("MatchServe/10k-pruned", func(b *testing.B) { cs.bench(b, false) })
		add("MatchServe/10k-exhaustive", func(b *testing.B) { cs.bench(b, true) })
		cs.close()
	}
	// The import-path durability scenarios: PutSchema on a fresh
	// repository log under per-append fsync (SyncAlways, the serving
	// default) versus group commit (SyncInterval). The gap is the price
	// of the zero-loss guarantee; the acceptance comparison is that
	// group commit imports measurably faster.
	putStored, _ := workload.CorpusPair(8, 3)
	addPut := func(name string, policy coma.SyncPolicy) {
		add("PutSchema/"+name, func(b *testing.B) {
			dir, err := os.MkdirTemp("", "comabench-put")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			repo, err := coma.OpenRepository(filepath.Join(dir, "put.repo"),
				coma.WithSyncPolicy(policy))
			if err != nil {
				b.Fatal(err)
			}
			defer repo.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := repo.PutSchema(putStored[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	addPut("sync-always", coma.SyncAlways())
	addPut("sync-interval", coma.SyncInterval(0))
	// The warm-restart scenarios: one op is a full serving restart —
	// open the checkpointed 2-shard store, serve the first TopK(10)
	// match, close. Both stores hold the same 96-schema corpus compacted
	// into their page files; the cold one has no warm sidecar, so every
	// open re-analyzes the store to serve the first match, while the
	// warm one seeds its analyzer caches, column caches and candidate
	// index from the sidecar the checkpoint wrote. The acceptance
	// comparison is restart-warm beating restart-cold to the first
	// served match.
	if rf, err := newRestartFixture(96, 2); err != nil {
		fmt.Fprintf(os.Stderr, "# restart fixture failed: %v\n", err)
	} else {
		add("MatchServe/restart-cold", func(b *testing.B) { rf.bench(b, rf.coldDir) })
		add("MatchServe/restart-warm", func(b *testing.B) { rf.bench(b, rf.warmDir) })
		rf.close()
	}
	// The page-scan scenarios: one op streams every schema record of a
	// checkpointed 256-schema store through Repo.Iter. resident runs on
	// the default pool (every page cached after the warm-up scan);
	// evicting squeezes the same page file through a two-page pool, so
	// every scan re-reads and evicts clock-wise — the price of serving
	// a store larger than its buffer pool.
	if pf, err := newPageScanFixture(256); err != nil {
		fmt.Fprintf(os.Stderr, "# page scan fixture failed: %v\n", err)
	} else {
		add("PageScan/resident", func(b *testing.B) { pf.bench(b, 0) })
		add("PageScan/evicting", func(b *testing.B) { pf.bench(b, 2) })
		pf.close()
	}
	add("Analyze/schema", func(b *testing.B) {
		ctx := match.NewContext()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = analysis.NewIndex(big.S1, ctx.Sources())
		}
	})
	// The paper's repository-reuse scenario: the Schema reuse matcher
	// predicts a match purely by composing stored mappings, so the
	// match itself is join-work — per-op schema analysis dominates.
	// The fresh variant re-analyzes both schemas every op; the engine
	// amortizes analysis across the burst.
	store := &reuse.MemStore{}
	for _, t := range workload.Tasks() {
		store.Put(t.Gold)
	}
	sm := reuse.NewSchemaMatcher("SchemaM", store)
	add("RepeatedReuse/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coma.Match(big.S1, big.S2, coma.WithMatcherInstances(sm)); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("RepeatedReuse/engine", func(b *testing.B) {
		engine, err := coma.NewEngine(coma.WithMatcherInstances(sm))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Match(big.S1, big.S2); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, m := range []struct {
		name  string
		build func() match.Matcher
	}{
		{"Name", func() match.Matcher { return match.NewName() }},
		{"NamePath", func() match.Matcher { return match.NewNamePath() }},
		{"TypeName", func() match.Matcher { return match.NewTypeName() }},
		{"Children", func() match.Matcher { return match.NewChildren() }},
		{"Leaves", func() match.Matcher { return match.NewLeaves() }},
	} {
		ctx := match.NewContext()
		add("Matcher/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.build().Match(ctx, big.S1, big.S2)
			}
		})
	}
	// Dictionary/taxonomy-heavy: every token pair consults the synonym
	// hit-sets and the is-a chains.
	add("Matcher/NameTaxonomy", func(b *testing.B) {
		ctx := match.NewContext()
		strategy := combine.Strategy{
			Agg:  combine.AggSpec{Kind: combine.Max},
			Dir:  combine.Both,
			Sel:  combine.Selection{MaxN: 1},
			Comb: combine.CombAverage,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := match.NewCustomName("NameTax", strategy,
				match.Trigram(), match.Synonym(), match.Taxonomy())
			_ = m.Match(ctx, big.S1, big.S2)
		}
	})
	add("NameSim/single", func(b *testing.B) {
		ctx := match.NewContext()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nm := match.NewName()
			_ = nm.NameSim(ctx, "POShipToCustomer", "DeliverToAddress")
		}
	})

	// Summarize the batch scheduler against its loop equivalent on the
	// 16-candidate workload — the acceptance comparison of the batch
	// API (lower ns/op and allocs/op than the loop).
	byName := make(map[string]perfMeasure, len(report.Benchmarks))
	for _, b := range report.Benchmarks {
		byName[b.Name] = b
	}
	if loop, ok := byName["MatchAll/engine-vs-loop"]; ok {
		if bat, ok := byName["MatchAll/1x16"]; ok && bat.NsPerOp > 0 && bat.AllocsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "# MatchAll batch vs loop (16 candidates): %.2fx time, %.2fx allocs\n",
				loop.NsPerOp/bat.NsPerOp, float64(loop.AllocsPerOp)/float64(bat.AllocsPerOp))
		}
	}
	// The sharding acceptance comparison: a 4-shard store must serve a
	// request no slower than the single-shard path on this workload.
	if one, ok := byName["MatchServe/1x16"]; ok && one.NsPerOp > 0 {
		if four, ok := byName["MatchServe/4shard"]; ok {
			fmt.Fprintf(os.Stderr, "# MatchServe 4-shard vs single-shard: %.2fx time per request\n",
				four.NsPerOp/one.NsPerOp)
		}
	}
	// The candidate-pruning acceptance comparison: a pruned TopK match
	// against the 10k-schema corpus must run at least 5x faster than
	// the exhaustive scan it is bit-identical to.
	if ex, ok := byName["MatchServe/10k-exhaustive"]; ok {
		if pr, ok := byName["MatchServe/10k-pruned"]; ok && pr.NsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "# MatchServe 10k pruned vs exhaustive: %.1fx faster per request\n",
				ex.NsPerOp/pr.NsPerOp)
		}
	}
	// The durability acceptance comparison: group commit must import
	// faster than per-append fsync.
	if always, ok := byName["PutSchema/sync-always"]; ok {
		if interval, ok := byName["PutSchema/sync-interval"]; ok && interval.NsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "# PutSchema group commit vs fsync-per-append: %.1fx faster per import\n",
				always.NsPerOp/interval.NsPerOp)
		}
	}
	// The warm-restart acceptance comparison: restoring analyses from
	// the sidecar must reach the first served match faster than
	// re-analyzing the store.
	if cold, ok := byName["MatchServe/restart-cold"]; ok {
		if warm, ok := byName["MatchServe/restart-warm"]; ok && warm.NsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "# MatchServe warm restart vs cold: %.1fx faster to first served match\n",
				cold.NsPerOp/warm.NsPerOp)
		}
	}
	// The buffer-pool comparison: how much a scan pays when the page
	// file exceeds the pool and every page faults back in.
	if ev, ok := byName["PageScan/evicting"]; ok {
		if res, ok := byName["PageScan/resident"]; ok && res.NsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "# PageScan evicting vs resident: %.2fx time per scan\n",
				ev.NsPerOp/res.NsPerOp)
		}
	}
	// The cache-lifecycle acceptance comparison: warm engine-scoped
	// columns must beat the per-batch cache on repeated batches.
	if warm, ok := byName["MatchRepeat/warm-colcache"]; ok && warm.NsPerOp > 0 {
		if cold, ok := byName["MatchRepeat/cold"]; ok {
			fmt.Fprintf(os.Stderr, "# MatchRepeat warm colcache vs per-batch: %.2fx time, %.2fx allocs\n",
				cold.NsPerOp/warm.NsPerOp, float64(cold.AllocsPerOp)/float64(warm.AllocsPerOp))
		}
	}
	return report
}

// benchServe measures the served match path: a 16-candidate sharded
// repository behind httptest, 4 concurrent coma.Client streams posting
// inline schemas, TopK(3). The per-op unit is one HTTP match request.
func benchServe(b *testing.B, shards int) {
	dir, err := os.MkdirTemp("", "comaserve-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	repo, err := coma.OpenShardedRepository(filepath.Join(dir, "shards"), shards)
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	for _, s := range workload.Candidates(16) {
		if err := repo.PutSchema(s); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(repo.Handler())
	defer ts.Close()

	// Pre-serialize every client's request stream: the benchmark
	// measures serving, not XSD export.
	const nClients = 4
	streams := workload.Clients(nClients)
	bodies := make([][]coma.MatchRequest, nClients)
	for i, stream := range streams {
		for _, s := range stream {
			var buf bytes.Buffer
			if err := export.SchemaXSD(&buf, s); err != nil {
				b.Fatal(err)
			}
			bodies[i] = append(bodies[i], coma.MatchRequest{
				Schema: coma.SchemaPayload{Name: s.Name, Format: "xsd", Source: buf.String()},
				TopK:   3,
			})
		}
	}

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := coma.NewClient(ts.URL)
			// Per-client transport: DefaultTransport caps idle conns
			// per host at 2, which would churn connections across the
			// 4 concurrent streams and measure the pool, not the server.
			client.HTTPClient = &http.Client{Transport: &http.Transport{}}
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				req := bodies[c][i%len(bodies[c])]
				resp, err := client.Match(ctx, req)
				if err != nil {
					b.Error(err)
					return
				}
				if len(resp.Candidates) != 3 {
					b.Errorf("%d candidates, want 3", len(resp.Candidates))
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// corpusServe is the repository-scale serving fixture shared by the
// MatchServe/10k-* scenarios: n corpus schemas stored on a sharded,
// candidate-indexed repository behind httptest. One pruned warmup
// request makes the store's engine analyze and index every stored
// schema, so both scenarios measure the serving steady state.
type corpusServe struct {
	dir  string
	repo *coma.ShardedRepository
	ts   *httptest.Server
	req  coma.MatchRequest
}

func newCorpusServe(n, shards int) (*corpusServe, error) {
	dir, err := os.MkdirTemp("", "comaserve-corpus")
	if err != nil {
		return nil, err
	}
	cs := &corpusServe{dir: dir}
	fail := func(err error) (*corpusServe, error) {
		cs.close()
		return nil, err
	}
	cs.repo, err = coma.OpenShardedRepository(filepath.Join(dir, "shards"), shards, coma.WithCandidateIndex())
	if err != nil {
		return fail(err)
	}
	stored, incoming := workload.CorpusPair(n, 2002)
	for _, s := range stored {
		if err := cs.repo.PutSchema(s); err != nil {
			return fail(err)
		}
	}
	cs.ts = httptest.NewServer(cs.repo.Handler())
	var buf bytes.Buffer
	if err := export.SchemaXSD(&buf, incoming); err != nil {
		return fail(err)
	}
	cs.req = coma.MatchRequest{
		Schema: coma.SchemaPayload{Name: incoming.Name, Format: "xsd", Source: buf.String()},
		TopK:   10,
	}
	if _, err := coma.NewClient(cs.ts.URL).Match(context.Background(), cs.req); err != nil {
		return fail(fmt.Errorf("warmup match: %w", err))
	}
	return cs, nil
}

// bench measures one served TopK(10) match request against the corpus,
// pruned through the candidate index or exhaustive.
func (cs *corpusServe) bench(b *testing.B, exhaustive bool) {
	client := coma.NewClient(cs.ts.URL)
	client.HTTPClient = &http.Client{Transport: &http.Transport{}}
	req := cs.req
	req.Exhaustive = exhaustive
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Match(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Candidates) != 10 {
			b.Fatalf("%d candidates, want 10", len(resp.Candidates))
		}
	}
}

func (cs *corpusServe) close() {
	if cs.ts != nil {
		cs.ts.Close()
	}
	if cs.repo != nil {
		cs.repo.Close()
	}
	os.RemoveAll(cs.dir)
}

// restartFixture is the warm-restart serving scene: two checkpointed
// copies of the same corpus store — coldDir without a warm sidecar,
// warmDir with one — probed by the same incoming schema.
type restartFixture struct {
	dir      string
	coldDir  string
	warmDir  string
	shards   int
	incoming *schema.Schema
}

// restartOpts configures the restart stores and every bench reopen:
// candidate index and persistent column cache (the serving defaults
// whose state the sidecar carries), no per-append fsync.
func restartOpts() []coma.Option {
	return []coma.Option{
		coma.WithCandidateIndex(),
		coma.WithPersistentColumnCache(),
		coma.WithSyncPolicy(coma.SyncNone()),
	}
}

func newRestartFixture(n, shards int) (*restartFixture, error) {
	dir, err := os.MkdirTemp("", "comabench-restart")
	if err != nil {
		return nil, err
	}
	stored, incoming := workload.CorpusPair(n, 17)
	rf := &restartFixture{
		dir:      dir,
		coldDir:  filepath.Join(dir, "cold"),
		warmDir:  filepath.Join(dir, "warm"),
		shards:   shards,
		incoming: incoming,
	}
	build := func(repoDir string, warm bool) error {
		repo, err := coma.OpenShardedRepository(repoDir, shards, restartOpts()...)
		if err != nil {
			return err
		}
		defer repo.Close()
		for _, s := range stored {
			if err := repo.PutSchema(s); err != nil {
				return err
			}
		}
		// One match analyzes and candidate-indexes every stored schema,
		// so the warm store's checkpoint has warmth to persist.
		if _, err := repo.MatchIncoming(incoming, coma.TopK(10)); err != nil {
			return err
		}
		if warm {
			return repo.Checkpoint() // pages + warm sidecar
		}
		return repo.Sharded.Checkpoint() // pages only
	}
	if err := build(rf.coldDir, false); err != nil {
		rf.close()
		return nil, err
	}
	if err := build(rf.warmDir, true); err != nil {
		rf.close()
		return nil, err
	}
	return rf, nil
}

// bench measures one restart-to-first-match cycle against dir.
func (rf *restartFixture) bench(b *testing.B, dir string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		repo, err := coma.OpenShardedRepository(dir, rf.shards, restartOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := repo.MatchIncoming(rf.incoming, coma.TopK(10))
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 10 {
			b.Fatalf("%d candidates, want 10", len(res))
		}
		if err := repo.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func (rf *restartFixture) close() { os.RemoveAll(rf.dir) }

// pageScanFixture is a single checkpointed store whose schema records
// live in its page file, scanned through buffer pools of different
// sizes.
type pageScanFixture struct {
	dir  string
	path string
}

func newPageScanFixture(n int) (*pageScanFixture, error) {
	dir, err := os.MkdirTemp("", "comabench-pagescan")
	if err != nil {
		return nil, err
	}
	pf := &pageScanFixture{dir: dir, path: filepath.Join(dir, "scan.repo")}
	stored, _ := workload.CorpusPair(n, 23)
	repo, err := coma.OpenRepository(pf.path, coma.WithSyncPolicy(coma.SyncNone()))
	if err != nil {
		pf.close()
		return nil, err
	}
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			repo.Close()
			pf.close()
			return nil, err
		}
	}
	if err := repo.Checkpoint(); err != nil {
		repo.Close()
		pf.close()
		return nil, err
	}
	if err := repo.Close(); err != nil {
		pf.close()
		return nil, err
	}
	return pf, nil
}

// bench measures one full schema-record scan per op; pool bounds the
// buffer pool in pages (0 = the storage default, which holds the whole
// page file resident after the warm-up scan).
func (pf *pageScanFixture) bench(b *testing.B, pool int) {
	opts := []coma.Option{coma.WithSyncPolicy(coma.SyncNone())}
	if pool > 0 {
		opts = append(opts, coma.WithPageCache(pool))
	}
	repo, err := coma.OpenRepository(pf.path, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	scan := func() int64 {
		var total int64
		err := repo.Iter(repository.RecSchemas, func(_ string, payload []byte) error {
			total += int64(len(payload))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return total
	}
	if scan() == 0 {
		b.Fatal("page scan fixture holds no schema records")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scan()
	}
}

func (pf *pageScanFixture) close() { os.RemoveAll(pf.dir) }

// benchSnapshot is the shape of a committed benchmark file: either a
// bare perfReport or a BENCH_pr<N>.json trajectory entry whose "after"
// block holds the snapshot to gate against.
type benchSnapshot struct {
	Benchmarks []perfMeasure `json:"benchmarks"`
	After      *perfReport   `json:"after"`
}

// checkRegressions compares the current report against the snapshot at
// path and errors when any benchmark present in both regressed by more
// than tol (relative ns/op). Benchmarks unique to either side are
// ignored, so snapshots age gracefully across PRs.
//
// Ratios are normalized by their median before the tolerance applies:
// a machine uniformly faster or slower than the snapshot machine (CI
// shared runners vs. the dev box) shifts every ratio by the same
// factor, which the median absorbs, while a genuine hot-path
// regression shows as that benchmark's ratio exceeding the rest.
// Uniform whole-engine regressions are therefore caught by re-running
// the check on the machine that recorded the snapshot, not in CI.
func checkRegressions(cur perfReport, path string, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("perf check: %w", err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("perf check: %s: %w", path, err)
	}
	base := snap.Benchmarks
	if snap.After != nil {
		base = snap.After.Benchmarks
	}
	if len(base) == 0 {
		return fmt.Errorf("perf check: %s holds no benchmarks", path)
	}
	baseline := make(map[string]float64, len(base))
	for _, b := range base {
		baseline[b.Name] = b.NsPerOp
	}
	type comparison struct {
		name     string
		ns, want float64
		ratio    float64
	}
	var comps []comparison
	for _, b := range cur.Benchmarks {
		// PutSchema is fsync-bound: its ns/op tracks the runner's disk
		// and write-cache behavior, not engine code, so it is recorded
		// in the snapshot but excluded from the regression gate.
		if strings.HasPrefix(b.Name, "PutSchema/") {
			continue
		}
		want, ok := baseline[b.Name]
		if !ok || want <= 0 {
			continue
		}
		comps = append(comps, comparison{b.Name, b.NsPerOp, want, b.NsPerOp / want})
	}
	if len(comps) == 0 {
		return fmt.Errorf("perf check: no benchmark shared with %s", path)
	}
	ratios := make([]float64, len(comps))
	for i, c := range comps {
		ratios[i] = c.ratio
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	if median <= 0 {
		median = 1
	}
	var regressions []string
	for _, c := range comps {
		rel := c.ratio / median
		status := "ok"
		if rel > 1+tol {
			status = "REGRESSED"
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs %.0f ns/op baseline (%.2fx raw, %.2fx machine-normalized)",
				c.name, c.ns, c.want, c.ratio, rel))
		}
		fmt.Fprintf(os.Stderr, "# check %-28s %.2fx of baseline (%.2fx normalized) [%s]\n",
			c.name, c.ratio, rel, status)
	}
	fmt.Fprintf(os.Stderr, "# check machine factor (median ratio): %.2fx\n", median)
	if len(regressions) > 0 {
		msg := "perf check: timing regressed beyond " + fmt.Sprintf("%.0f%%", tol*100)
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Fprintf(os.Stderr, "# check passed: %d benchmarks within %.0f%% of %s\n", len(comps), tol*100, path)
	return nil
}
