package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	coma "repro"
	"repro/internal/importer"
	"repro/internal/repository"
	"repro/internal/schema"
	"repro/internal/server"
)

// serverFlags are the comaserve flags of the workload, -repo aside.
func serverFlags(e *env) []string {
	f := []string{"-shards", strconv.Itoa(shards), "-workers", strconv.Itoa(workers)}
	switch e.workload {
	case "ingest-mix":
		f = append(f, "-sync", ingestSync)
	case "restart":
		f = append(f, "-page-cache", strconv.Itoa(restartPageCache))
	}
	return f
}

func (e *env) startServer(storeDir string, preload []string) (*serverProc, error) {
	args := append([]string{"-repo", storeDir}, serverFlags(e)...)
	return startServer(e.serveBin, append(args, preload...))
}

// setUp builds the fixture and brings up a loaded, warmed comaserve reps
// times, each in a fresh directory, and returns the last one with the
// median set-up time. With drain, set-up ends with a graceful SIGTERM
// (drain and checkpoint), and beforeDrain runs untimed on the last
// server first; otherwise the last server is left running.
func setUp(e *env, reps int, drain bool, beforeDrain func(*fixture, *serverProc) error) (fx *fixture, srv *serverProc, storeDir string, setupS float64, err error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(e.runDir, fmt.Sprintf("setup%d", rep))
		t0 := time.Now()
		if fx, err = newFixture(e.seed); err != nil {
			return nil, nil, "", 0, err
		}
		files, err := fx.writeStore(filepath.Join(dir, "xsd"))
		if err != nil {
			return nil, nil, "", 0, err
		}
		storeDir = filepath.Join(dir, "store")
		if srv, err = e.startServer(storeDir, files); err != nil {
			return nil, nil, "", 0, err
		}
		if _, err := srv.readyz(); err != nil {
			return nil, nil, "", 0, err
		}
		for _, i := range []int{0, families} { // one family and one foreign probe
			if _, err := srv.match(fx.probes[i].body); err != nil {
				return nil, nil, "", 0, fmt.Errorf("warm-up match: %w", err)
			}
		}
		took := time.Since(t0)
		last := rep == reps-1
		if drain {
			if last && beforeDrain != nil {
				if err := beforeDrain(fx, srv); err != nil {
					return nil, nil, "", 0, err
				}
			}
			t1 := time.Now()
			if err := srv.stop(); err != nil {
				return nil, nil, "", 0, err
			}
			took += time.Since(t1)
			srv = nil
		} else if !last {
			if err := srv.stop(); err != nil {
				return nil, nil, "", 0, err
			}
		}
		times = append(times, took.Seconds())
		if !last {
			os.RemoveAll(dir)
		}
	}
	return fx, srv, storeDir, median(times), nil
}

func ranking(resp *server.MatchResponse) []ranked {
	out := make([]ranked, len(resp.Candidates))
	for i, c := range resp.Candidates {
		out[i] = ranked{c.Schema, c.SchemaSim}
	}
	return out
}

// libraryRepo opens an in-process sharded repository configured like
// comaserve and stores the given schemas: the reference the served
// answers must equal.
func libraryRepo(dir string, stored []*schema.Schema) (*coma.ShardedRepository, error) {
	none, err := coma.ParseSyncPolicy("none")
	if err != nil {
		return nil, err
	}
	repo, err := coma.OpenShardedRepository(dir, shards, coma.WithWorkers(workers), coma.WithSyncPolicy(none),
		coma.WithAnalyzerLimit(256), coma.WithPersistentColumnCache(), coma.WithCandidateIndex())
	if err != nil {
		return nil, err
	}
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			repo.Close()
			return nil, err
		}
	}
	return repo, nil
}

func libraryRanking(repo *coma.ShardedRepository, in *schema.Schema) ([]ranked, error) {
	ms, err := repo.MatchIncoming(in, coma.TopK(topK))
	if err != nil {
		return nil, err
	}
	out := make([]ranked, len(ms))
	for i, m := range ms {
		out[i] = ranked{m.Schema.Name, m.Result.SchemaSim}
	}
	return out, nil
}

// servedLayers reports the server-side counters of one measured phase:
// queue wait and execution time per match, the client's remaining
// overhead, and the cache and pruning ratios with their base counts.
func servedLayers(res *result, before, after scrape, clientMS []float64) (pairs ratio) {
	per := func(name string) (float64, float64) {
		n := delta(before, after, name+"_count")
		if n == 0 {
			return 0, 0
		}
		return 1000 * delta(before, after, name+"_sum") / n, n
	}
	qw, n := per("coma_match_queue_wait_seconds")
	exec, _ := per("coma_match_exec_seconds")
	res.report["server.queue_wait_ms"] = named{Value: qw, Unit: "ms", N: int(n)}
	res.report["server.exec_ms"] = named{Value: exec, Unit: "ms", N: int(n)}
	if len(clientMS) > 0 {
		res.report["server.overhead_ms"] = named{Value: mean(clientMS) - qw - exec, Unit: "ms", N: len(clientMS)}
	}
	hitRatio := func(prefix string) ratio {
		h := delta(before, after, prefix+"_hits_total")
		m := delta(before, after, prefix+"_misses_total")
		return newRatio(h, h+m)
	}
	res.report["analysis.hit_ratio"] = hitRatio("coma_analyzer_cache")
	res.report["match.colcache_hit_ratio"] = hitRatio("coma_column_cache")
	res.report["candidates.prune_ratio"] = newRatio(delta(before, after, "coma_prune_skipped_total"),
		delta(before, after, "coma_prune_candidates_total"))
	pairs = newRatio(delta(before, after, "coma_prune_matched_total"), delta(before, after, "coma_prune_batches_total"))
	res.report["core.pairs_per_match"] = pairs
	return pairs
}

// latencyReport adds a latency series to the report under name_p50_ms
// and name_p95_ms (the tail quantile the sample supports).
func latencyReport(res *result, name string, xs []float64) latencySummary {
	s := summarize(xs)
	res.report[name+"_p50_ms"] = named{Value: s.P50, Unit: "ms", N: s.N}
	res.report[name+"_p95_ms"] = named{Value: s.Tail, Unit: "ms", N: s.N, Q: s.TailQ}
	return s
}

func commonReport(res *result, setupS float64, rss float64, throughput float64, ops int) {
	res.report["setup_s"] = named{Value: setupS, Unit: "s", N: setupReps}
	res.report["peak_rss_mb"] = named{Value: rss, Unit: "MiB", N: 1}
	res.report["throughput_ops_s"] = named{Value: throughput, Unit: "1/s", N: ops}
	res.report["failed_ratio"] = newRatio(float64(res.failed), float64(res.attempted))
}

// runServeTopK: open loop of seeded arrivals at a fixed rate, each an
// inline TopK POST /match over one connection; latency is timed from
// when a request was due.
func runServeTopK(e *env) (*result, error) {
	res := newResult()
	fx, srv, _, setupS, err := setUp(e, setupReps, false, nil)
	if err != nil {
		return nil, err
	}
	n := int(math.Round(serveRate * e.seconds))
	window := time.Duration(e.seconds * float64(time.Second))
	// One arrival per 1/rate slot, at a seeded uniform offset within its
	// slot. Poisson arrivals bunch: with about 60 of them a run, which
	// requests queue behind which moves the latency quantiles by ±20%
	// between seeds and between runs of one seed, hiding any change
	// smaller than that. Jittered slots keep the open loop and its fixed
	// rate while bounding how closely two requests can follow each other.
	slot := window / time.Duration(n)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i)*slot + time.Duration(fx.rng.Int63n(int64(slot)))
	}
	order := fx.probeOrder(fx.rng, n, true)

	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	type outcome struct {
		resp     *server.MatchResponse
		err      error
		lat, svc float64
	}
	outs := make([]outcome, n)
	lags := make([]float64, n) // how late the loop woke for a due time it waited for
	start := time.Now()
	// One connection. With two, a request's service time doubles whenever
	// it overlaps another on the two cores, and which ones overlap changes
	// from run to run. With one, every request runs alone; a request that
	// falls due while the previous one runs waits at the client and is
	// sent as soon as that one ends, its wait counted from its due time.
	for i := range due {
		at := start.Add(due[i])
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
			lags[i] = ms(time.Since(at))
		}
		sent := time.Now()
		resp, err := srv.match(fx.probes[order[i]].body)
		now := time.Now()
		outs[i] = outcome{resp, err, ms(now.Sub(at)), ms(now.Sub(sent))}
	}
	elapsed := time.Since(start)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	stored, err := fx.parsedStore(fx.xsdOf)
	if err != nil {
		return nil, err
	}
	lib, err := libraryRepo(filepath.Join(e.runDir, "reference"), stored)
	if err != nil {
		return nil, err
	}
	want := map[string][]ranked{}
	for _, p := range fx.probes {
		if want[p.name], err = libraryRanking(lib, p.parsed); err != nil {
			lib.Close()
			return nil, err
		}
	}
	lib.Close()

	var lat, svc []float64
	byKind := map[string][]float64{}
	for i, o := range outs {
		res.attempted++
		p := fx.probes[order[i]]
		if o.err == nil {
			byKind[p.kind] = append(byKind[p.kind], o.svc)
		}
		switch {
		case o.err != nil:
			res.fail("request %d (%s): %v", i, p.name, o.err)
		case !sameRanking(ranking(o.resp), want[p.name]):
			res.fail("request %d (%s): served TopK %v, library %v", i, p.name, ranking(o.resp), want[p.name])
		default:
			lat = append(lat, o.lat)
			svc = append(svc, o.svc)
		}
	}
	lag := quantile(lags, 0.95)
	if lag > 50 {
		res.fail("load generator ran %.1f ms late at p95; the arrival schedule did not hold", lag)
	}

	s := latencyReport(res, "match", lat)
	throughput := float64(len(lat)) / elapsed.Seconds()
	res.e2e["setup_s"] = metric{setupS, "s"}
	res.e2e["latency_p50_ms"] = metric{s.P50, "ms"}
	res.e2e["latency_tail_ms"] = metric{s.Tail, "ms"}
	res.e2e["throughput_ops_s"] = metric{throughput, "1/s"}
	res.e2e["peak_rss_mb"] = metric{rss, "MiB"}
	commonReport(res, setupS, rss, throughput, len(lat))
	res.report["loadgen.lag_p95_ms"] = named{Value: lag, Unit: "ms", N: len(lags)}
	for kind, xs := range byKind {
		res.report["service_"+kind+"_p50_ms"] = named{Value: median(xs), Unit: "ms", N: len(xs)}
	}
	res.report["arrivals"] = map[string]any{"n": n, "rate_per_s": serveRate, "window_s": e.seconds}
	pairs := servedLayers(res, before, after, svc)
	fmt.Printf("serve-topk: %d requests at %.2f/s, p50 %.1f ms, p%.0f %.1f ms\n", n, serveRate, s.P50, 100*s.TailQ, s.Tail)

	if e.trace {
		// One full cycle of the order, then the foreign probes it left
		// out, so the replay matches every probe the run sent.
		reqs := append([]int(nil), order[:min(len(order), 2*families+1)]...)
		for i := families; i < len(fx.probes); i++ {
			if !slices.Contains(reqs, i) {
				reqs = append(reqs, i)
			}
		}
		if err := traceRequests(e, res, fx, stored, reqs, order, want, pairs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// loadReplay builds an in-process replay store holding the schemas.
func loadReplay(stored []*schema.Schema) *replayStore {
	rs := newReplayStore()
	off := newTracer(false)
	for _, s := range stored {
		rs.put(off, 0, -1, s)
	}
	return rs
}

// replayRequest replays one inline TopK request: parse, analysis of
// the incoming schema, bounds, pair matches and merge. It returns the
// ranking and the number of pairs matched.
func replayRequest(tr *tracer, rs *replayStore, req, parent int, p probe) ([]ranked, int, error) {
	id := tr.begin(req, parent, "parse")
	in, err := importer.ParseAs(p.name, "xsd", []byte(p.xsd))
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	x := rs.analyze(tr, req, parent, in)
	return rs.topK(tr, req, parent, in, x, topK)
}

// sentPairs is the number of pairs the replay matched for all the
// probes a run sent, from the count per probe.
func sentPairs(sent []int, pairsOf map[int]int) float64 {
	total := 0
	for _, i := range sent {
		total += pairsOf[i]
	}
	return float64(total)
}

// traceRequests replays the requests (probe indexes) untraced and
// traced, and checks the pairs the replay matches for the sent probes
// against the served count.
func traceRequests(e *env, res *result, fx *fixture, stored []*schema.Schema, reqs, sent []int, want map[string][]ranked, served ratio) error {
	rs := loadReplay(stored)
	pairsOf := map[int]int{}
	tr, untraced, traced, err := replayBoth(len(reqs), func(tr *tracer, _, req int) error {
		p := fx.probes[reqs[req]]
		root := tr.begin(req, -1, "request")
		got, pairs, err := replayRequest(tr, rs, req, root, p)
		tr.end(root)
		if err != nil {
			return err
		}
		pairsOf[reqs[req]] = pairs
		if !sameRanking(got, want[p.name]) {
			res.fail("traced replay of %s ranks %v, library %v", p.name, got, want[p.name])
		}
		return nil
	})
	if err != nil {
		return err
	}
	checkPairs(res, served, sentPairs(sent, pairsOf))
	layerMetrics(res, rs, tr, untraced, traced, served.Value)
	spanReport(res, tr, map[string]string{"importer.parse_ms": "parse", "candidates.bounds_ms": "bounds", "merge_ms": "merge"})
	return writeTrace(e, tr)
}

// shuffled returns an endless picker over xs that hands out every
// element once per round, each round in a new seeded order.
func shuffled[T any](rng *rand.Rand, xs []T) func() T {
	var round []T
	return func() T {
		if len(round) == 0 {
			round = append([]T(nil), xs...)
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		}
		x := round[0]
		round = round[1:]
		return x
	}
}

// ingestOp is one operation of an ingest-mix connection.
type ingestOp struct {
	put   bool
	name  string
	rev   int           // the revision a PUT stores
	start time.Duration // when it was sent, from the start of the phase
	lat   float64
	err   error
}

func familyOf(name string) (f, r int) {
	parts := strings.Split(name, "-") // corp-<family>-<revision>
	f, _ = strconv.Atoi(parts[1])
	r, _ = strconv.Atoi(parts[2])
	return f, r
}

// runIngestMix: closed loop over two connections, each drawing its next
// operation from shuffled blocks of four PUTs and one by-name POST
// /match. A PUT replaces one of the connection's own names with the next
// revision of its family, so the final store depends only on the seed.
func runIngestMix(e *env) (*result, error) {
	res := newResult()
	fx, srv, _, setupS, err := setUp(e, setupReps, false, nil)
	if err != nil {
		return nil, err
	}
	byFamily := make([][]string, families)
	for _, name := range fx.stored {
		f, _ := familyOf(name)
		byFamily[f] = append(byFamily[f], name)
	}
	putBody := make([][][]byte, families)
	for f := range putBody {
		putBody[f] = make([][]byte, familySize)
		for r := range putBody[f] {
			if putBody[f][r], err = json.Marshal(server.SchemaPayload{Format: "xsd", Source: fx.revXSD[f][r]}); err != nil {
				return nil, err
			}
		}
	}
	matchBody := func(name string) []byte {
		b, _ := json.Marshal(server.MatchRequest{Schema: server.SchemaPayload{Name: name}, TopK: topK}) // strings and ints always marshal
		return b
	}
	seeds := [workers]int64{fx.rng.Int63(), fx.rng.Int63()}

	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	var logs [workers][]ingestOp
	finals := [workers]map[string]int{}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seeds[c]))
			// Connection c owns the families f with f % workers == c.
			var fams []int
			var owned []string
			cur := map[string]int{}
			for f := c; f < families; f += workers {
				fams = append(fams, f)
				owned = append(owned, byFamily[f]...)
			}
			for _, name := range owned {
				_, cur[name] = familyOf(name)
			}
			// Matching costs up to 2.5 times more in one family than in
			// another, so targets come in shuffled rounds, not at random.
			nextPut, nextFamily := shuffled(rng, owned), shuffled(rng, fams)
			for time.Now().Before(deadline) {
				block := []bool{true, true, true, true, false}
				rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
				for _, put := range block {
					op := ingestOp{put: put}
					var t0 time.Time
					if put {
						op.name = nextPut()
						f, _ := familyOf(op.name)
						op.rev = (cur[op.name] + 1) % familySize
						t0 = time.Now()
						op.err = srv.do("PUT", "/schemas/"+op.name, putBody[f][op.rev], nil)
						if op.err == nil {
							cur[op.name] = op.rev
						}
					} else {
						names := byFamily[nextFamily()]
						op.name = names[rng.Intn(len(names))]
						t0 = time.Now()
						_, op.err = srv.match(matchBody(op.name))
					}
					op.start, op.lat = t0.Sub(start), ms(time.Since(t0))
					logs[c] = append(logs[c], op)
				}
			}
			finals[c] = cur
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}

	var puts, matches []float64
	for c := range logs {
		for _, op := range logs[c] {
			res.attempted++
			switch {
			case op.err != nil:
				res.fail("%v", op.err)
			case op.put:
				puts = append(puts, op.lat)
			default:
				matches = append(matches, op.lat)
			}
		}
	}

	// Served answers on the final store must equal a fresh library
	// repository holding the same final contents.
	finalXSD := map[string]string{}
	for c := range finals {
		for name, r := range finals[c] {
			f, _ := familyOf(name)
			finalXSD[name] = fx.revXSD[f][r]
		}
	}
	var list server.SchemasResponse
	if err := srv.do("GET", "/schemas", nil, &list); err != nil {
		return nil, err
	}
	res.attempted++
	if len(list.Schemas) != len(fx.stored) {
		res.fail("final store holds %d schemas, want %d", len(list.Schemas), len(fx.stored))
	}
	var checks []string
	for _, names := range byFamily {
		checks = append(checks, names[fx.rng.Intn(len(names))])
	}
	served := map[string][]ranked{}
	for _, name := range checks {
		resp, err := srv.match(matchBody(name))
		if err != nil {
			return nil, err
		}
		served[name] = ranking(resp)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	stored, err := fx.parsedStore(finalXSD)
	if err != nil {
		return nil, err
	}
	lib, err := libraryRepo(filepath.Join(e.runDir, "reference"), stored)
	if err != nil {
		return nil, err
	}
	byName := map[string]*schema.Schema{}
	for _, s := range stored {
		byName[s.Name] = s
	}
	for _, name := range checks {
		res.attempted++
		want, err := libraryRanking(lib, byName[name])
		if err != nil {
			lib.Close()
			return nil, err
		}
		if !sameRanking(served[name], want) {
			res.fail("final store, match %s: served %v, library %v", name, served[name], want)
		}
	}
	lib.Close()

	all := append(append([]float64(nil), puts...), matches...)
	s := summarize(all)
	latencyReport(res, "put", puts)
	latencyReport(res, "match", matches)
	throughput := float64(len(all)) / elapsed.Seconds()
	res.e2e["setup_s"] = metric{setupS, "s"}
	res.e2e["latency_p50_ms"] = metric{s.P50, "ms"}
	res.e2e["latency_tail_ms"] = metric{s.Tail, "ms"}
	res.e2e["throughput_ops_s"] = metric{throughput, "1/s"}
	res.e2e["peak_rss_mb"] = metric{rss, "MiB"}
	commonReport(res, setupS, rss, throughput, len(all))
	pairs := servedLayers(res, before, after, nil)
	fsyncs := delta(before, after, "coma_storage_fsync_seconds_count")
	res.report["repository.fsyncs_per_put"] = newRatio(fsyncs, float64(len(puts)))
	if fsyncs > 0 {
		res.report["repository.fsync_ms"] = named{Value: 1000 * delta(before, after, "coma_storage_fsync_seconds_sum") / fsyncs, Unit: "ms", N: int(fsyncs)}
	}
	fmt.Printf("ingest-mix: %d PUTs (p50 %.2f ms), %d matches (p50 %.1f ms), %.1f ops/s\n",
		len(puts), median(puts), len(matches), median(matches), throughput)

	if e.trace {
		initial, err := fx.parsedStore(fx.xsdOf)
		if err != nil {
			return nil, err
		}
		if err := traceIngest(e, res, fx, initial, logs, pairs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceIngest replays the run's first 100 operations in the order they
// were sent against an in-process store under the same sync policy.
func traceIngest(e *env, res *result, fx *fixture, initial []*schema.Schema, logs [workers][]ingestOp, served ratio) error {
	var ops []ingestOp
	for c := range logs {
		for _, op := range logs[c] {
			if op.err == nil {
				ops = append(ops, op)
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	ops = ops[:min(len(ops), 100)]
	policy, err := repository.ParseSyncPolicy(ingestSync)
	if err != nil {
		return err
	}
	// The untraced and the traced side each mutate a store of their own.
	var stores [2]*repository.Sharded
	var models [2]*replayStore
	for side := range stores {
		store, err := repository.OpenSharded(filepath.Join(e.runDir, fmt.Sprintf("replay%d", side)), shards, repository.WithSyncPolicy(policy))
		if err != nil {
			return err
		}
		defer store.Close()
		for _, s := range initial {
			if err := store.PutSchema(s); err != nil {
				return err
			}
		}
		stores[side], models[side] = store, loadReplay(initial)
	}
	var pairs, matches int
	tr, untraced, traced, err := replayBoth(len(ops), func(tr *tracer, side, req int) error {
		op, rs := ops[req], models[side]
		if !op.put {
			root := tr.begin(req, -1, "match")
			_, n, err := rs.topK(tr, req, root, rs.schemas[op.name], rs.index[op.name], topK)
			tr.end(root)
			if side == 0 {
				pairs, matches = pairs+n, matches+1
			}
			return err
		}
		f, _ := familyOf(op.name)
		root := tr.begin(req, -1, "put")
		id := tr.begin(req, root, "parse")
		s, err := importer.ParseAs(op.name, "xsd", []byte(fx.revXSD[f][op.rev]))
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(req, root, "repository.put")
		err = stores[side].PutSchema(s)
		tr.end(id)
		if err != nil {
			return err
		}
		rs.put(tr, req, root, s)
		tr.end(root)
		return nil
	})
	if err != nil {
		return err
	}
	// The replay covers the first operations only, and the two connections'
	// operations overlapped on the server, so its pairs per match can only
	// come close to the served figure, not equal it.
	replayed := newRatio(float64(pairs), float64(matches))
	res.report["replay.pairs_per_match"] = replayed
	if math.Abs(replayed.Value-served.Value) > ingestPairSlack*served.Value {
		res.fail("the server matched %.1f pairs per match, the replay %.1f", served.Value, replayed.Value)
	}
	cs := models[0].cols.Stats()
	res.report["replay.colcache_hit_ratio"] = newRatio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	layerMetrics(res, models[0], tr, untraced, traced, served.Value)
	spanReport(res, tr, map[string]string{"importer.parse_ms": "parse", "candidates.bounds_ms": "bounds",
		"candidates.add_ms": "candidates.add", "repository.put_ms": "repository.put", "merge_ms": "merge"})
	return writeTrace(e, tr)
}

// pageFileBytes sums the sizes of the store's page files.
func pageFileBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".pages") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// runRestart: a store checkpointed by graceful drain is served again
// and again: start comaserve, wait for /readyz, send the first POST
// /match, SIGTERM. The first match carries a family probe: a foreign one
// costs about three family ones and would make the latency bimodal.
func runRestart(e *env) (*result, error) {
	res := newResult()
	want := map[string][]ranked{}
	collect := func(fx *fixture, srv *serverProc) error {
		for _, p := range fx.probes[:families] {
			resp, err := srv.match(p.body)
			if err != nil {
				return err
			}
			want[p.name] = ranking(resp)
		}
		return nil
	}
	fx, _, storeDir, setupS, err := setUp(e, setupReps, true, collect)
	if err != nil {
		return nil, err
	}
	pageBytes, err := pageFileBytes(storeDir)
	if err != nil {
		return nil, err
	}
	pagesPerShard := float64(pageBytes) / float64(repository.DefaultPageSize) / shards
	if restartPageCache >= pagesPerShard {
		return nil, fmt.Errorf("restart: -page-cache %d pages is not smaller than the page file (%.1f pages per shard)", restartPageCache, pagesPerShard)
	}

	var ready, first, rss []float64
	var hits, misses, anHits, anMisses, pruneMatched, pruneBatches, restored float64
	order := fx.probeOrder(fx.rng, 4096, false)
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	start := time.Now()
	cycles := 0
	for ; time.Now().Before(deadline); cycles++ {
		p := fx.probes[order[cycles]]
		res.attempted++
		srv, err := e.startServer(storeDir, nil)
		if err != nil {
			return nil, err
		}
		rz, err := srv.readyz()
		if err != nil {
			return nil, err
		}
		r := ms(time.Since(srv.started))
		resp, err := srv.match(p.body)
		fm := ms(time.Since(srv.started))
		switch {
		case err != nil:
			res.fail("cycle %d: %v", cycles, err)
		case rz.WarmStart == nil || !rz.WarmStart.Used:
			res.fail("cycle %d: /readyz reports no warm start", cycles)
		case !sameRanking(ranking(resp), want[p.name]):
			res.fail("cycle %d (%s): first match %v, before restart %v", cycles, p.name, ranking(resp), want[p.name])
		default:
			ready = append(ready, r)
			first = append(first, fm)
			restored += float64(rz.WarmStart.RestoredSchemas)
		}
		m, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		hits += m.sum("coma_pagecache_hits_total")
		misses += m.sum("coma_pagecache_misses_total")
		anHits += m.sum("coma_analyzer_cache_hits_total")
		anMisses += m.sum("coma_analyzer_cache_misses_total")
		pruneMatched += m.sum("coma_prune_matched_total")
		pruneBatches += m.sum("coma_prune_batches_total")
		mb, err := srv.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	s := latencyReport(res, "first_match", first)
	latencyReport(res, "ready", ready)
	throughput := float64(len(first)) / elapsed.Seconds()
	res.e2e["setup_s"] = metric{setupS, "s"}
	res.e2e["latency_p50_ms"] = metric{s.P50, "ms"}
	res.e2e["latency_tail_ms"] = metric{s.Tail, "ms"}
	res.e2e["throughput_ops_s"] = metric{throughput, "1/s"}
	res.e2e["peak_rss_mb"] = metric{median(rss), "MiB"}
	commonReport(res, setupS, median(rss), throughput, len(first))
	res.report["repository.pagecache_hit_ratio"] = newRatio(hits, hits+misses)
	res.report["analysis.hit_ratio"] = newRatio(anHits, anHits+anMisses)
	res.report["core.pairs_per_match"] = newRatio(pruneMatched, pruneBatches)
	res.report["warm.restored_schemas"] = named{Value: restored / float64(len(first)), Unit: "count", N: len(first)}
	res.report["page_file"] = map[string]any{"bytes": pageBytes, "page_size": repository.DefaultPageSize,
		"pages_per_shard": pagesPerShard, "page_cache_per_shard": restartPageCache}
	fmt.Printf("restart: %d cycles, ready p50 %.1f ms, first match p50 %.1f ms\n", cycles, median(ready), s.P50)

	if e.trace {
		// Each family probe once, in the order the cycles first sent them.
		var reqs []int
		for _, i := range order[:cycles] {
			if !slices.Contains(reqs, i) {
				reqs = append(reqs, i)
			}
		}
		served := newRatio(pruneMatched, pruneBatches)
		if err := traceRestart(e, res, fx, storeDir, reqs, order[:cycles], want, served); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceRestart replays restart cycles in process: the open with warm
// restore, as comaserve opens the store, then the first match with the
// stored analyses already in place (as the warm restore leaves them).
// The storage open alone is timed on its own, outside the cycles, and
// the warm restore is the difference of the two opens.
func traceRestart(e *env, res *result, fx *fixture, storeDir string, reqs, sent []int, want map[string][]ranked, served ratio) error {
	policy, err := repository.ParseSyncPolicy("always")
	if err != nil {
		return err
	}
	var storageOpen []float64
	for range len(reqs) {
		t0 := time.Now()
		store, err := repository.OpenSharded(storeDir, shards, repository.WithSyncPolicy(policy), repository.WithPageCache(restartPageCache))
		d := time.Since(t0)
		if err != nil {
			return err
		}
		store.Close()
		storageOpen = append(storageOpen, ms(d))
	}
	stored, err := fx.parsedStore(fx.xsdOf)
	if err != nil {
		return err
	}
	rs := loadReplay(stored)
	pairsOf := map[int]int{}
	var restoredSchemas float64
	tr, untraced, traced, err := replayBoth(len(reqs), func(tr *tracer, side, req int) error {
		p := fx.probes[reqs[req]]
		root := tr.begin(req, -1, "restart")
		id := tr.begin(req, root, "open")
		repo, err := coma.OpenShardedRepository(storeDir, shards, coma.WithWorkers(workers), coma.WithSyncPolicy(policy),
			coma.WithAnalyzerLimit(256), coma.WithPersistentColumnCache(), coma.WithCandidateIndex(), coma.WithPageCache(restartPageCache))
		tr.end(id)
		if err != nil {
			return err
		}
		defer repo.Close()
		got, pairs, err := replayRequest(tr, rs, req, root, p)
		tr.end(root)
		if err != nil {
			return err
		}
		if !sameRanking(got, want[p.name]) {
			res.fail("traced replay of %s ranks %v, before restart %v", p.name, got, want[p.name])
		}
		if side == 0 {
			pairsOf[reqs[req]] = pairs
			restoredSchemas += float64(repo.WarmStart().Restored)
		}
		return nil
	})
	if err != nil {
		return err
	}
	checkPairs(res, served, sentPairs(sent, pairsOf))
	layerMetrics(res, rs, tr, untraced, traced, served.Value)
	spanReport(res, tr, map[string]string{"importer.parse_ms": "parse", "candidates.bounds_ms": "bounds",
		"open_ms": "open", "merge_ms": "merge"})
	res.report["repository.open_ms"] = named{Value: median(storageOpen), Unit: "ms", N: len(storageOpen)}
	open := tr.durations("open")
	res.report["warm.restore_ms"] = named{Value: median(open) - median(storageOpen), Unit: "ms", N: len(open)}
	res.report["warm.restored_schemas_inprocess"] = named{Value: restoredSchemas / float64(len(reqs)), Unit: "count", N: len(reqs)}
	return writeTrace(e, tr)
}
