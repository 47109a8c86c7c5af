// Command comaserve runs the COMA repository as a network service: a
// sharded schema store with one match engine behind the HTTP/JSON API
// of internal/server. It is the serving shape of the
// paper's architecture — many clients import schemas into a shared
// repository and ask which stored schemas an incoming one resembles.
//
// Usage:
//
//	comaserve -addr :8402 -repo ./coma.shards -shards 4
//	comaserve -addr :8402 -repo ./coma.shards -shards 4 -workers 8
//	comaserve -repo ./coma.shards -shards 4 -match-timeout 30s -queue-limit 128
//	comaserve -repo ./coma.shards -shards 4 schemas/*.xsd   # preload files
//
// Endpoints (see package repro/internal/server):
//
//	GET    /healthz          liveness + store size
//	GET    /readyz           readiness + admission queue state
//	GET    /metrics          Prometheus text-format metrics
//	GET    /schemas          stored schemas
//	PUT    /schemas/{name}   import an inline schema
//	GET    /schemas/{name}   one schema's paths
//	DELETE /schemas/{name}   remove a schema
//	POST   /match            batch-match a schema against the store
//
// The -shards count is fixed when the repository directory is created;
// reopening with a different count fails. -workers bounds both the
// match scheduler's parallelism and the number of concurrently
// executing match requests.
//
// Robustness: -match-timeout bounds each admitted match request (0
// disables the deadline; client disconnects always cancel the match
// cooperatively), -queue-limit bounds how many match requests may wait
// for an execution slot before the server sheds load with 429 +
// Retry-After (0 = unbounded), and -queue-timeout bounds one request's
// wait before it is answered 503. On SIGINT/SIGTERM the server drains:
// /readyz flips to 503 so load balancers stop routing, new matches are
// shed, and in-flight requests finish before the process exits.
//
// Cache lifecycle: inline schemas posted to /match are analyzed per
// request and their analyses evicted at batch end (stored schemas stay
// pinned and warm), -analyzer-limit additionally bounds the engine's
// analysis cache as a backstop (0 disables the bound), and the
// engine-scoped persistent column cache — warm name-similarity columns
// across repeated matches of a stored schema — is on by default
// (-colcache=false restores per-batch column reuse).
//
// Paged storage and warm restarts: each checkpoint writes the shard
// state into a slotted page file served through a capacity-bounded
// buffer pool (-page-cache bounds it per shard, in pages) and saves a
// warm-restart sidecar next to the logs — the stored schemas' analysis
// artifacts and cached similarity columns. A restart replays the pages
// plus the short log tail and seeds its caches from the sidecar, so
// the first matches after a restart skip re-analyzing the store;
// /readyz reports both the buffer pool and the warm-start outcome. The
// sidecar is advisory: any mismatch (changed dictionary, replaced
// schema, damage) falls back to cold analysis, never wrong answers.
//
// Durability: -sync selects the shard logs' fsync cadence — "always"
// (default; an acknowledged PUT survives any crash), a group-commit
// interval like "50ms" (higher import throughput; a crash loses at
// most the last interval), or "none" (tests). -checkpoint compacts
// each shard log into a snapshot on a period so restart replays stay
// short; a final checkpoint always runs during graceful shutdown.
// Startup logs any shard whose log needed recovery (salvage, torn-tail
// truncation, v1 upgrade), and /readyz reports per-shard recovery
// state.
//
// Observability: GET /metrics serves the full instrument set in
// Prometheus text format — per-endpoint request counts and latency
// histograms, admission-queue depth/wait/shed counters, analyzer and
// column cache hit/miss/eviction counters, cumulative candidate-prune
// counters, and storage durability timings (append fsync, group-commit
// flush, checkpoint duration, recovery outcomes). Metrics are on by
// default (-metrics=false disables the registry and the endpoint);
// -log-requests additionally emits one structured log line per request
// to stderr. Load-shedding responses derive their Retry-After hint
// from current queue occupancy and observed match time instead of a
// fixed constant.
//
// Repository-scale matching: -candidate-index (on by default)
// maintains the candidate-pruning index over the stored schemas, so
// TopK match requests skip candidates whose cheap similarity upper
// bound cannot reach the TopK — same ranking, sublinear work. Clients
// opt out per request with "exhaustive": true; /readyz reports the
// index size and the last request's prune ratio.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	coma "repro"
)

// serveConfig carries everything run needs; main fills it from flags,
// tests construct it directly.
type serveConfig struct {
	addr      string
	repoDir   string
	shards    int
	workers   int
	anLimit   int
	colcache  bool
	candIndex bool
	// pageCache bounds each shard's page buffer pool, in pages (0 =
	// storage default).
	pageCache int
	// matchTimeout bounds each admitted match (0 = no deadline).
	matchTimeout time.Duration
	// queueLimit bounds waiting match requests (0 = server default,
	// negative = unbounded).
	queueLimit int
	// queueTimeout bounds one request's slot wait (0 = server default,
	// negative = unbounded).
	queueTimeout time.Duration
	// sync is the shard logs' durability policy in flag form ("always",
	// "none", "interval" or a duration; "" = always).
	sync string
	// checkpoint > 0 compacts each shard log into a snapshot on this
	// period (and once more on shutdown); 0 disables periodic
	// checkpoints.
	checkpoint time.Duration
	// metrics serves GET /metrics and keeps the instrument registry
	// (on by default).
	metrics bool
	// logRequests emits one structured log line per finished request.
	logRequests bool
	// preload lists schema files imported before serving.
	preload []string
	// ready, when non-nil, receives the bound listen address once the
	// server accepts connections (tests listen on ":0").
	ready chan<- string
}

func main() {
	var (
		addr         = flag.String("addr", ":8402", "listen address")
		repoDir      = flag.String("repo", "coma.shards", "sharded repository directory")
		shards       = flag.Int("shards", 4, "shard count (fixed when the repository is created)")
		workers      = flag.Int("workers", 0, "match worker bound and in-flight match limit (0 = all CPUs)")
		anLimit      = flag.Int("analyzer-limit", 256, "bound on the engine's cached transient schema analyses (0 = unbounded)")
		colcache     = flag.Bool("colcache", true, "persist name-similarity columns across batches (engine-scoped column cache)")
		candIndex    = flag.Bool("candidate-index", true, "maintain the candidate-pruning index (TopK matches skip hopeless candidates; clients opt out per request with \"exhaustive\")")
		pageCache    = flag.Int("page-cache", 0, "page buffer pool bound per shard, in pages (0 = storage default)")
		matchTimeout = flag.Duration("match-timeout", 0, "per-request match deadline, e.g. 30s (0 = none; timed-out matches answer 504)")
		queueLimit   = flag.Int("queue-limit", 64, "max match requests waiting for a slot before shedding with 429 (negative = unbounded)")
		queueTimeout = flag.Duration("queue-timeout", 30*time.Second, "max wait for a match slot before answering 503 (negative = unbounded)")
		syncPolicy   = flag.String("sync", "always", "log durability: always (fsync per write), none, or a group-commit interval like 50ms")
		checkpoint   = flag.Duration("checkpoint", 0, "period between shard-log checkpoint snapshots (0 = only on shutdown drain)")
		metricsOn    = flag.Bool("metrics", true, "serve Prometheus text-format metrics at GET /metrics")
		logRequests  = flag.Bool("log-requests", false, "emit one structured log line per request to stderr")
	)
	flag.Parse()
	cfg := serveConfig{
		addr:         *addr,
		repoDir:      *repoDir,
		shards:       *shards,
		workers:      *workers,
		anLimit:      *anLimit,
		colcache:     *colcache,
		candIndex:    *candIndex,
		pageCache:    *pageCache,
		matchTimeout: *matchTimeout,
		queueLimit:   *queueLimit,
		queueTimeout: *queueTimeout,
		sync:         *syncPolicy,
		checkpoint:   *checkpoint,
		metrics:      *metricsOn,
		logRequests:  *logRequests,
		preload:      flag.Args(),
	}
	// The flag's zero means "unbounded" to operators; the server's zero
	// selects its default, so map 0 → unbounded explicitly.
	if cfg.queueLimit == 0 {
		cfg.queueLimit = -1
	}
	if cfg.queueTimeout == 0 {
		cfg.queueTimeout = -1
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "comaserve:", err)
		os.Exit(1)
	}
}

// run opens the repository, optionally preloads schema files, and
// serves until SIGINT/SIGTERM, then drains (readiness flips to 503,
// new matches are shed) and shuts down gracefully.
func run(cfg serveConfig) error {
	policy, err := coma.ParseSyncPolicy(cfg.sync)
	if err != nil {
		return err
	}
	opts := []coma.Option{coma.WithWorkers(cfg.workers), coma.WithSyncPolicy(policy)}
	if cfg.anLimit > 0 {
		opts = append(opts, coma.WithAnalyzerLimit(cfg.anLimit))
	}
	if cfg.colcache {
		opts = append(opts, coma.WithPersistentColumnCache())
	}
	if cfg.candIndex {
		opts = append(opts, coma.WithCandidateIndex())
	}
	if cfg.pageCache > 0 {
		opts = append(opts, coma.WithPageCache(cfg.pageCache))
	}
	repo, err := coma.OpenShardedRepository(cfg.repoDir, cfg.shards, opts...)
	if err != nil {
		return err
	}
	defer repo.Close()
	for i, rep := range repo.Reports() {
		if !rep.Clean() {
			fmt.Fprintf(os.Stderr, "comaserve: shard %d recovery: %s\n", i, rep)
		}
	}
	if ws := repo.WarmStart(); ws.Attempted {
		if ws.Used {
			fmt.Fprintf(os.Stderr,
				"comaserve: warm start: restored %d schema analyses and %d similarity columns (%d entries discarded)\n",
				ws.Restored, ws.Columns, ws.Discarded)
		} else {
			fmt.Fprintln(os.Stderr,
				"comaserve: warm start: sidecar present but invalid (sources changed or damaged); starting cold")
		}
	}

	for _, path := range cfg.preload {
		s, err := coma.LoadFile(path)
		if err != nil {
			return fmt.Errorf("preload %s: %w", path, err)
		}
		if err := repo.PutSchema(s); err != nil {
			return fmt.Errorf("preload %s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "comaserve: loaded %s (%d paths)\n", s.Name, len(s.Paths()))
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	serveOpts := []coma.ServeOption{
		coma.WithMatchTimeout(cfg.matchTimeout),
		coma.WithQueueLimit(cfg.queueLimit),
		coma.WithQueueTimeout(cfg.queueTimeout),
		coma.WithMetrics(cfg.metrics),
	}
	if cfg.logRequests {
		serveOpts = append(serveOpts,
			coma.WithRequestLog(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}
	handler := repo.Handler(serveOpts...)
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st := repo.Stats()
	fmt.Fprintf(os.Stderr, "comaserve: serving %d schemas in %d shards on %s\n",
		st.Schemas, repo.NumShards(), ln.Addr())
	if cfg.ready != nil {
		cfg.ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// Periodic checkpoints bound restart replay: each compacts the live
	// state into a snapshot and truncates the logs, so reopening replays
	// the snapshot plus at most one period of log suffix. The loop stops
	// with ctx, and run waits for it before the final checkpoint and the
	// deferred Close, so no periodic checkpoint overlaps either.
	ckptDone := make(chan struct{})
	defer func() {
		stop()
		<-ckptDone
	}()
	if cfg.checkpoint <= 0 {
		close(ckptDone)
	} else {
		go func() {
			defer close(ckptDone)
			t := time.NewTicker(cfg.checkpoint)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := repo.Checkpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "comaserve: checkpoint:", err)
					}
				}
			}
		}()
	}
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		stop()
		// Drain first: /readyz answers 503 and new matches are shed, so
		// load balancers stop routing while Shutdown waits for in-flight
		// requests to finish.
		handler.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		fmt.Fprintln(os.Stderr, "comaserve: draining and shutting down")
		err := srv.Shutdown(shutdownCtx)
		<-ckptDone
		// With the store quiesced, checkpoint so the next boot replays a
		// snapshot instead of the whole log.
		if cerr := repo.Checkpoint(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}
}
