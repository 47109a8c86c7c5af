// Command perfbench is the repository benchmark: four seeded workloads
// against the code of the checkout it is built from, each checked for
// correct answers, with end-to-end metrics from an untraced run and
// per-layer metrics from a traced one.
//
//	bash perfbench/run.sh --pair-digest <sha256> --workload pair-match --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve-topk --seed 1 --seconds 20 --steady 5
//
// The pair-match digest is the one in BENCHMARK.json's command.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - pair-match: the paper's ten purchase-order tasks through coma.Match,
//     in process, closed loop, one caller.
//   - serve-topk: open-loop seeded arrivals of inline TopK POST /match
//     requests at a fixed rate against a real comaserve.
//   - ingest-mix: closed loop over two connections, four PUTs per
//     by-name POST /match, under a stated fsync policy.
//   - restart: start comaserve on a checkpointed store, wait for
//     /readyz, serve the first match, SIGTERM; repeated.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). The line before it is a JSON report
// with every metric by its full name, unit and sample count, the ratio
// metrics with their base counts, and the run's environment.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// env is one invocation's settings.
type env struct {
	root, out  string
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	serveBin   string
	runDir     string
	pairDigest string
}

// metric is one named value of the final line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run produces.
type result struct {
	attempted, failed int
	wrong             []string // descriptions of failed checks
	e2e               map[string]metric
	layers            map[string]metric
	report            map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}, report: map[string]any{}}
}

// fail records one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// named is a report entry: a value with its unit and sample count.
type named struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q     float64 `json:"quantile,omitempty"`
}

// ratio is a report entry for a ratio metric with its base counts.
type ratio struct {
	Value float64 `json:"value"`
	Num   float64 `json:"num"`
	Den   float64 `json:"den"`
}

func newRatio(num, den float64) ratio {
	r := ratio{Num: num, Den: den}
	if den > 0 {
		r.Value = num / den
	}
	return r
}

var endToEnd = []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_ops_s", "peak_rss_mb"}

var perLayer = []string{
	"analysis.index_ms", "match.name_ms", "match.namepath_ms", "match.typename_ms",
	"match.children_ms", "match.leaves_ms", "core.combine_ms", "match.allocs_per_pair",
	"core.pairs_per_match", "trace.coverage", "trace.overhead",
}

var workloads = map[string]func(*env) (*result, error){
	"pair-match": runPairMatch,
	"serve-topk": runServeTopK,
	"ingest-mix": runIngestMix,
	"restart":    runRestart,
}

func main() {
	e := &env{}
	flag.StringVar(&e.root, "root", ".", "checkout root (holds cmd/comaserve)")
	flag.StringVar(&e.out, "out", ".bench_build", "directory for binaries, stores and traces")
	flag.StringVar(&e.workload, "workload", "", "pair-match, serve-topk, ingest-mix or restart")
	flag.Int64Var(&e.seed, "seed", 1, "input seed")
	flag.Float64Var(&e.seconds, "seconds", 15, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&e.pairDigest, "pair-digest", "", "expected sha256 of the ten pair-match mappings (required for pair-match)")
	steady := flag.Int("steady", 0, "run the workload k times on seeds seed..seed+k-1 and print each metric's median and quartile spread")
	flag.Parse()
	e.trace = *traceFlag == 1

	run, ok := workloads[e.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", e.workload)
		os.Exit(2)
	}
	if e.workload == "pair-match" && e.pairDigest == "" {
		fmt.Fprintln(os.Stderr, "perfbench: pair-match needs --pair-digest (BENCHMARK.json's command holds it)")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*steady, e.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	e.serveBin = filepath.Join(e.out, "comaserve")
	e.runDir = filepath.Join(e.out, "runs", fmt.Sprintf("%s-%d-%d", e.workload, e.seed, os.Getpid()))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.RemoveAll(e.runDir)
		os.Exit(1)
	}()

	res, err := run(e)
	stopAll()
	os.RemoveAll(e.runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(e, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printResult(e *env, res *result) error {
	want, got := endToEnd, res.e2e
	if e.trace {
		want, got = perLayer, res.layers
	}
	metrics := map[string]metric{}
	for _, name := range want {
		m, ok := got[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s was not measured", e.workload, name)
		}
		metrics[name] = m
	}
	for _, w := range res.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", w)
	}
	res.report["env"] = environment(e)
	res.report["checks_failed"] = res.wrong
	report, err := json.Marshal(map[string]any{"report": res.report})
	if err != nil {
		return err
	}
	fmt.Println(string(report))
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// environment records what the numbers depend on besides the code.
func environment(e *env) map[string]any {
	return map[string]any{
		"workload":           e.workload,
		"seed":               e.seed,
		"seconds":            e.seconds,
		"trace":              e.trace,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"commit":             commit(e.root),
		"corpus_seed":        corpusSeed,
		"stored_schemas":     families * (familySize - 1),
		"family_probes":      families,
		"foreign_probes":     5,
		"top_k":              topK,
		"serve_rate_per_s":   serveRate,
		"comaserve_flags":    strings.Join(serverFlags(e), " "),
		"ingest_sync":        ingestSync,
		"restart_page_cache": restartPageCache,
	}
}

// commit names the code under test: the git commit when the checkout is
// a repository, else a digest of its Go sources and module file.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// steadiness reruns this binary k times with consecutive seeds and
// prints each metric's median and quartile spread, the figures the
// BENCHMARK.json bounds are set from.
func steadiness(k int, seed int64) error {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "steady" && f.Name != "seed" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, append(args, "-seed="+strconv.FormatInt(s, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var last struct {
			Correct bool              `json:"correct"`
			Failed  int               `json:"failed"`
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !last.Correct {
			return fmt.Errorf("seed %d: run not correct (%d failed)", s, last.Failed)
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, lines[len(lines)-1])
		for name, m := range last.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	summary := map[string]any{}
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		spread := (q3 - q1) / med
		fmt.Printf("%-24s %12.4f %12.4f %12.4f %8.4f  %s\n", n, q1, med, q3, spread, units[n])
		summary[n] = map[string]float64{"q1": q1, "median": med, "q3": q3, "spread": spread}
	}
	js, err := json.Marshal(map[string]any{"steady": summary, "runs": k})
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (exclusive
// method), which is how the bounds are checked.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
