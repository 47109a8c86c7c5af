package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	coma "repro"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/simcube"
	"repro/internal/workload"
)

// pairTask is one of the paper's ten match tasks on fresh schema
// instances.
type pairTask struct {
	name   string
	s1, s2 *schema.Schema
	gold   *simcube.Mapping
}

// freshTasks builds the ten tasks in the paper's order on newly built
// schema instances, so no analysis or path cache is shared with another
// setup.
func freshTasks() []pairTask {
	ss := workload.Candidates(5)
	gold := workload.Tasks()
	var out []pairTask
	k := 0
	for i := 0; i < len(ss); i++ {
		for j := i + 1; j < len(ss); j++ {
			out = append(out, pairTask{name: gold[k].Name, s1: ss[i], s2: ss[j], gold: gold[k].Gold})
			k++
		}
	}
	return out
}

// mappingDigest hashes a mapping's correspondences with their exact
// similarity bits.
func mappingDigest(m *simcube.Mapping) string {
	h := sha256.New()
	for _, c := range m.Correspondences() {
		fmt.Fprintf(h, "%s\x00%s\x00%016x\n", c.From, c.To, math.Float64bits(c.Sim))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// combinedDigest hashes the per-task digests in the paper's task order.
func combinedDigest(perTask []string) string {
	h := sha256.New()
	for _, d := range perTask {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPairMatch: closed loop, one caller, coma.Match with the default
// operation on each task in seeded order; every call analyzes afresh.
func runPairMatch(e *env) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(e.seed))

	var setups []float64
	var tasks []pairTask
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		tasks = freshTasks()
		for _, t := range tasks { // warm-up: one pass over the tasks
			if _, err := coma.Match(t.s1, t.s2); err != nil {
				return nil, fmt.Errorf("warm-up match %s: %w", t.name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The reference digests come from the first result of each task in
	// this run; every later result must equal it bit for bit, and the ten
	// together must equal the digest recorded in BENCHMARK.json.
	ref := make([]string, len(tasks))
	quality := make([]eval.Quality, len(tasks))
	var lat []float64
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	start := time.Now()
	for time.Now().Before(deadline) {
		for _, ti := range rng.Perm(len(tasks)) {
			t := tasks[ti]
			t0 := time.Now()
			r, err := coma.Match(t.s1, t.s2)
			d := time.Since(t0)
			res.attempted++
			if err != nil {
				res.fail("task %s: %v", t.name, err)
				continue
			}
			lat = append(lat, ms(d))
			dg := mappingDigest(r.Mapping)
			switch {
			case ref[ti] == "":
				ref[ti] = dg
				quality[ti] = eval.Evaluate(r.Mapping, t.gold)
			case ref[ti] != dg:
				res.fail("task %s: mapping differs from its first result in this run", t.name)
			}
		}
	}
	elapsed := time.Since(start)
	digest := combinedDigest(ref)
	if digest != e.pairDigest {
		res.fail("pair-match mappings digest %s, want %s", digest, e.pairDigest)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	sum := summarize(lat)
	res.e2e["setup_s"] = metric{median(setups), "s"}
	res.e2e["latency_p50_ms"] = metric{sum.P50, "ms"}
	res.e2e["latency_tail_ms"] = metric{sum.Tail, "ms"}
	res.e2e["throughput_ops_s"] = metric{float64(len(lat)) / elapsed.Seconds(), "1/s"}
	res.e2e["peak_rss_mb"] = metric{rss, "MiB"}
	avg := eval.Average(quality)
	res.report["setup_s"] = named{Value: median(setups), Unit: "s", N: len(setups)}
	res.report["pair_p50_ms"] = named{Value: sum.P50, Unit: "ms", N: sum.N}
	res.report["pair_p95_ms"] = named{Value: sum.Tail, Unit: "ms", N: sum.N, Q: sum.TailQ}
	res.report["throughput_ops_s"] = named{Value: res.e2e["throughput_ops_s"].Value, Unit: "1/s", N: len(lat)}
	res.report["peak_rss_mb"] = named{Value: rss, Unit: "MiB", N: 1}
	res.report["failed_ratio"] = newRatio(float64(res.failed), float64(res.attempted))
	res.report["pair_digest"] = digest
	res.report["quality"] = map[string]float64{"precision": avg.Precision, "recall": avg.Recall, "overall": avg.Overall}
	fmt.Printf("pair-match: %d pairs, avg Precision %.3f Recall %.3f Overall %.3f\n",
		len(lat), avg.Precision, avg.Recall, avg.Overall)

	if e.trace {
		if err := tracePairs(e, res, tasks, ref, rng); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracePairs replays two seeded cycles of the ten tasks untraced, then
// traced, each pair analyzed afresh and matched one layer call at a time.
func tracePairs(e *env, res *result, tasks []pairTask, ref []string, rng *rand.Rand) error {
	order := append(rng.Perm(len(tasks)), rng.Perm(len(tasks))...)
	rs := newReplayStore()
	tr, untraced, traced, err := replayBoth(len(order), func(tr *tracer, _, req int) error {
		t := tasks[order[req]]
		root := tr.begin(req, -1, "pair")
		x1 := rs.analyze(tr, req, root, t.s1)
		x2 := rs.analyze(tr, req, root, t.s2)
		r, err := rs.matchPair(tr, req, root, t.s1, t.s2, x1, x2, nil)
		tr.end(root)
		if err != nil {
			return err
		}
		if mappingDigest(r.Mapping) != ref[order[req]] {
			res.fail("traced replay of task %s differs from coma.Match", t.name)
		}
		return nil
	})
	if err != nil {
		return err
	}
	layerMetrics(res, rs, tr, untraced, traced, 1)
	return writeTrace(e, tr)
}

func writeTrace(e *env, tr *tracer) error {
	dir := filepath.Join(e.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, e.workload+"-seed"+strconv.FormatInt(e.seed, 10)+".json"))
}
