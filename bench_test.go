// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), measuring the cost
// of regenerating the respective artifact, plus ablation benches for
// the Table 4 design choices. cmd/comabench prints the artifacts
// themselves.
package coma_test

import (
	"path/filepath"
	"sync"
	"testing"

	coma "repro"
	"repro/internal/combine"
	"repro/internal/eval"
	"repro/internal/importer"
	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/simcube"
	"repro/internal/workload"
)

// --- shared fixtures --------------------------------------------------------

var (
	figOnce   sync.Once
	figPO1    *schema.Schema
	figPO2    *schema.Schema
	benchOnce sync.Once
	benchH    *eval.Harness
	benchRes  []eval.SeriesResult
)

func figureSchemas(b *testing.B) (*schema.Schema, *schema.Schema) {
	b.Helper()
	figOnce.Do(func() {
		var err error
		figPO1, err = importer.ParseSQL("PO1", ddlPO1)
		if err != nil {
			panic(err)
		}
		figPO2, err = importer.ParseXSD("PO2", []byte(xsdPO2))
		if err != nil {
			panic(err)
		}
	})
	return figPO1, figPO2
}

// warmHarness precomputes every matcher matrix and a representative
// result set once, so the per-series benchmarks measure combination and
// selection cost, mirroring COMA's cube-repository design.
func warmHarness(b *testing.B) (*eval.Harness, []eval.SeriesResult) {
	b.Helper()
	benchOnce.Do(func() {
		benchH = eval.NewHarness()
		benchH.Precompute(4)
		var specs []eval.SeriesSpec
		for _, set := range [][]string{{"NamePath"}, {"NamePath", "Leaves"}, eval.AllCombo, {"SchemaM"}} {
			for _, dir := range eval.Directions() {
				for _, sel := range []combine.Selection{
					{MaxN: 1}, {Threshold: 0.5, Delta: 0.02}, {Threshold: 0.8},
				} {
					specs = append(specs, eval.SeriesSpec{Matchers: set, Strategy: combine.Strategy{
						Agg: combine.AggSpec{Kind: combine.Average}, Dir: dir, Sel: sel,
					}})
				}
			}
		}
		benchRes = benchH.RunAll(specs, 4, nil)
	})
	return benchH, benchRes
}

// --- per-artifact benchmarks -------------------------------------------------

// BenchmarkTable1Cube regenerates Table 1: executing the TypeName and
// NamePath matchers on the Figure 1 schemas.
func BenchmarkTable1Cube(b *testing.B) {
	s1, s2 := figureSchemas(b)
	ctx := match.NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn := match.NewTypeName()
		np := match.NewNamePath()
		_ = tn.Match(ctx, s1, s2)
		_ = np.Match(ctx, s1, s2)
	}
}

// BenchmarkTable2Aggregate regenerates Table 2: aggregating the
// two-layer cube with Average.
func BenchmarkTable2Aggregate(b *testing.B) {
	s1, s2 := figureSchemas(b)
	ctx := match.NewContext()
	tn := match.NewTypeName().Match(ctx, s1, s2)
	np := match.NewNamePath().Match(ctx, s1, s2)
	cube := simcube.NewCube(tn.RowKeys(), tn.ColKeys())
	if err := cube.AddLayer("TypeName", tn); err != nil {
		b.Fatal(err)
	}
	if err := cube.AddLayer("NamePath", np); err != nil {
		b.Fatal(err)
	}
	agg := combine.AggSpec{Kind: combine.Average}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Apply(cube); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Stats regenerates Table 5: structural statistics of
// the five workload schemas.
func BenchmarkTable5Stats(b *testing.B) {
	ss := workload.Schemas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range ss {
			_ = schema.ComputeStats(s)
		}
	}
}

// BenchmarkFig8ProblemSize regenerates Figure 8: deriving the gold
// standard and schema similarity for all ten tasks.
func BenchmarkFig8ProblemSize(b *testing.B) {
	ss := workload.Schemas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := 0; x < len(ss); x++ {
			for y := x + 1; y < len(ss); y++ {
				_ = workload.GoldMapping(ss[x], ss[y])
			}
		}
	}
}

// BenchmarkFig9Series measures one evaluation series (ten experiments)
// on the warmed harness: the unit the 8,208-series Figure 9 grid
// repeats.
func BenchmarkFig9Series(b *testing.B) {
	h, _ := warmHarness(b)
	spec := eval.SeriesSpec{Matchers: eval.AllCombo, Strategy: combine.Default()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.RunSeries(spec)
	}
}

// BenchmarkFig10Breakdown measures grouping series results into the
// Figure 10 strategy breakdowns.
func BenchmarkFig10Breakdown(b *testing.B) {
	_, results := warmHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dim := range []string{"aggregation", "direction", "selection"} {
			_ = eval.Fig10Breakdown(results, dim)
		}
	}
}

// BenchmarkFig11Single measures a single-matcher series (NamePath), the
// Figure 11 unit.
func BenchmarkFig11Single(b *testing.B) {
	h, _ := warmHarness(b)
	spec := eval.SeriesSpec{Matchers: []string{"NamePath"}, Strategy: combine.Default()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.RunSeries(spec)
	}
}

// BenchmarkFig12Combos measures the best reuse combination
// (All+SchemaM), the Figure 12 unit.
func BenchmarkFig12Combos(b *testing.B) {
	h, _ := warmHarness(b)
	spec := eval.SeriesSpec{
		Matchers: append(append([]string(nil), eval.AllCombo...), "SchemaM"),
		Strategy: combine.Default(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.RunSeries(spec)
	}
}

// BenchmarkFig13Sensitivity measures the per-task best-strategy scan of
// Figure 13 over a result set.
func BenchmarkFig13Sensitivity(b *testing.B) {
	h, results := warmHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Fig13Sensitivity(h, results)
	}
}

// BenchmarkDefaultMatch measures the full default match operation
// end-to-end (matcher execution + combination) on task 1<->2, across
// worker counts of the parallel engine.
func BenchmarkDefaultMatch(b *testing.B) {
	task := workload.Tasks()[0]
	for _, w := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coma.Match(task.S1, task.S2, coma.WithWorkers(w.workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNameSim measures one uncached hybrid name similarity: the
// unit cost the per-schema profile precomputation amortizes. A fresh
// matcher per iteration keeps both the pair cache and the profile
// cache cold.
func BenchmarkNameSim(b *testing.B) {
	ctx := match.NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nm := match.NewName()
		_ = nm.NameSim(ctx, "POShipToCustomer", "DeliverToAddress")
	}
}

// BenchmarkNameSimProfiled measures the same similarity with warm
// profile cache but cold pair cache: the steady-state per-pair cost
// inside a matrix fill.
func BenchmarkNameSimProfiled(b *testing.B) {
	ctx := match.NewContext()
	nm := match.NewName()
	_ = nm.NameSim(ctx, "POShipToCustomer", "DeliverToAddress")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nm.SetCombSim(combine.CombAverage) // drops the pair cache, keeps profiles
		_ = nm.NameSim(ctx, "POShipToCustomer", "DeliverToAddress")
	}
}

// --- ablation benchmarks (Table 4 design choices) ----------------------------

// BenchmarkAblationNameMaxVsAverage compares the Name matcher's default
// Max token aggregation against Average.
func BenchmarkAblationNameMaxVsAverage(b *testing.B) {
	s1, s2 := figureSchemas(b)
	ctx := match.NewContext()
	avgStrategy := combine.Strategy{
		Agg:  combine.AggSpec{Kind: combine.Average},
		Dir:  combine.Both,
		Sel:  combine.Selection{MaxN: 1},
		Comb: combine.CombAverage,
	}
	b.Run("Max", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = match.NewName().Match(ctx, s1, s2)
		}
	})
	b.Run("Average", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := match.NewCustomName("NameAvg", avgStrategy, match.Trigram(), match.Synonym())
			_ = m.Match(ctx, s1, s2)
		}
	})
}

// BenchmarkAblationChildrenVsLeaves compares the two structural
// matchers on the largest task.
func BenchmarkAblationChildrenVsLeaves(b *testing.B) {
	task := workload.Tasks()[9] // 4<->5
	ctx := match.NewContext()
	b.Run("Children", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = match.NewChildren().Match(ctx, task.S1, task.S2)
		}
	})
	b.Run("Leaves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = match.NewLeaves().Match(ctx, task.S1, task.S2)
		}
	})
}

// BenchmarkAblationTypeNameWeights compares the default 0.3/0.7 weight
// split against alternatives.
func BenchmarkAblationTypeNameWeights(b *testing.B) {
	task := workload.Tasks()[0]
	ctx := match.NewContext()
	for _, w := range []struct {
		name       string
		typeW, nmW float64
	}{
		{"0.3-0.7", 0.3, 0.7},
		{"0.5-0.5", 0.5, 0.5},
		{"0.0-1.0", 0, 1},
	} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = match.NewWeightedTypeName(w.typeW, w.nmW).Match(ctx, task.S1, task.S2)
			}
		})
	}
}

// BenchmarkPrunedMatchAll measures the candidate-pruned TopK
// repository match against a 208-schema corpus slice (13 full
// evolution families, so the probe's family exceeds the TopK), with
// the exhaustive scan it is bit-identical to as the sub-benchmark
// baseline — the bench-smoke form of the MatchServe/10k scenarios in
// cmd/comabench.
func BenchmarkPrunedMatchAll(b *testing.B) {
	stored, incoming := workload.CorpusPair(208, 3)
	repo, err := coma.OpenRepository(filepath.Join(b.TempDir(), "pruned.repo"), coma.WithCandidateIndex())
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	// The puts analyze and index the stored schemas, so both
	// sub-benchmarks measure the serving steady state.
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repo.MatchIncoming(incoming, coma.TopK(10)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repo.MatchIncoming(incoming, coma.TopK(10), coma.Exhaustive()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPutSchema measures the repository import path under the two
// serving durability policies: per-append fsync versus group commit.
// The gap is the price of SyncAlways's zero-loss guarantee.
func BenchmarkPutSchema(b *testing.B) {
	stored, _ := workload.CorpusPair(8, 3)
	s := stored[0]
	for _, bc := range []struct {
		name   string
		policy coma.SyncPolicy
	}{
		{"sync-always", coma.SyncAlways()},
		{"sync-interval", coma.SyncInterval(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			repo, err := coma.OpenRepository(filepath.Join(b.TempDir(), "put.repo"),
				coma.WithSyncPolicy(bc.policy))
			if err != nil {
				b.Fatal(err)
			}
			defer repo.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := repo.PutSchema(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
