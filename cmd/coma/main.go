// Command coma matches two schema files and prints the resulting
// mapping. Schemas are imported by file extension: .sql/.ddl
// (relational DDL), .xsd/.xml (XML Schema), .json (JSON Schema) or
// .dtd (Document Type Definition).
//
// Usage:
//
//	coma [flags] schema1 schema2
//
// Examples:
//
//	coma po1.sql po2.xsd
//	coma -matchers NamePath,Leaves -dir LargeSmall -maxn 1 src.xsd warehouse.sql
//	coma -repo coma.repo -store-tag manual po1.sql po2.xsd
//	coma -repo coma.repo -reuse-tag manual po2.xsd po3.xsd
//	coma -i po1.sql po2.xsd        # interactive feedback iterations
//	coma -format json po1.sql po2.xsd
//
// -repo names a single-file repository, opened as the library's
// OpenRepository opens it: the run stores both schemas in it (and,
// with -store-tag, the mapping), and -reuse-tag adds the repository's
// Schema reuse matcher over the mappings stored under that tag. The
// store analyzes every schema it holds, at open unless its warm
// sidecar restores it, and at every put.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	coma "repro"
)

func main() {
	var (
		matchers    = flag.String("matchers", "", "comma-separated matcher names (default: the All combination)")
		agg         = flag.String("agg", "Average", "aggregation: Average, Max, Min")
		dir         = flag.String("dir", "Both", "direction: Both, LargeSmall, SmallLarge")
		maxN        = flag.Int("maxn", 0, "selection: keep the top-n candidates (0 = off)")
		delta       = flag.Float64("delta", 0.02, "selection: relative tolerance to the best candidate (0 = off)")
		thr         = flag.Float64("threshold", 0.5, "selection: minimal similarity (0 = off)")
		dictFile    = flag.String("dict", "", "extra dictionary file (syn/hyp/abb lines)")
		repoPath    = flag.String("repo", "", "repository file for storing schemas/results and for reuse")
		storeTag    = flag.String("store-tag", "", "store the resulting mapping in the repository under this tag")
		reuseTag    = flag.String("reuse-tag", "", "add a repository-backed Schema reuse matcher over this tag")
		format      = flag.String("format", "text", "output format: text, json, csv, dot (dot prints schema 1's graph)")
		workers     = flag.Int("workers", 0, "parallel workers for matcher execution (0 = all CPUs, 1 = sequential)")
		quiet       = flag.Bool("q", false, "print only the correspondences")
		list        = flag.Bool("list", false, "list available matchers and exit")
		interactive = flag.Bool("i", false, "interactive mode: review proposals, accept/reject, iterate")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(coma.Matchers(), "\n"))
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: coma [flags] schema1 schema2 (see -h)")
		os.Exit(2)
	}
	if *interactive {
		if err := runInteractive(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "coma:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(flag.Arg(0), flag.Arg(1), *matchers, *agg, *dir, *maxN, *delta, *thr,
		*dictFile, *repoPath, *storeTag, *reuseTag, *format, *quiet, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "coma:", err)
		os.Exit(1)
	}
}

// runInteractive starts the iterative feedback loop on two schema
// files with the default strategy.
func runInteractive(p1, p2 string) error {
	s1, err := loadSchema(p1)
	if err != nil {
		return err
	}
	s2, err := loadSchema(p2)
	if err != nil {
		return err
	}
	return interactiveSession(s1, s2, nil, os.Stdin, os.Stdout)
}

func loadSchema(path string) (*coma.Schema, error) { return coma.LoadFile(path) }

func run(p1, p2, matchers, agg, dir string, maxN int, delta, thr float64,
	dictFile, repoPath, storeTag, reuseTag, format string, quiet bool, workers int) error {
	s1, err := loadSchema(p1)
	if err != nil {
		return err
	}
	s2, err := loadSchema(p2)
	if err != nil {
		return err
	}

	strategy := coma.DefaultStrategy()
	switch agg {
	case "Average":
		strategy.Agg = coma.Average
	case "Max":
		strategy.Agg = coma.Max
	case "Min":
		strategy.Agg = coma.Min
	default:
		return fmt.Errorf("unknown aggregation %q", agg)
	}
	switch dir {
	case "Both":
		strategy.Dir = coma.Both
	case "LargeSmall":
		strategy.Dir = coma.LargeSmall
	case "SmallLarge":
		strategy.Dir = coma.SmallLarge
	default:
		return fmt.Errorf("unknown direction %q", dir)
	}
	strategy.Sel = coma.Selection{MaxN: maxN, Delta: delta, Threshold: thr}

	opts := []coma.Option{coma.WithStrategy(strategy), coma.WithWorkers(workers)}
	if dictFile != "" {
		f, err := os.Open(dictFile)
		if err != nil {
			return err
		}
		defer f.Close()
		opts = append(opts, coma.WithDictionaryFile(f))
	}

	var repo *coma.ShardedRepository
	if repoPath != "" {
		// The store analyzes what it holds with its own engine; the
		// dictionary file stays with this invocation's engine, since
		// WithDictionaryFile consumes its reader.
		repo, err = coma.OpenRepository(repoPath, coma.WithWorkers(workers))
		if err != nil {
			return err
		}
		defer repo.Close()
	}

	var names []string
	if matchers != "" {
		names = strings.Split(matchers, ",")
	}
	switch {
	case reuseTag != "":
		if repo == nil {
			return fmt.Errorf("-reuse-tag requires -repo")
		}
		instances := []coma.Matcher{repo.SchemaMatcher(reuseTag)}
		lib := coma.Library()
		for _, n := range names {
			m, err := lib.New(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			instances = append(instances, m)
		}
		opts = append(opts, coma.WithMatcherInstances(instances...))
	case len(names) > 0:
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		opts = append(opts, coma.WithMatchers(names...))
	}

	// One engine per invocation: both schemas are analyzed once and the
	// analyses shared by every matcher of the operation.
	engine, err := coma.NewEngine(opts...)
	if err != nil {
		return err
	}
	res, err := engine.Match(s1, s2)
	if err != nil {
		return err
	}
	switch format {
	case "text":
		if !quiet {
			fmt.Printf("# %s <-> %s: %d correspondences, schema similarity %.2f\n",
				s1.Name, s2.Name, res.Mapping.Len(), res.SchemaSim)
		}
		for _, c := range res.Mapping.Correspondences() {
			fmt.Printf("%-45s %-45s %.3f\n", c.From, c.To, c.Sim)
		}
	case "json":
		if err := coma.WriteMappingJSON(os.Stdout, res.Mapping); err != nil {
			return err
		}
	case "csv":
		if err := coma.WriteMappingCSV(os.Stdout, res.Mapping); err != nil {
			return err
		}
	case "dot":
		if err := coma.WriteSchemaDOT(os.Stdout, s1); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", format)
	}

	if repo != nil {
		if err := repo.PutSchema(s1); err != nil {
			return err
		}
		if err := repo.PutSchema(s2); err != nil {
			return err
		}
		if storeTag != "" {
			if err := repo.PutMapping(storeTag, res.Mapping); err != nil {
				return err
			}
			if !quiet {
				fmt.Printf("# stored mapping under tag %q in %s\n", storeTag, repoPath)
			}
		}
	}
	return nil
}
