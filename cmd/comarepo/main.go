// Command comarepo inspects and maintains a COMA repository file.
// Every command but fsck opens the file as the library's
// OpenRepository does: the store builds its match engine (bounded by
// -workers, with the candidate-pruning index) and analyzes each stored
// schema the file's warm sidecar (<file>.warm) does not restore.
//
// Usage:
//
//	comarepo -repo coma.repo stats
//	comarepo -repo coma.repo schemas
//	comarepo -repo coma.repo show -schema PO1
//	comarepo -repo coma.repo mappings -tag manual
//	comarepo -repo coma.repo dump -tag manual -from PO1 -to PO2
//	comarepo -repo coma.repo match -in incoming.xsd -topk 3
//	comarepo -repo coma.repo match -in incoming.xsd -topk 3 -max-candidates 50
//	comarepo -repo coma.repo match -in incoming.xsd -topk 3 -exhaustive
//	comarepo -repo coma.repo compact
//	comarepo -repo coma.repo fsck
//	comarepo -repo /srv/coma.shards fsck -repair
//
// The fsck command verifies the log(s) at -repo offline — frame CRCs,
// sequence continuity, payload decodability, checkpoint snapshots —
// without modifying anything, printing one report per log. It exits
// non-zero when any log needs repair; -repair salvage-rewrites the
// damaged logs (keeping every intact record) and then re-verifies.
// -repo may be a single repository file or a sharded repository
// directory.
//
// The match command is the repository server's batch operation: it
// imports the schema at -in (.sql, .xsd/.xml, .json or .dtd) and runs
// one batch through the store's engine against every stored schema,
// printing the candidates ranked by combined schema similarity
// together with the best candidate's correspondences. With -topk the
// batch runs through the candidate-pruning index (the prune ratio is
// printed); -max-candidates shortlists to the M best-bounded
// candidates, and -exhaustive disables pruning entirely.
//
// The stats command prints the log and page-file sizes; compact prints
// the store's total size (log plus page file) before and after.
package main

import (
	"flag"
	"fmt"
	"os"

	coma "repro"
)

func main() {
	var (
		repoPath = flag.String("repo", "coma.repo", "repository file")
		schemaN  = flag.String("schema", "", "schema name for 'show'")
		tag      = flag.String("tag", "manual", "mapping tag for 'mappings'/'dump'")
		from     = flag.String("from", "", "mapping source schema for 'dump'")
		to       = flag.String("to", "", "mapping target schema for 'dump'")
		in       = flag.String("in", "", "incoming schema file for 'match' (.sql .xsd .xml .json .dtd)")
		topK     = flag.Int("topk", 0, "match: keep only the K best candidates (0 = all)")
		workers  = flag.Int("workers", 0, "worker bound of the store's analyses and matches (0 = all CPUs)")
		maxCand  = flag.Int("max-candidates", 0, "match: shortlist to the M best-bounded candidates (0 = no cap)")
		exhaust  = flag.Bool("exhaustive", false, "match: disable candidate pruning, score every stored schema")
		repair   = flag.Bool("repair", false, "fsck: salvage-rewrite damaged logs")
	)
	flag.Parse()
	usage := func() {
		fmt.Fprintln(os.Stderr, "usage: comarepo [flags] stats|schemas|show|mappings|dump|match|compact|fsck [flags]")
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)
	// The standard flag package stops at the first non-flag argument,
	// so flags may also follow the subcommand (as the usage examples
	// above do: `show -schema PO1`, `match -in incoming.xsd`). Parse
	// the remainder with the same flag set.
	if rest := flag.Args()[1:]; len(rest) > 0 {
		flag.CommandLine.Parse(rest) // ExitOnError: exits on bad flags
		if flag.NArg() != 0 {
			usage()
		}
	}
	if err := run(cmd, *repoPath, *schemaN, *tag, *from, *to, *in, *topK, *workers, *maxCand, *exhaust, *repair); err != nil {
		fmt.Fprintln(os.Stderr, "comarepo:", err)
		os.Exit(1)
	}
}

func run(cmd, repoPath, schemaName, tag, from, to, in string, topK, workers, maxCand int, exhaustive, repair bool) error {
	// fsck runs before the repository is opened: opening replays (and
	// would silently repair) the log, while fsck must observe it as-is.
	if cmd == "fsck" {
		return runFsck(repoPath, repair)
	}
	repo, err := coma.OpenRepository(repoPath, coma.WithWorkers(workers), coma.WithCandidateIndex())
	if err != nil {
		return err
	}
	defer repo.Close()

	switch cmd {
	case "stats":
		st := repo.Stats()
		fmt.Printf("schemas:  %d\nmappings: %d\ncubes:    %d\nlog size: %d bytes\npages:    %d bytes\n",
			st.Schemas, st.Mappings, st.Cubes, st.LogBytes, st.PageBytes)
	case "schemas":
		for _, n := range repo.SchemaNames() {
			s, _ := repo.GetSchema(n)
			fmt.Printf("%-20s %4d paths\n", n, len(s.Paths()))
		}
	case "show":
		if schemaName == "" {
			return fmt.Errorf("show requires -schema")
		}
		s, ok := repo.GetSchema(schemaName)
		if !ok {
			return fmt.Errorf("schema %q not found", schemaName)
		}
		fmt.Print(s)
	case "mappings":
		store := repo.MappingStore(tag)
		for _, m := range store.AllMappings() {
			fmt.Printf("%-12s %-12s %4d correspondences\n", m.FromSchema, m.ToSchema, m.Len())
		}
	case "dump":
		if from == "" || to == "" {
			return fmt.Errorf("dump requires -from and -to")
		}
		m, ok := repo.GetMapping(tag, from, to)
		if !ok {
			return fmt.Errorf("no mapping %s<->%s under tag %q", from, to, tag)
		}
		for _, c := range m.Correspondences() {
			fmt.Printf("%-45s %-45s %.3f\n", c.From, c.To, c.Sim)
		}
	case "match":
		if in == "" {
			return fmt.Errorf("match requires -in")
		}
		return runMatch(repo, in, topK, maxCand, exhaustive)
	case "compact":
		size := func() int64 { st := repo.Stats(); return st.LogBytes + st.PageBytes }
		before := size()
		if err := repo.Compact(); err != nil {
			return err
		}
		fmt.Printf("compacted: %d -> %d bytes (log + pages)\n", before, size())
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// runFsck verifies the repository at path (a log file or a sharded
// directory) without opening it; with repair it salvage-rewrites
// damaged logs and re-verifies.
func runFsck(path string, repair bool) error {
	reports, err := coma.VerifyStore(path)
	if err != nil {
		return err
	}
	bad := 0
	for _, v := range reports {
		fmt.Println(v)
		if !v.OK() {
			bad++
		}
	}
	if bad == 0 {
		fmt.Printf("fsck: %d log(s) ok\n", len(reports))
		return nil
	}
	if !repair {
		return fmt.Errorf("%d of %d log(s) need repair (rerun with -repair)", bad, len(reports))
	}
	reps, err := coma.RepairStore(path)
	if err != nil {
		return err
	}
	for _, rep := range reps {
		if !rep.Clean() {
			fmt.Println("repaired:", rep)
		}
	}
	after, err := coma.VerifyStore(path)
	if err != nil {
		return err
	}
	for _, v := range after {
		if !v.OK() {
			return fmt.Errorf("still damaged after repair: %s", v)
		}
	}
	fmt.Printf("fsck: %d log(s) ok after repair\n", len(after))
	return nil
}

// runMatch imports the incoming schema and batch-matches it against
// every stored schema, pruned through the candidate index unless
// -exhaustive disables it.
func runMatch(repo *coma.ShardedRepository, in string, topK, maxCand int, exhaustive bool) error {
	incoming, err := coma.LoadFile(in)
	if err != nil {
		return err
	}
	var opts []coma.MatchAllOption
	if topK > 0 {
		opts = append(opts, coma.TopK(topK))
	}
	if maxCand > 0 {
		opts = append(opts, coma.MaxCandidates(maxCand))
	}
	if exhaustive {
		opts = append(opts, coma.Exhaustive())
	}
	matches, err := repo.MatchIncoming(incoming, opts...)
	if err != nil {
		return err
	}
	if stats := repo.LastPruneStats(); stats.Candidates > 0 {
		fmt.Printf("pruned: %d of %d candidates skipped (ratio %.2f)\n",
			stats.Skipped, stats.Candidates, stats.Ratio())
	}
	if tot := repo.PruneTotals(); tot.Batches > 0 {
		fmt.Printf("pruned (cumulative): %d batches, %d of %d candidates skipped (ratio %.2f)\n",
			tot.Batches, tot.Skipped, tot.Candidates, tot.Ratio())
	}
	if len(matches) == 0 {
		fmt.Printf("no stored candidates for %s\n", incoming.Name)
		return nil
	}
	fmt.Printf("incoming %s vs %d stored schemas:\n", incoming.Name, len(matches))
	for rank, m := range matches {
		fmt.Printf("%2d. %-20s sim %.3f  %4d correspondences\n",
			rank+1, m.Schema.Name, m.Result.SchemaSim, m.Result.Mapping.Len())
	}
	best := matches[0]
	fmt.Printf("\nbest candidate %s:\n", best.Schema.Name)
	for _, c := range best.Result.Mapping.Correspondences() {
		fmt.Printf("  %-45s %-45s %.3f\n", c.From, c.To, c.Sim)
	}
	return nil
}
