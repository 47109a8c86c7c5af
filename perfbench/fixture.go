package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/export"
	"repro/internal/importer"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/workload"
)

// corpusSeed fixes the corpus's shape (section and leaf counts of every
// family), so that every run seed costs the same to match and the
// spread across seeds measures the system, not the inputs' sizes. Of the
// seeds 1 to 3000 it gives nearly the most even family sizes (23 to 28
// paths, against 17 to 35 for seed 2002): with uneven families a probe's
// cost depends on its family, and the latency quantiles of a run jump
// with the order of cheap and dear probes. The run seed picks which
// revision of each family is held out as a probe, the request order, the
// arrival times and the PUT targets.
const corpusSeed = 705

const (
	families   = 8
	familySize = 16 // revisions per family in workload.Corpus
	topK       = 3
	shards     = 4
	workers    = 2
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// serveRate is serve-topk's arrival rate in requests per second: 60%
	// of the 6.8 requests/s one connection sustains on the commit the
	// benchmark was defined on (measured by overloading it).
	serveRate = 4.0
	// ingestSync is comaserve's -sync policy on ingest-mix.
	ingestSync = "always"
	// restartPageCache is comaserve's -page-cache on restart, in pages
	// per shard; the restart store's page files hold about two per shard.
	restartPageCache = 1
)

// probe is one incoming schema a served workload posts inline.
type probe struct {
	name string
	// kind is "family" for a held-out revision (15 stored siblings) or
	// "foreign" for a renamed purchase-order schema (no siblings).
	kind   string
	xsd    string
	body   []byte         // the POST /match request body
	parsed *schema.Schema // the schema the server imports from xsd
}

// fixture is every generated input of one run.
type fixture struct {
	rng     *rand.Rand
	revXSD  [][]string // [family][revision] XSD documents
	heldOut []int      // per family, the revision held out as a probe
	stored  []string   // stored schema names, in generation order
	xsdOf   map[string]string
	probes  []probe // family probes first, then foreign ones
}

func schemaXSD(s *schema.Schema) (string, error) {
	var b bytes.Buffer
	if err := export.SchemaXSD(&b, s); err != nil {
		return "", fmt.Errorf("export %s: %w", s.Name, err)
	}
	return b.String(), nil
}

func revName(f, r int) string { return fmt.Sprintf("corp-%d-%d", f, r) }

func newFixture(seed int64) (*fixture, error) {
	fx := &fixture{rng: rand.New(rand.NewSource(seed)), xsdOf: map[string]string{}}
	corpus := workload.Corpus(families*familySize, corpusSeed)
	fx.revXSD = make([][]string, families)
	for f := 0; f < families; f++ {
		fx.revXSD[f] = make([]string, familySize)
		for r := 0; r < familySize; r++ {
			x, err := schemaXSD(corpus[f*familySize+r])
			if err != nil {
				return nil, err
			}
			fx.revXSD[f][r] = x
		}
		held := fx.rng.Intn(familySize)
		fx.heldOut = append(fx.heldOut, held)
		for r := 0; r < familySize; r++ {
			name := revName(f, r)
			fx.xsdOf[name] = fx.revXSD[f][r]
			if r != held {
				fx.stored = append(fx.stored, name)
			}
		}
	}
	for f, r := range fx.heldOut {
		if err := fx.addProbe(revName(f, r), "family", fx.revXSD[f][r]); err != nil {
			return nil, err
		}
	}
	for _, s := range workload.Clients(1)[0] {
		x, err := schemaXSD(s)
		if err != nil {
			return nil, err
		}
		if err := fx.addProbe(s.Name, "foreign", x); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

func (fx *fixture) addProbe(name, kind, xsd string) error {
	parsed, err := importer.ParseAs(name, "xsd", []byte(xsd))
	if err != nil {
		return fmt.Errorf("parse probe %s: %w", name, err)
	}
	body, err := json.Marshal(server.MatchRequest{
		Schema: server.SchemaPayload{Name: name, Format: "xsd", Source: xsd},
		TopK:   topK,
	})
	if err != nil {
		return err
	}
	fx.probes = append(fx.probes, probe{name: name, kind: kind, xsd: xsd, body: body, parsed: parsed})
	return nil
}

// probeOrder returns n probe indexes in shuffled cycles. A cycle holds
// each family probe familyRepeat times and, with foreign, one foreign
// probe, the foreign probes taking turns. Every run thus sends the same
// mix and only the order depends on the seed. A foreign probe costs
// about three family ones (no pruning, larger schemas); an even mix
// makes latency bimodal with the median on the boundary, so run-to-run
// quantiles jump between the modes.
func (fx *fixture) probeOrder(rng *rand.Rand, n int, foreign bool) []int {
	const familyRepeat = 2
	var out []int
	for c := 0; len(out) < n; c++ {
		var cycle []int
		for r := 0; r < familyRepeat; r++ {
			for i := 0; i < families; i++ {
				cycle = append(cycle, i)
			}
		}
		if foreign {
			cycle = append(cycle, families+c%(len(fx.probes)-families))
		}
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		out = append(out, cycle...)
	}
	return out[:n]
}

// writeStore writes the stored schemas as .xsd files for comaserve to
// preload and returns their paths.
func (fx *fixture) writeStore(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, len(fx.stored))
	for i, name := range fx.stored {
		paths[i] = filepath.Join(dir, name+".xsd")
		if err := os.WriteFile(paths[i], []byte(fx.xsdOf[name]), 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// parsedStore imports the stored schemas the way the server does.
func (fx *fixture) parsedStore(xsdOf map[string]string) ([]*schema.Schema, error) {
	out := make([]*schema.Schema, 0, len(fx.stored))
	for _, name := range fx.stored {
		s, err := importer.ParseAs(name, "xsd", []byte(xsdOf[name]))
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		out = append(out, s)
	}
	return out, nil
}
