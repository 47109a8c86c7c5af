package coma_test

import (
	"sync"
	"testing"

	coma "repro"
	"repro/internal/workload"
)

// TestMatchAllConcurrentWithInvalidate runs Engine.MatchAll batches
// concurrently with Engine.Invalidate and Engine.Analyze churn on the
// same (overlapping) schemas. Run with -race it proves the analyzer
// cache and the batch's pooled arenas stay safe while analyses are
// dropped and rebuilt underneath running batches, and it checks that
// every batch still returns the sequential baseline bit for bit — an
// invalidation may cost a rebuild, never a different score.
func TestMatchAllConcurrentWithInvalidate(t *testing.T) {
	all := workload.Candidates(5)
	incoming, cands := all[0], all[1:]

	base, err := coma.NewEngine(coma.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.MatchAll(incoming, cands)
	if err != nil {
		t.Fatal(err)
	}

	engine, err := coma.NewEngine(coma.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	const (
		matchers = 3
		rounds   = 5
	)
	var mwg sync.WaitGroup
	errs := make(chan error, matchers)
	for g := 0; g < matchers; g++ {
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			for r := 0; r < rounds; r++ {
				got, err := engine.MatchAll(incoming, cands)
				if err != nil {
					errs <- err
					return
				}
				for i, res := range got {
					bc, rc := want[i].Mapping.Correspondences(), res.Mapping.Correspondences()
					if res.SchemaSim != want[i].SchemaSim || len(bc) != len(rc) {
						errs <- errMismatch(cands[i].Name)
						return
					}
					for k := range bc {
						if bc[k] != rc[k] {
							errs <- errMismatch(cands[i].Name)
							return
						}
					}
				}
			}
		}()
	}

	// Churn goroutine: invalidate and re-analyze the schemas the
	// batches are matching right now — individual candidates, the
	// shared incoming schema, and periodically the whole cache — until
	// every matcher goroutine has finished its rounds.
	stop := make(chan struct{})
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				engine.Invalidate(cands[i%len(cands)])
			case 1:
				engine.Analyze(cands[(i+1)%len(cands)])
			case 2:
				engine.Invalidate(incoming)
			case 3:
				engine.Invalidate(nil) // drop everything
			}
		}
	}()

	mwg.Wait()
	close(stop)
	cwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch string

func (e errMismatch) Error() string {
	return "concurrent MatchAll diverged from sequential baseline on " + string(e)
}

// TestMatchAllConcurrentUncachedIncoming runs concurrent MatchAll
// batches whose shared incoming schema the engine does not cache and
// nothing has enumerated yet: each batch analyzes it for itself, so
// the schema's lazy path enumeration is reached from several
// goroutines at once. Run with -race it proves that first use is
// synchronized; every batch must still equal the sequential baseline.
func TestMatchAllConcurrentUncachedIncoming(t *testing.T) {
	fresh := func() ([]*coma.Schema, *coma.Schema) {
		all := workload.Candidates(4)
		return all[1:], all[0]
	}
	cands, incoming := fresh()
	base, err := coma.NewEngine(coma.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.MatchAll(incoming, cands)
	if err != nil {
		t.Fatal(err)
	}

	engine, err := coma.NewEngine(coma.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	_, incoming = fresh() // never enumerated
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := engine.MatchAll(incoming, cands)
			if err != nil {
				t.Error(err)
				return
			}
			for i, res := range got {
				if res.SchemaSim != want[i].SchemaSim {
					t.Error(errMismatch(cands[i].Name))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := engine.CachedAnalyses(); got != len(cands) {
		t.Errorf("engine caches %d analyses, want %d (the candidates only)", got, len(cands))
	}
}
