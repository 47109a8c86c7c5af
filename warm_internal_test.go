package coma

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/importer"
	"repro/internal/repository"
)

// nosyncFS passes everything to the real filesystem but swallows
// fsyncs. The crash sweep simulates faults in-process — durability
// against power loss is not what it asserts, only the old-or-new byte
// contract — so the per-offset fsync cost buys nothing.
type nosyncFS struct{ repository.FS }

func (fs nosyncFS) OpenFile(name string, flag int, perm os.FileMode) (repository.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}
func (nosyncFS) SyncDir(string) error { return nil }

type nosyncFile struct{ repository.File }

func (nosyncFile) Sync() error { return nil }

// warmSweepFixture builds the crash-sweep scene: a small repository
// with a warmed engine, plus two valid sidecar generations — oldData
// (written before any analysis: header only) and newData (the full
// warmth) — so a swept write of newData over oldData has two distinct
// legal survivors.
func warmSweepFixture(t *testing.T) (repo *Repository, engine *Engine, path string, oldData, newData []byte) {
	t.Helper()
	dir := t.TempDir()
	repo, err := OpenRepository(filepath.Join(dir, "store.repo"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	engine, err = NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	// Tiny hand-built schemas keep the sidecar a few KB, so sweeping a
	// fault through every byte offset stays fast; the workload schemas'
	// analysis artifacts would blow the file up to ~40KB.
	mk := func(name, src string) *Schema {
		s, err := importer.ParseAs(name, "sql", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	incoming := mk("WarmProbe", "CREATE TABLE P.Probe (orderNo INT, customerName VARCHAR(100));")
	stored := []*Schema{
		mk("WarmA", "CREATE TABLE A.T (orderNo INT, customer VARCHAR(100));"),
		mk("WarmB", "CREATE TABLE B.T (invoiceNo INT, city VARCHAR(50));"),
	}
	for _, s := range stored {
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	path = filepath.Join(dir, "case.warm")
	if err := writeWarm(nil, path, repo.Repo, engine); err != nil {
		t.Fatal(err)
	}
	if oldData, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.MatchIncoming(engine, incoming); err != nil {
		t.Fatal(err)
	}
	if err := writeWarm(nil, path, repo.Repo, engine); err != nil {
		t.Fatal(err)
	}
	if newData, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(oldData, newData) {
		t.Fatal("fixture degenerate: empty and warmed sidecars are identical")
	}
	// The sweep asserts "failed write leaves exactly old or new bytes",
	// which needs the encoding to be deterministic across calls.
	if err := writeWarm(nil, path, repo.Repo, engine); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, newData) {
		t.Fatal("sidecar encoding is not deterministic")
	}
	return repo, engine, path, oldData, newData
}

// restoreInto runs a warm restore of path into a throwaway engine.
func restoreInto(t *testing.T, repo *Repository, path string) WarmStats {
	t.Helper()
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	return restoreWarm(path, repo.Repo, e)
}

// TestWarmSidecarCrashSweep injects a write fault at every byte offset
// of the sidecar rewrite — outright failure and torn short write — and
// asserts the crash-ordered protocol's contract: the file afterwards
// is bit-exactly the old sidecar or the new one, never a mixture, and
// whichever survived passes a warm restore's validation.
func TestWarmSidecarCrashSweep(t *testing.T) {
	repo, engine, path, oldData, newData := warmSweepFixture(t)
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, kind := range []repository.FaultKind{repository.FaultFail, repository.FaultShortWrite} {
		for off := 0; off <= len(newData); off += stride {
			if err := os.WriteFile(path, oldData, 0o644); err != nil {
				t.Fatal(err)
			}
			ffs := repository.NewFaultFS(nosyncFS{repository.OSFS})
			ffs.Arm(kind, int64(off))
			err := writeWarm(ffs, path, repo.Repo, engine)
			cur, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("fault %d@%d: sidecar unreadable: %v", kind, off, rerr)
			}
			if err == nil {
				if !bytes.Equal(cur, newData) {
					t.Fatalf("fault %d@%d: successful write left %d bytes, not the new sidecar", kind, off, len(cur))
				}
			} else if !bytes.Equal(cur, oldData) && !bytes.Equal(cur, newData) {
				t.Fatalf("fault %d@%d: failed write left a torn sidecar (%d bytes)", kind, off, len(cur))
			}
			if ws := restoreInto(t, repo, path); !ws.Attempted || !ws.Used {
				t.Fatalf("fault %d@%d: surviving sidecar failed validation: %+v", kind, off, ws)
			}
		}
	}
}

// TestWarmSidecarBitFlipSweep flips every single byte of a valid
// sidecar and asserts the restore rejects each damaged file outright —
// warm artifacts are discarded, never trusted: magic flips fail the
// magic check, CRC-field and body flips fail the body CRC (CRC32
// catches all single-byte errors), and nothing is seeded.
func TestWarmSidecarBitFlipSweep(t *testing.T) {
	repo, _, path, _, newData := warmSweepFixture(t)
	if ws := restoreInto(t, repo, path); !ws.Used || ws.Restored == 0 {
		t.Fatalf("pristine sidecar did not restore: %+v", ws)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	cur := make([]byte, len(newData))
	for x := 0; x < len(newData); x += stride {
		copy(cur, newData)
		cur[x] ^= 0xFF
		if err := os.WriteFile(path, cur, 0o644); err != nil {
			t.Fatal(err)
		}
		ws := restoreInto(t, repo, path)
		if !ws.Attempted {
			t.Fatalf("flip@%d: sidecar not read", x)
		}
		if ws.Used || ws.Restored != 0 {
			t.Fatalf("flip@%d: damaged sidecar trusted: %+v", x, ws)
		}
	}
}
