package repository

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simcube"
)

// foldState is the expected repository contents computed by folding an
// op list — the oracle the crash-point sweep compares reopened stores
// against.
type foldState struct {
	schemas  map[string]bool
	mappings map[string]bool
	cubes    map[string]bool
}

func newFoldState() *foldState {
	return &foldState{
		schemas:  make(map[string]bool),
		mappings: make(map[string]bool),
		cubes:    make(map[string]bool),
	}
}

// sweepOp is one acknowledged write: the action that appends exactly
// one log record, and its effect on the expected state.
type sweepOp struct {
	desc string
	do   func(r *Repo) error
	fold func(st *foldState)
}

// sweepOps builds 60 mixed operations — puts, overwrites and deletes
// across all three record families — each appending one record.
func sweepOps() []sweepOp {
	var ops []sweepOp
	for g := 0; g < 12; g++ {
		sName := fmt.Sprintf("S%02d", g)
		from, to := fmt.Sprintf("F%02d", g), fmt.Sprintf("T%02d", g)
		mKey := "auto|" + from + "|" + to
		cKey := fmt.Sprintf("C%02d", g)
		ops = append(ops,
			sweepOp{"put " + sName,
				func(r *Repo) error { return r.PutSchema(sampleSchema(sName)) },
				func(st *foldState) { st.schemas[sName] = true }},
			sweepOp{"put mapping " + mKey,
				func(r *Repo) error {
					m := simcube.NewMapping(from, to)
					m.Add("x", "y", 0.5)
					return r.PutMapping("auto", m)
				},
				func(st *foldState) { st.mappings[mKey] = true }},
			sweepOp{"put cube " + cKey,
				func(r *Repo) error {
					c := simcube.NewCube([]string{"a"}, []string{"b"})
					c.NewLayer("Name").Set(0, 0, 0.5)
					return r.PutCube(cKey, c)
				},
				func(st *foldState) { st.cubes[cKey] = true }},
		)
		if g%2 == 1 {
			ops = append(ops,
				sweepOp{"del " + sName,
					func(r *Repo) error { return r.DeleteSchema(sName) },
					func(st *foldState) { delete(st.schemas, sName) }},
				sweepOp{"del cube " + cKey,
					func(r *Repo) error { return r.DeleteCube(cKey) },
					func(st *foldState) { delete(st.cubes, cKey) }},
			)
		} else {
			ops = append(ops,
				sweepOp{"overwrite " + sName,
					func(r *Repo) error { return r.PutSchema(sampleSchema(sName)) },
					func(st *foldState) { st.schemas[sName] = true }},
				sweepOp{"del mapping " + mKey,
					func(r *Repo) error { return r.DeleteMapping("auto", from, to) },
					func(st *foldState) { delete(st.mappings, mKey) }},
			)
		}
	}
	return ops
}

// buildSweepLog writes the op sequence to a fresh log and returns the
// log bytes plus each record's [start, end) extent.
func buildSweepLog(t *testing.T, path string) ([]sweepOp, []byte, [][2]int) {
	t.Helper()
	ops := sweepOps()
	r, err := Open(path, WithSyncPolicy(SyncNone()))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := op.do(r); err != nil {
			t.Fatalf("%s: %v", op.desc, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var extents [][2]int
	off := len(fileMagicV2)
	var prev uint64
	for off < len(data) {
		seq, _, _, size, ok := parseFrame(data, off, prev)
		if !ok {
			t.Fatalf("freshly written log unparsable at offset %d", off)
		}
		extents = append(extents, [2]int{off, off + size})
		prev = seq
		off += size
	}
	if len(extents) != len(ops) {
		t.Fatalf("log holds %d records, expected %d (one per op)", len(extents), len(ops))
	}
	if len(extents) < 50 {
		t.Fatalf("sweep log too small: %d records", len(extents))
	}
	return ops, data, extents
}

// checkState compares the reopened repo against the folded oracle.
func checkState(t *testing.T, r *Repo, st *foldState, ctx string) {
	t.Helper()
	diff := func(kind string, got map[string]bool, want map[string]bool) {
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: %s %q lost", ctx, kind, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("%s: unexpected %s %q (resurrected or corrupt)", ctx, kind, k)
			}
		}
	}
	gotSchemas := make(map[string]bool, len(r.schemas))
	for k := range r.schemas {
		gotSchemas[k] = true
	}
	gotMappings := make(map[string]bool, len(r.mappings))
	for k := range r.mappings {
		gotMappings[k] = true
	}
	gotCubes := make(map[string]bool, len(r.cubes))
	for k := range r.cubes {
		gotCubes[k] = true
	}
	diff("schema", gotSchemas, st.schemas)
	diff("mapping", gotMappings, st.mappings)
	diff("cube", gotCubes, st.cubes)
}

// TestCrashPointSweepTruncation truncates a 60-record log at every
// byte offset and asserts each reopen succeeds with exactly the
// acknowledged prefix — the records whose frames fit entirely before
// the cut. This is the SyncAlways durability contract: an
// acknowledged (fsynced) write is never lost, an unacknowledged one
// never half-applies.
func TestCrashPointSweepTruncation(t *testing.T) {
	dir := t.TempDir()
	ops, data, extents := buildSweepLog(t, filepath.Join(dir, "sweep.repo"))
	caseP := filepath.Join(dir, "case.repo")
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for x := 0; x < len(data); x += stride {
		if err := os.WriteFile(caseP, data[:x], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(caseP)
		if err != nil {
			t.Fatalf("truncate@%d: open failed: %v", x, err)
		}
		k := 0
		for k < len(extents) && extents[k][1] <= x {
			k++
		}
		st := newFoldState()
		for _, op := range ops[:k] {
			op.fold(st)
		}
		checkState(t, r, st, fmt.Sprintf("truncate@%d (prefix of %d records)", x, k))
		r.Close()
	}
}

// TestCrashPointSweepBitFlip inverts the byte at every offset of the
// log and asserts each reopen succeeds with every record except the
// one the flip landed in — salvage scans past exactly the damaged
// frame. Flips inside the 12-byte file header damage no record;
// salvage recovers the complete state.
func TestCrashPointSweepBitFlip(t *testing.T) {
	dir := t.TempDir()
	ops, data, extents := buildSweepLog(t, filepath.Join(dir, "sweep.repo"))
	caseP := filepath.Join(dir, "case.repo")
	stride := 1
	if testing.Short() {
		stride = 7
	}
	cur := make([]byte, len(data))
	for x := 0; x < len(data); x += stride {
		copy(cur, data)
		cur[x] ^= 0xFF
		if err := os.WriteFile(caseP, cur, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(caseP)
		if err != nil {
			t.Fatalf("flip@%d: open failed: %v", x, err)
		}
		damaged := -1 // index of the op whose record covers x
		for i, e := range extents {
			if e[0] <= x && x < e[1] {
				damaged = i
				break
			}
		}
		st := newFoldState()
		for i, op := range ops {
			if i == damaged {
				continue
			}
			op.fold(st)
		}
		checkState(t, r, st, fmt.Sprintf("flip@%d (damaged record %d)", x, damaged))
		if rep := r.RecoveryReport(); rep.Clean() {
			t.Fatalf("flip@%d: recovery report claims a clean open", x)
		}
		r.Close()
	}
}

// TestFaultShortWriteRollback injects a torn append (partial write +
// error) and asserts the failed append is rolled back cleanly: the
// error surfaces, later appends succeed, and the reopened log is
// whole — no torn bytes poisoning subsequent records.
func TestFaultShortWriteRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fault.repo")
	ffs := NewFaultFS(nil)
	r, err := Open(path, WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.PutSchema(sampleSchema("OK")); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(FaultShortWrite, 10) // tear the next frame 10 bytes in
	if err := r.PutSchema(sampleSchema("LOST")); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("torn append returned %v, want injected fault", err)
	}
	if !ffs.Fired() {
		t.Fatal("fault never fired")
	}
	ffs.Disarm()
	if err := r.PutSchema(sampleSchema("AFTER")); err != nil {
		t.Fatalf("append after rolled-back fault: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if rep := r2.RecoveryReport(); !rep.Clean() {
		t.Errorf("log not clean after rolled-back fault: %s", rep)
	}
	if _, ok := r2.GetSchema("OK"); !ok {
		t.Error("pre-fault schema lost")
	}
	if _, ok := r2.GetSchema("LOST"); ok {
		t.Error("failed append visible after reopen")
	}
	if _, ok := r2.GetSchema("AFTER"); !ok {
		t.Error("post-fault schema lost")
	}
}

// TestFaultFailRollback: a write that fails outright (nothing written)
// must behave identically to the torn-write case.
func TestFaultFailRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fault.repo")
	ffs := NewFaultFS(nil)
	r, err := Open(path, WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	ffs.Arm(FaultFail, 0)
	if err := r.PutSchema(sampleSchema("LOST")); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("failed append returned %v, want injected fault", err)
	}
	ffs.Disarm()
	if err := r.PutSchema(sampleSchema("AFTER")); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if rep := r2.RecoveryReport(); !rep.Clean() {
		t.Errorf("log not clean: %s", rep)
	}
	if _, ok := r2.GetSchema("AFTER"); !ok {
		t.Error("post-fault schema lost")
	}
}

// TestFaultBitFlip: silent corruption in the last record is caught by
// the CRC on reopen and costs exactly that record.
func TestFaultBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fault.repo")
	ffs := NewFaultFS(nil)
	r, err := Open(path, WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.PutSchema(sampleSchema("KEPT")); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(FaultBitFlip, 25)
	if err := r.PutSchema(sampleSchema("FLIPPED")); err != nil {
		t.Fatalf("bit flip must be silent at write time, got %v", err)
	}
	r.Close()
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.GetSchema("KEPT"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := r2.GetSchema("FLIPPED"); ok {
		t.Error("corrupted record applied")
	}
	if rep := r2.RecoveryReport(); rep.Clean() {
		t.Error("corruption not reported")
	}
}

// TestGroupCommitChurn hammers a SyncInterval store from many
// goroutines (run under -race) and asserts every acknowledged write
// is present after an explicit Sync barrier and reopen.
func TestGroupCommitChurn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.repo")
	r, err := Open(path, WithSyncPolicy(SyncInterval(2*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	const workers, puts = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := r.PutSchema(sampleSchema(fmt.Sprintf("W%02dI%02d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if rep := r2.RecoveryReport(); !rep.Clean() {
		t.Errorf("churned log not clean: %s", rep)
	}
	if got := len(r2.SchemaNames()); got != workers*puts {
		t.Errorf("recovered %d schemas, want %d", got, workers*puts)
	}
}

// TestCheckpointRestart: records before the checkpoint come back from
// the snapshot, records after it from the log suffix.
func TestCheckpointRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.repo")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r.PutSchema(sampleSchema("A"))
	r.PutSchema(sampleSchema("B"))
	r.DeleteSchema("B")
	fullLog := r.Stats().LogBytes
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := r.Stats().LogBytes; after >= fullLog {
		t.Errorf("checkpoint did not truncate the log: %d -> %d", fullLog, after)
	}
	r.PutSchema(sampleSchema("C"))
	r.Close()

	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep := r2.RecoveryReport()
	if !rep.CheckpointUsed || !rep.Clean() {
		t.Errorf("report = %s, want clean checkpoint restart", rep)
	}
	if names := r2.SchemaNames(); len(names) != 2 || names[0] != "A" || names[1] != "C" {
		t.Errorf("SchemaNames = %v, want [A C]", names)
	}
	if _, ok := r2.GetSchema("B"); ok {
		t.Error("deleted schema resurrected through checkpoint")
	}
}

// TestCheckpointCrashBeforeLogTruncate reconstructs the crash window
// between the snapshot rename and the log truncation: both the full
// log and the checkpoint exist. Replay must use the snapshot, skip
// the log records at or below the watermark, and still apply the
// suffix past it.
func TestCheckpointCrashBeforeLogTruncate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.repo")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r.PutSchema(sampleSchema("A"))
	r.PutSchema(sampleSchema("B"))
	preCkpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.PutSchema(sampleSchema("C"))
	r.Close()
	// Splice the pre-checkpoint log back in front of the post-checkpoint
	// suffix: exactly what disk holds if the crash hits before truncate.
	postCkpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashed := append(append([]byte{}, preCkpt...), postCkpt[len(fileMagicV2):]...)
	if err := os.WriteFile(path, crashed, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep := r2.RecoveryReport()
	if !rep.CheckpointUsed {
		t.Errorf("report = %s, want checkpoint used", rep)
	}
	if names := r2.SchemaNames(); len(names) != 3 {
		t.Errorf("SchemaNames = %v, want [A B C]", names)
	}
}

// TestLegacyCheckpointRefused: a flat checkpoint ("<log>.ckpt", the
// snapshot format before page files) beside a log fails Open and
// Verify with an error naming the file, and neither touches a byte of
// the log or the checkpoint. Such a store may hold its state only in
// the checkpoint; opening it without that state would serve a store
// missing those records, and the next checkpoint would lose them for
// good.
func TestLegacyCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.repo")
	// On-disk state an old version would have left: a checkpoint with
	// schemas A and B through watermark 2, and a log tail holding C.
	ckpt := []byte("COMA.ckpt\x001\n")
	ckpt = binary.LittleEndian.AppendUint64(ckpt, 2)
	ckpt = appendFrame(ckpt, 1, kindSchema, encodeSchema(sampleSchema("A")))
	ckpt = appendFrame(ckpt, 2, kindSchema, encodeSchema(sampleSchema("B")))
	log := append([]byte{}, fileMagicV2...)
	log = appendFrame(log, 3, kindSchema, encodeSchema(sampleSchema("C")))
	cp := path + ".ckpt"
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := Open(path); err == nil {
		r.Close()
		t.Fatal("Open accepted a store with a flat checkpoint")
	} else if !strings.Contains(err.Error(), cp) {
		t.Errorf("Open error does not name %s: %v", cp, err)
	}
	if _, err := Verify(path); err == nil || !strings.Contains(err.Error(), cp) {
		t.Errorf("Verify error = %v, want one naming %s", err, cp)
	}
	if _, err := VerifyStore(path); err == nil {
		t.Error("VerifyStore accepted a store with a flat checkpoint")
	}
	for name, want := range map[string][]byte{path: log, cp: ckpt} {
		if got, err := os.ReadFile(name); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed by the refused open (err %v)", name, err)
		}
	}
}

// TestCompactRemovesCheckpoint: a snapshot taken before a delete must
// not survive a compaction, or replay would resurrect the deleted key
// from it.
func TestCompactRemovesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cc.repo")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r.PutSchema(sampleSchema("A"))
	r.PutSchema(sampleSchema("B"))
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.DeleteSchema("B")
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.GetSchema("B"); ok {
		t.Error("deleted schema resurrected after compaction")
	}
	if _, ok := r2.GetSchema("A"); !ok {
		t.Error("live schema lost")
	}
}

// legacyFrame encodes one version-1 record:
// [4B LE len][1B kind][payload][4B LE CRC32(kind+payload)].
func legacyFrame(kind byte, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, kind)
	out = append(out, payload...)
	crc := crc32.NewIEEE()
	crc.Write([]byte{kind})
	crc.Write(payload)
	return binary.LittleEndian.AppendUint32(out, crc.Sum32())
}

// TestV1LogRefused: a version-1 log (the frame format before per-record
// magic and sequences) holds no frame this build reads, so Open and
// Verify fail with the "not a repository file" error and leave its
// bytes unchanged.
func TestV1LogRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.repo")
	file := []byte("COMA.repo\x001\n")
	file = append(file, legacyFrame(kindSchema, encodeSchema(sampleSchema("OLD")))...)
	file = append(file, legacyFrame(kindSchema, encodeSchema(sampleSchema("OLDER")))...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "not a repository file"
	if r, err := Open(path); err == nil {
		r.Close()
		t.Fatal("Open accepted a version-1 log")
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("Open error = %v, want %q", err, want)
	}
	if _, err := Verify(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Verify error = %v, want %q", err, want)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, file) {
		t.Errorf("refused open changed the version-1 log (err %v)", err)
	}
}

// TestShardedRecoveryReports: one corrupt shard out of N salvages with
// a per-shard report; the other shards open clean and keep their data.
func TestShardedRecoveryReports(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 3, WithSyncPolicy(SyncNone()))
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := s.PutSchema(sampleSchema(fmt.Sprintf("Sch%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first record of shard 1.
	victim := filepath.Join(dir, fmt.Sprintf(shardPattern, 1))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(fileMagicV2)+recHdrSize+2] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSharded(dir, 3)
	if err != nil {
		t.Fatalf("sharded open with one corrupt shard: %v", err)
	}
	defer s2.Close()
	reports := s2.Reports()
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	for i, rep := range reports {
		if i == 1 {
			if rep.Clean() || !rep.Salvaged {
				t.Errorf("shard 1 report = %s, want salvage", rep)
			}
		} else if !rep.Clean() {
			t.Errorf("shard %d report = %s, want clean", i, rep)
		}
	}
	if got := len(s2.SchemaNames()); got != n-1 {
		t.Errorf("recovered %d schemas, want %d (exactly one lost)", got, n-1)
	}
}

// TestVerifyAndRepair: Verify reports damage without touching the
// file; RepairStore salvages it; Verify then passes.
func TestVerifyAndRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fsck.repo")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r.PutSchema(sampleSchema("A"))
	r.PutSchema(sampleSchema("B"))
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(fileMagicV2)+recHdrSize+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	v, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK() || len(v.SkippedRanges) != 1 || v.Records != 1 {
		t.Errorf("verify = %s (records=%d), want 1 damaged range, 1 valid record", v, v.Records)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, after) {
		t.Fatal("Verify modified the file")
	}

	reps, err := RepairStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Salvaged {
		t.Errorf("repair reports = %v, want one salvage", reps)
	}
	v2, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.OK() {
		t.Errorf("post-repair verify = %s, want OK", v2)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.GetSchema("B"); !ok {
		t.Error("surviving record lost through repair")
	}
}

// TestVerifySharded: VerifyStore walks every shard of a directory.
func TestVerifySharded(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.PutSchema(sampleSchema("A"))
	s.Close()
	reports, err := VerifyStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("got %d shard reports, want 4", len(reports))
	}
	for _, v := range reports {
		if !v.OK() {
			t.Errorf("shard %s not OK: %s", v.Path, v)
		}
	}
}

// TestParseSyncPolicy covers the flag forms.
func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"always", "always", false},
		{"", "always", false},
		{"none", "none", false},
		{"interval", DefaultSyncInterval.String(), false},
		{"100ms", "100ms", false},
		{"2s", "2s", false},
		{"-5ms", "none", false},
		{"bogus", "", true},
	}
	for _, c := range cases {
		p, err := ParseSyncPolicy(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", c.in, err)
			continue
		}
		if p.String() != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %s, want %s", c.in, p, c.want)
		}
	}
}
