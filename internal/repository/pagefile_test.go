package repository

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/simcube"
)

// --- page file unit tests ------------------------------------------

func TestPageFileBuildRoundTrip(t *testing.T) {
	recs := []pageRecord{
		{kind: kindSchema, key: "alpha", payload: bytes.Repeat([]byte{0xA1}, 100)},
		{kind: kindSchema, key: "beta", payload: bytes.Repeat([]byte{0xB2}, 300)},
		{kind: kindCube, key: "gamma", payload: bytes.Repeat([]byte{0xC3}, 3000)}, // overflow at 512B pages
		{kind: kindMapping, key: "delta", payload: nil},
		{kind: kindCube, key: "epsilon", payload: bytes.Repeat([]byte{0xE5}, 700)}, // one-page overflow
	}
	logPath := filepath.Join(t.TempDir(), "pf.repo")
	img, locs, err := buildPageFile(512, 42, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != len(recs) {
		t.Fatalf("got %d locations for %d records", len(locs), len(recs))
	}
	if err := os.WriteFile(pagePath(logPath), img, 0o644); err != nil {
		t.Fatal(err)
	}
	pf, exists, damaged, err := openPageFile(OSFS, logPath)
	if err != nil || !exists || damaged {
		t.Fatalf("openPageFile: exists=%v damaged=%v err=%v", exists, damaged, err)
	}
	defer pf.Close()
	if pf.watermark != 42 {
		t.Fatalf("watermark = %d, want 42", pf.watermark)
	}
	if pf.pageCount < 2 {
		t.Fatalf("pageCount = %d, want a multi-page file", pf.pageCount)
	}
	// The directory scan must surface every record exactly once.
	scanned := make(map[string]recLoc)
	dmg, err := pf.scanPages(func(kind byte, key string, loc recLoc) {
		scanned[key] = loc
	})
	if err != nil || len(dmg) != 0 {
		t.Fatalf("scanPages: damaged=%v err=%v", dmg, err)
	}
	if len(scanned) != len(recs) {
		t.Fatalf("scan found %d records, want %d", len(scanned), len(recs))
	}
	// Every record reads back bit-identical through a pool smaller than
	// the file, so reads cross eviction boundaries.
	pool := newBufferPool(2, pf.readPage, nil)
	for i, rec := range recs {
		kind, key, payload, err := pf.record(pool, locs[i])
		if err != nil {
			t.Fatalf("record %q: %v", rec.key, err)
		}
		if kind != rec.kind || key != rec.key || !bytes.Equal(payload, rec.payload) {
			t.Fatalf("record %q: kind=%d key=%q len=%d, want kind=%d len=%d",
				rec.key, kind, key, len(payload), rec.kind, len(rec.payload))
		}
		if scanned[rec.key] != locs[i] {
			t.Fatalf("record %q: scan loc %v != build loc %v", rec.key, scanned[rec.key], locs[i])
		}
	}
	st := pool.stats()
	if st.Misses == 0 {
		t.Error("pool reports no misses after cold reads")
	}
	if st.Resident > st.Capacity {
		t.Errorf("resident %d exceeds capacity %d with no pins held", st.Resident, st.Capacity)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	fetched := make(map[uint32]int)
	fetch := func(no uint32) ([]byte, error) {
		fetched[no]++
		return []byte{byte(no)}, nil
	}
	bp := newBufferPool(2, fetch, nil)
	get := func(no uint32) *pageFrame {
		t.Helper()
		fr, err := bp.pin(no)
		if err != nil {
			t.Fatal(err)
		}
		if fr.buf[0] != byte(no) {
			t.Fatalf("page %d served wrong frame %d", no, fr.buf[0])
		}
		return fr
	}
	bp.unpin(get(1))
	bp.unpin(get(2))
	bp.unpin(get(1)) // hit
	bp.unpin(get(3)) // forces one eviction
	st := bp.stats()
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 1 eviction", st)
	}
	if st.Resident != 2 || st.Pinned != 0 {
		t.Fatalf("stats = %+v, want 2 resident and 0 pinned", st)
	}
	// With every frame pinned the pool admits over capacity instead of
	// deadlocking, and recovers the bound once pins drain.
	a, b := get(4), get(5)
	c := get(6)
	over := bp.stats()
	if over.Pinned != 3 {
		t.Fatalf("pinned = %d, want 3", over.Pinned)
	}
	if over.Resident <= 2 {
		t.Fatalf("resident = %d, expected admission over capacity", over.Resident)
	}
	bp.unpin(a)
	bp.unpin(b)
	bp.unpin(c)
	bp.unpin(get(7))
	after := bp.stats()
	if after.Resident > 2 || after.Pinned != 0 {
		t.Fatalf("stats after drain = %+v, want resident back under capacity", after)
	}
	// Pinned frames were never evicted: no page was fetched twice while
	// its frame was pinned.
	for no, n := range fetched {
		if n > 1 && (no == 4 || no == 5 || no == 6) {
			t.Errorf("page %d fetched %d times; pinned frame evicted?", no, n)
		}
	}
}

// --- paged repository integration ----------------------------------

// pagedOps populates a store with enough mixed state to span several
// small pages, returning the expected live keys per record kind.
func pagedOps(t *testing.T, r *Repo, n int) map[RecordKind]map[string]bool {
	t.Helper()
	want := map[RecordKind]map[string]bool{
		RecSchemas:  {},
		RecMappings: {},
		RecCubes:    {},
	}
	for i := 0; i < n; i++ {
		sName := fmt.Sprintf("S%03d", i)
		if err := r.PutSchema(sampleSchema(sName)); err != nil {
			t.Fatal(err)
		}
		want[RecSchemas][sName] = true
		from, to := fmt.Sprintf("F%03d", i), fmt.Sprintf("T%03d", i)
		m := simcube.NewMapping(from, to)
		m.Add("x", "y", 0.5)
		if err := r.PutMapping("auto", m); err != nil {
			t.Fatal(err)
		}
		want[RecMappings]["auto|"+from+"|"+to] = true
		cKey := fmt.Sprintf("C%03d", i)
		c := simcube.NewCube([]string{"a", "b", "c"}, []string{"d", "e"})
		c.NewLayer("Name").Set(0, 0, float64(i)/float64(n))
		if err := r.PutCube(cKey, c); err != nil {
			t.Fatal(err)
		}
		want[RecCubes][cKey] = true
	}
	// A few deletes so tombstones are exercised too.
	for i := 0; i < n; i += 5 {
		cKey := fmt.Sprintf("C%03d", i)
		if err := r.DeleteCube(cKey); err != nil {
			t.Fatal(err)
		}
		delete(want[RecCubes], cKey)
	}
	return want
}

// payloadReader is the raw-payload read surface Repo and Sharded
// share.
type payloadReader interface {
	Get(k RecordKind, key string) ([]byte, bool)
	Iter(k RecordKind, fn func(key string, payload []byte) error) error
}

// iterAll drains Iter for one kind into ordered keys and payload
// copies.
func iterAll(t *testing.T, st payloadReader, k RecordKind) ([]string, map[string][]byte) {
	t.Helper()
	var keys []string
	payloads := make(map[string][]byte)
	err := st.Iter(k, func(key string, payload []byte) error {
		keys = append(keys, key)
		payloads[key] = append([]byte(nil), payload...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, payloads
}

// TestPagedReopenBitIdentical is the golden paged-vs-resident check at
// the storage layer: the payload bytes a store serves must be
// bit-identical before a checkpoint (log-resident values), after it
// (paged through the buffer pool), and after a reopen from the page
// file.
func TestPagedReopenBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coma.repo")
	r, err := Open(path, WithSyncPolicy(SyncNone()), WithPageSize(512), WithPageCache(8))
	if err != nil {
		t.Fatal(err)
	}
	want := pagedOps(t, r, 20)
	kinds := []RecordKind{RecSchemas, RecMappings, RecCubes}
	before := make(map[RecordKind]map[string][]byte)
	for _, k := range kinds {
		keys, payloads := iterAll(t, r, k)
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("kind %d: Iter keys not sorted: %v", k, keys)
		}
		if len(keys) != len(want[k]) {
			t.Fatalf("kind %d: %d keys, want %d", k, len(keys), len(want[k]))
		}
		before[k] = payloads
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(pagePath(path)); err != nil {
		t.Fatalf("no page file after checkpoint: %v", err)
	}
	check := func(st payloadReader, ctx string) {
		t.Helper()
		for _, k := range kinds {
			keys, payloads := iterAll(t, st, k)
			if len(keys) != len(before[k]) {
				t.Fatalf("%s: kind %d: %d keys, want %d", ctx, k, len(keys), len(before[k]))
			}
			for key, pay := range before[k] {
				if !bytes.Equal(payloads[key], pay) {
					t.Fatalf("%s: kind %d key %q: payload differs from pre-checkpoint bytes", ctx, k, key)
				}
				got, ok := st.Get(k, key)
				if !ok || !bytes.Equal(got, pay) {
					t.Fatalf("%s: Get(%d, %q) = ok=%v, differs from Iter payload", ctx, k, key, ok)
				}
			}
		}
	}
	check(r, "paged after checkpoint")
	// Schemas keep identity-stable decoded instances across paging.
	s1, _ := r.GetSchema("S001")
	s2, _ := r.GetSchema("S001")
	if s1 == nil || s1 != s2 {
		t.Fatal("GetSchema not identity-stable after checkpoint")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path, WithPageSize(512), WithPageCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep := r2.RecoveryReport()
	if !rep.CheckpointUsed || !rep.Clean() {
		t.Fatalf("reopen report: %s", rep)
	}
	check(r2, "reopened from page file")
	s3, _ := r2.GetSchema("S001")
	s4, _ := r2.GetSchema("S001")
	if s3 == nil || s3 != s4 {
		t.Fatal("GetSchema not identity-stable after paged reopen")
	}
	st := r2.PageCacheStats()
	if st.Misses == 0 {
		t.Errorf("page cache reports no misses after reading a paged store: %+v", st)
	}
	if pb := r2.Stats().PageBytes; pb == 0 {
		t.Error("Stats.PageBytes = 0 for a paged store")
	}
}

// TestPagedStoreLargerThanPool serves a store whose page file far
// exceeds the buffer pool and checks every record still reads
// correctly while the pool churns.
func TestPagedStoreLargerThanPool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coma.repo")
	opts := []OpenOption{WithSyncPolicy(SyncNone()), WithPageSize(512), WithPageCache(2)}
	r, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := pagedOps(t, r, 40)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if pc := r2.pf.pageCount; pc <= 2 {
		t.Fatalf("page file holds %d pages; store not larger than the 2-page pool", pc)
	}
	for k, keys := range want {
		got, _ := iterAll(t, r2, k)
		if len(got) != len(keys) {
			t.Fatalf("kind %d: Iter yielded %d keys, want %d", k, len(got), len(keys))
		}
	}
	// Point reads decode correctly under churn.
	for key := range want[RecCubes] {
		if _, ok := r2.GetCube(key); !ok {
			t.Fatalf("cube %q unreadable from evicting pool", key)
		}
	}
	for key := range want[RecSchemas] {
		if _, ok := r2.GetSchema(key); !ok {
			t.Fatalf("schema %q unreadable from evicting pool", key)
		}
	}
	st := r2.PageCacheStats()
	if st.Capacity != 2 {
		t.Fatalf("capacity = %d, want 2", st.Capacity)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions scanning a store larger than the pool: %+v", st)
	}
	if st.Resident > st.Capacity {
		t.Errorf("resident %d exceeds capacity %d with no reads in flight", st.Resident, st.Capacity)
	}
}

// TestDamagedPageSalvage corrupts one page of a multi-page snapshot
// and checks open drops exactly the records that page (or its
// overflow chains) made unreadable, keeps everything else including
// the log tail, and salvage-rewrites to a clean store.
func TestDamagedPageSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coma.repo")
	opts := []OpenOption{WithSyncPolicy(SyncNone()), WithPageSize(512), WithPageCache(8)}
	r, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := pagedOps(t, r, 20)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A log tail past the snapshot must survive the page damage.
	if err := r.PutSchema(sampleSchema("TAIL")); err != nil {
		t.Fatal(err)
	}
	want[RecSchemas]["TAIL"] = true
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the slot area of page 1.
	img, err := os.ReadFile(pagePath(path))
	if err != nil {
		t.Fatal(err)
	}
	img[pageFileHdrSize+512+pageHdrSize+1] ^= 0x40
	if err := os.WriteFile(pagePath(path), img, 0o644); err != nil {
		t.Fatal(err)
	}
	// Compute the expected casualties from the corrupted file itself:
	// records whose directory entry sits on the dead page, plus records
	// whose overflow chain crosses it.
	pf, exists, damaged, err := openPageFile(OSFS, path)
	if err != nil || !exists || damaged {
		t.Fatalf("corrupted data page must not fail the header: exists=%v damaged=%v err=%v", exists, damaged, err)
	}
	surviving := make(map[string]recLoc)
	dmg, err := pf.scanPages(func(kind byte, key string, loc recLoc) {
		surviving[key] = loc
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dmg) == 0 {
		t.Fatal("bit flip did not damage any page")
	}
	lost := make(map[string]bool)
	pool := newBufferPool(8, pf.readPage, nil)
	for key, loc := range surviving {
		if _, _, _, err := pf.record(pool, loc); err != nil {
			lost[key] = true
		}
	}
	for k, keys := range want {
		_ = k
		for key := range keys {
			if key == "TAIL" {
				continue
			}
			if _, ok := surviving[key]; !ok {
				lost[key] = true
			}
		}
	}
	pf.Close()
	if len(lost) == 0 {
		t.Fatal("damaged page held no records; pick a different page")
	}
	r2, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep := r2.RecoveryReport()
	if rep.PagesDamaged == 0 || !rep.Salvaged || !rep.CheckpointUsed {
		t.Fatalf("reopen report: %s", rep)
	}
	for k, keys := range want {
		got, _ := iterAll(t, r2, k)
		gotSet := make(map[string]bool, len(got))
		for _, key := range got {
			gotSet[key] = true
		}
		for key := range keys {
			if lost[key] && gotSet[key] {
				t.Errorf("kind %d key %q: on the damaged page yet still present", k, key)
			}
			if !lost[key] && !gotSet[key] {
				t.Errorf("kind %d key %q: lost despite living on an intact page", k, key)
			}
		}
		for key := range gotSet {
			if !keys[key] {
				t.Errorf("kind %d key %q: resurrected", k, key)
			}
		}
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	// Salvage folded the survivors into a fresh self-contained log; the
	// damaged page file is gone and the next open is clean.
	if _, err := os.Stat(pagePath(path)); !os.IsNotExist(err) {
		t.Fatalf("damaged page file still present after salvage: %v", err)
	}
	r3, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if rep := r3.RecoveryReport(); !rep.Clean() {
		t.Fatalf("post-salvage reopen not clean: %s", rep)
	}
}

// TestVerifyPagedStore checks the offline verifier understands page
// files: healthy paged stores are OK, page damage is reported without
// modifying the files.
func TestVerifyPagedStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coma.repo")
	opts := []OpenOption{WithSyncPolicy(SyncNone()), WithPageSize(512)}
	r, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	pagedOps(t, r, 12)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.PutSchema(sampleSchema("TAIL")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	v, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() || !v.CheckpointUsed || v.PageRecords == 0 {
		t.Fatalf("healthy paged store: %s (PageRecords=%d)", v, v.PageRecords)
	}
	if v.Records == 0 {
		t.Fatalf("log tail not counted: %s", v)
	}
	img, err := os.ReadFile(pagePath(path))
	if err != nil {
		t.Fatal(err)
	}
	img[pageFileHdrSize+512+pageHdrSize+1] ^= 0x40
	if err := os.WriteFile(pagePath(path), img, 0o644); err != nil {
		t.Fatal(err)
	}
	v2, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if v2.OK() || v2.PagesDamaged == 0 {
		t.Fatalf("verifier missed the damaged page: %s", v2)
	}
	// Verify must not have repaired anything.
	after, err := os.ReadFile(pagePath(path))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, img) {
		t.Fatal("Verify modified the page file")
	}
}

// --- crash sweeps over the page-file write paths --------------------

// crashSweepState builds one store on the real filesystem and returns
// its directory, log name and expected keys, for sweeps to copy from.
func crashSweepState(t *testing.T, checkpoint bool) (dir string, want map[RecordKind]map[string]bool) {
	t.Helper()
	dir = t.TempDir()
	r, err := Open(filepath.Join(dir, "coma.repo"), WithSyncPolicy(SyncNone()), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	want = pagedOps(t, r, 12)
	if checkpoint {
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := r.PutSchema(sampleSchema("TAIL")); err != nil {
			t.Fatal(err)
		}
		want[RecSchemas]["TAIL"] = true
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

func copyRepoFiles(t *testing.T, srcDir, dstDir string) string {
	t.Helper()
	for _, name := range []string{"coma.repo", "coma.repo" + pageSuffix} {
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dstDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dstDir, "coma.repo")
}

func checkKinds(t *testing.T, st payloadReader, want map[RecordKind]map[string]bool, ctx string) {
	t.Helper()
	for k, keys := range want {
		got, _ := iterAll(t, st, k)
		gotSet := make(map[string]bool, len(got))
		for _, key := range got {
			gotSet[key] = true
		}
		for key := range keys {
			if !gotSet[key] {
				t.Fatalf("%s: kind %d key %q lost", ctx, k, key)
			}
		}
		for key := range gotSet {
			if !keys[key] {
				t.Fatalf("%s: kind %d key %q resurrected", ctx, k, key)
			}
		}
	}
}

// TestCheckpointCrashSweepPageWrite injects a write fault at every
// byte offset of the checkpoint's page-file write and asserts the
// all-or-nothing contract: a failed checkpoint leaves the log intact,
// so a reopen recovers every acknowledged record.
func TestCheckpointCrashSweepPageWrite(t *testing.T) {
	srcDir, want := crashSweepState(t, false)
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	kinds := []FaultKind{FaultFail, FaultShortWrite}
	for _, fk := range kinds {
		for n := int64(0); ; n += stride {
			path := copyRepoFiles(t, srcDir, t.TempDir())
			ffs := NewFaultFS(nil)
			r, err := Open(path, WithFS(ffs), WithSyncPolicy(SyncNone()), WithPageSize(512))
			if err != nil {
				t.Fatalf("fault=%v n=%d: open: %v", fk, n, err)
			}
			ffs.Arm(fk, n)
			cerr := r.Checkpoint()
			fired := ffs.Fired()
			ffs.Disarm()
			if fired && cerr == nil {
				t.Fatalf("fault=%v n=%d: checkpoint succeeded despite injected fault", fk, n)
			}
			r.Close()
			r2, err := Open(path, WithPageSize(512))
			if err != nil {
				t.Fatalf("fault=%v n=%d: reopen: %v", fk, n, err)
			}
			checkKinds(t, r2, want, fmt.Sprintf("fault=%v n=%d", fk, n))
			if !fired {
				// The whole image was written before the fault offset; the
				// checkpoint completed and the reopen must have served it.
				if cerr != nil {
					t.Fatalf("fault=%v n=%d: unfired fault but checkpoint error: %v", fk, n, cerr)
				}
				if rep := r2.RecoveryReport(); !rep.CheckpointUsed {
					t.Fatalf("fault=%v n=%d: completed checkpoint not used on reopen: %s", fk, n, rep)
				}
				r2.Close()
				break
			}
			r2.Close()
		}
	}
}

// TestCompactCrashSweepAfterCheckpoint injects a write fault at every
// byte of a Compact running over a paged store. Compact rewrites the
// log (rewrite marker first) before removing the snapshot; a crash at
// any write offset must leave either the old page-file state or the
// complete rewritten log — never a torn mix.
func TestCompactCrashSweepAfterCheckpoint(t *testing.T) {
	srcDir, want := crashSweepState(t, true)
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	for n := int64(0); ; n += stride {
		path := copyRepoFiles(t, srcDir, t.TempDir())
		ffs := NewFaultFS(nil)
		r, err := Open(path, WithFS(ffs), WithSyncPolicy(SyncNone()), WithPageSize(512))
		if err != nil {
			t.Fatalf("n=%d: open: %v", n, err)
		}
		ffs.Arm(FaultFail, n)
		cerr := r.Compact()
		fired := ffs.Fired()
		ffs.Disarm()
		r.Close()
		r2, err := Open(path, WithPageSize(512))
		if err != nil {
			t.Fatalf("n=%d: reopen after compact fault: %v", n, err)
		}
		checkKinds(t, r2, want, fmt.Sprintf("compact fault n=%d", n))
		rep := r2.RecoveryReport()
		r2.Close()
		if !fired {
			if cerr != nil {
				t.Fatalf("n=%d: unfired fault but compact error: %v", n, cerr)
			}
			// A completed compact folded the snapshot into the log; the
			// page file is gone and the reopen is self-contained.
			if _, err := os.Stat(pagePath(path)); !os.IsNotExist(err) {
				t.Fatalf("n=%d: page file survives a completed compact: %v", n, err)
			}
			if rep.CheckpointUsed {
				t.Fatalf("n=%d: reopen used a page file after compact removed it: %s", n, rep)
			}
			break
		}
	}
}

// TestStaleSnapshotIgnored simulates the compact crash window after
// the rewritten log is renamed in but before the snapshot files are
// removed: the rewrite marker must make open (and Verify) ignore the
// stale page file rather than resurrect deleted records.
func TestStaleSnapshotIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coma.repo")
	opts := []OpenOption{WithSyncPolicy(SyncNone()), WithPageSize(512)}
	r, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := pagedOps(t, r, 12)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A post-checkpoint delete: the stale snapshot still holds this
	// record, so trusting it would resurrect the schema.
	if err := r.DeleteSchema("S001"); err != nil {
		t.Fatal(err)
	}
	delete(want[RecSchemas], "S001")
	stale, err := os.ReadFile(pagePath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Put the superseded snapshot back, as if Compact crashed between
	// the rename and the removal.
	if err := os.WriteFile(pagePath(path), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if v.CheckpointUsed {
		t.Fatalf("Verify trusted a superseded snapshot: %s", v)
	}
	if !v.OK() {
		t.Fatalf("stale-snapshot state should verify OK (open ignores it): %s", v)
	}
	r2, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep := r2.RecoveryReport()
	if rep.CheckpointUsed {
		t.Fatalf("open trusted a superseded snapshot: %s", rep)
	}
	checkKinds(t, r2, want, "stale snapshot")
	if _, ok := r2.GetSchema("S001"); ok {
		t.Fatal("deleted schema resurrected from a stale snapshot")
	}
	// Open removed the stale file so it cannot confuse a later open.
	if _, err := os.Stat(pagePath(path)); !os.IsNotExist(err) {
		t.Fatalf("stale page file not cleaned up: %v", err)
	}
}

// TestShardedPagedStore checks the sharded store routes Get/Iter and
// aggregates page-cache stats across paged shards.
func TestShardedPagedStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 3, WithSyncPolicy(SyncNone()), WithPageSize(512), WithPageCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var schemas []string
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("S%03d", i)
		if err := s.PutSchema(sampleSchema(name)); err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, name)
	}
	m := simcube.NewMapping("S000", "S001")
	m.Add("x", "y", 0.9)
	if err := s.PutMapping("auto", m); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, name := range schemas {
		if _, ok := s.Get(RecSchemas, name); !ok {
			t.Fatalf("Get(RecSchemas, %q) missed after checkpoint", name)
		}
	}
	if _, ok := s.Get(RecMappings, "auto|S000|S001"); !ok {
		t.Fatal("mapping record not routed to its shard")
	}
	keys, _ := iterAll(t, s, RecSchemas)
	if len(keys) != len(schemas) {
		t.Fatalf("sharded Iter yielded %d schemas, want %d", len(keys), len(schemas))
	}
	st := s.PageCacheStats()
	if st.Capacity != 3*4 {
		t.Fatalf("aggregated capacity = %d, want 12", st.Capacity)
	}
	if st.Misses == 0 {
		t.Errorf("aggregated stats show no misses after paged reads: %+v", st)
	}
}
