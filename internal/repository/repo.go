// Package repository implements COMA's repository substrate (Do & Rahm,
// VLDB 2002, Sections 3 and 5.2): the store for imported schemas,
// intermediate similarity cubes of individual matchers, and complete
// (possibly user-confirmed) match results kept for later reuse. The
// paper backs this with an external DBMS; this package provides an
// embedded, stdlib-only equivalent exercising the same code paths.
//
// Storage layout: an append-only record log (the write-ahead tail)
// plus, once the store has been checkpointed, a slotted page file
// holding the snapshotted state. Every log record is
//
//	[4B record magic][8B LE sequence][4B LE payload len][1B kind][payload][4B CRC32]
//
// where the CRC covers sequence+len+kind+payload. Writes are
// append-only; updates supersede earlier records for the same key and
// deletes append tombstones. Open replays the page file into a key
// directory (keys and page locations only — payloads stay on disk and
// stream through a capacity-bounded buffer pool on demand) and then
// the log suffix past the snapshot watermark, so the store serves
// repositories larger than memory and restart cost is bounded by the
// tail, not the history. Recovery is salvage-grade: a torn tail is
// truncated, mid-log damage is scanned past to the next valid record
// boundary, and a damaged page costs that page's records, not the
// snapshot. Every open produces a RecoveryReport. Compact rewrites the
// log with only live records. SyncPolicy picks the fsync cadence:
// per-append, group commit, or none.
package repository

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/schema"
	"repro/internal/simcube"
)

// Record kinds.
const (
	kindSchema byte = iota + 1
	kindSchemaDel
	kindMapping
	kindMappingDel
	kindCube
	kindCubeDel
	// kindRewrite marks a log produced by a full rewrite (Compact or
	// salvage): the log is self-contained, and any snapshot file whose
	// watermark is below the marker's sequence predates the rewrite and
	// must be ignored. The marker lets rewrites rename the new log into
	// place *before* dropping superseded snapshots — a crash between
	// the two steps leaves a stale snapshot that open detects and
	// discards, instead of a removed snapshot whose state the tail-only
	// old log no longer held. The payload is the superseded snapshot
	// watermark (8B LE), for fsck forensics.
	kindRewrite
)

// RecordKind selects one of the repository's keyed record spaces for
// the raw-payload access paths (Get, Iter).
type RecordKind int

const (
	// RecSchemas are schema records keyed by schema name.
	RecSchemas RecordKind = iota
	// RecMappings are mapping records keyed by "tag|from|to".
	RecMappings
	// RecCubes are similarity-cube records keyed by cube key.
	RecCubes
)

// entry is one live record in the key directory. val holds the decoded
// record when resident; paged entries know their page-file location
// and decode on demand. Schemas cache their decoded value once read
// (pointer identity is load-bearing for the analysis caches above);
// mappings and cubes decode per access while paged, keeping memory
// bounded by the buffer pool rather than the corpus.
type entry struct {
	val   any
	paged bool
	loc   recLoc
}

// Repo is the embedded repository. It is safe for concurrent use.
type Repo struct {
	mu     sync.RWMutex
	path   string
	fs     FS
	f      File
	policy SyncPolicy

	size    int64  // end-of-log offset: where the next append lands
	lastSeq uint64 // highest sequence ever written (survives compaction)
	dirty   bool   // appended but not yet fsynced (interval/none policies)
	broken  error  // sticky: a failed append could not be rolled back

	report *RecoveryReport // what Open found; immutable afterwards

	// metrics receives durability timings and recovery outcomes; nil
	// (the default) makes every observation a no-op.
	metrics *StorageMetrics

	// pf is the open page file (nil before the first checkpoint);
	// pool is its buffer pool. Both are swapped wholesale by
	// Checkpoint under the write lock.
	pf        *pageFile
	pool      *bufferPool
	pageCache int // pool capacity in pages (normalized positive)
	pageSize  int // page size for checkpoints (normalized)

	syncStop chan struct{} // group-commit syncer lifecycle
	syncDone chan struct{}

	schemas  map[string]*entry // key: schema name
	mappings map[string]*entry // key: tag|from|to
	cubes    map[string]*entry // key: cube key
}

type taggedMapping struct {
	tag string
	m   *simcube.Mapping
}

// openConfig collects Open's options.
type openConfig struct {
	fs        FS
	policy    SyncPolicy
	metrics   *StorageMetrics
	pageCache int
	pageSize  int
}

// OpenOption configures Open and OpenSharded.
type OpenOption func(*openConfig)

// WithSyncPolicy selects the fsync cadence for appends (default
// SyncAlways).
func WithSyncPolicy(p SyncPolicy) OpenOption {
	return func(c *openConfig) { c.policy = p }
}

// WithFS substitutes the filesystem — the fault-injection seam
// (FaultFS) and any future storage backend.
func WithFS(fs FS) OpenOption {
	return func(c *openConfig) {
		if fs != nil {
			c.fs = fs
		}
	}
}

// WithPageCache bounds the buffer pool at n pages per repository
// (per shard, under OpenSharded). Non-positive selects
// DefaultPageCachePages.
func WithPageCache(n int) OpenOption {
	return func(c *openConfig) { c.pageCache = n }
}

// WithPageSize sets the page size future checkpoints write, in bytes
// (default DefaultPageSize). Small sizes force eviction and overflow
// chains in tests; the size of an existing page file is read from its
// header, so mixed sizes across restarts are fine.
func WithPageSize(n int) OpenOption {
	return func(c *openConfig) { c.pageSize = n }
}

// Open opens (creating if needed) the repository log at path and
// replays it — from a page-file snapshot plus log suffix when one
// exists. Damage is recovered, not fatal: a torn final record is
// truncated, mid-log corruption is scanned past record by record, a
// damaged page costs its records only. The hard failures leave every
// file untouched: a file that holds no recognizable repository data
// (a version-1 log among them) and a flat checkpoint beside the log.
// The recovery outcome is available as RecoveryReport.
func Open(path string, opts ...OpenOption) (*Repo, error) {
	cfg := openConfig{fs: OSFS, policy: SyncAlways()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.pageCache <= 0 {
		cfg.pageCache = DefaultPageCachePages
	}
	if cfg.pageSize <= 0 {
		cfg.pageSize = DefaultPageSize
	}
	if err := refuseLegacyCheckpoint(cfg.fs, path); err != nil {
		return nil, err
	}
	f, err := cfg.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repository: open %s: %w", path, err)
	}
	r := &Repo{
		path:      path,
		fs:        cfg.fs,
		f:         f,
		policy:    cfg.policy,
		metrics:   cfg.metrics,
		pageCache: cfg.pageCache,
		pageSize:  cfg.pageSize,
		schemas:   make(map[string]*entry),
		mappings:  make(map[string]*entry),
		cubes:     make(map[string]*entry),
	}
	if err := r.replay(); err != nil {
		r.pf.Close()
		r.f.Close()
		return nil, err
	}
	r.metrics.recordOpen(r.report)
	r.startSyncer()
	return r, nil
}

// replay loads the log into memory and positions the write offset.
func (r *Repo) replay() error {
	rep := &RecoveryReport{Path: r.path}
	r.report = rep
	buf, err := readAll(r.f)
	if err != nil {
		return fmt.Errorf("repository: read %s: %w", r.path, err)
	}
	if len(buf) == 0 {
		if _, err := r.f.Write(fileMagicV2); err != nil {
			return err
		}
		if err := r.f.Sync(); err != nil {
			return err
		}
		r.size = int64(len(fileMagicV2))
		return nil
	}
	switch {
	case bytes.HasPrefix(buf, fileMagicV2):
		return r.replayV2(buf, len(fileMagicV2), rep)
	case len(buf) < len(fileMagicV2) && bytes.HasPrefix(fileMagicV2, buf):
		// Torn creation: the crash hit before the header finished.
		// The store was empty; start it over.
		rep.TruncatedBytes = int64(len(buf))
		rep.Salvaged = true
		return r.rewriteLocked()
	default:
		// Damaged header — or a foreign file. Trust it only if it
		// holds at least one valid record frame; scanning from offset
		// zero folds the broken header into the first skipped range.
		return r.replayV2(buf, 0, rep)
	}
}

// replayV2 replays a version-2 log body starting at offset start
// (len(fileMagicV2) normally, 0 when the header itself is damaged and
// salvage must scan the whole file).
func (r *Repo) replayV2(buf []byte, start int, rep *RecoveryReport) error {
	type rec struct {
		seq     uint64
		kind    byte
		payload []byte
	}
	var recs []rec
	var markerSeq uint64 // highest rewrite-marker sequence in the log
	scan, err := scanLog(buf[start:], int64(start), func(seq uint64, kind byte, payload []byte) error {
		if kind == kindRewrite && seq > markerSeq {
			markerSeq = seq
		}
		recs = append(recs, rec{seq, kind, payload})
		return nil
	})
	if err != nil {
		return err
	}
	headerDamaged := start == 0

	// Snapshot, page-file form first. A rewrite marker above the
	// snapshot's watermark means the log superseded it (the rewrite
	// crashed before removing the file): ignore and drop it.
	pf, pfExists, pfDamaged, err := openPageFile(r.fs, r.path)
	if err != nil {
		return fmt.Errorf("repository: page file of %s: %w", r.path, err)
	}
	if pf != nil && markerSeq > pf.watermark {
		pf.Close()
		removeIfExists(r.fs, pagePath(r.path))
		pf, pfExists, pfDamaged = nil, false, false
	}

	var watermark uint64
	if pf != nil {
		r.pf = pf
		r.pool = newBufferPool(r.pageCache, pf.readPage, r.metrics)
		damaged, err := pf.scanPages(func(kind byte, key string, loc recLoc) {
			e := &entry{paged: true, loc: loc}
			switch kind {
			case kindSchema:
				r.schemas[key] = e
			case kindMapping:
				r.mappings[key] = e
			case kindCube:
				r.cubes[key] = e
			}
			rep.Recovered++
		})
		if err != nil {
			return fmt.Errorf("repository: page file of %s: %w", r.path, err)
		}
		watermark = pf.watermark
		rep.CheckpointUsed = true
		rep.PagesDamaged = len(damaged)
	} else if pfDamaged {
		// Unreadable page-file header: no trustworthy snapshot.
		// Whatever the log still holds is salvaged below.
		rep.CheckpointDamaged = true
	}
	if headerDamaged && len(recs) == 0 && !pfExists {
		return fmt.Errorf("repository: %s is not a repository file", r.path)
	}
	for _, rc := range recs {
		if rc.seq <= watermark {
			continue // already folded into the snapshot state
		}
		if err := r.apply(rc.kind, rc.payload); err != nil {
			return err
		}
		rep.Recovered++
	}
	rep.SkippedRanges = scan.skipped
	for _, br := range scan.skipped {
		rep.SkippedBytes += br.Len
	}
	rep.TruncatedBytes = scan.truncated
	r.lastSeq = scan.lastSeq
	if watermark > r.lastSeq {
		r.lastSeq = watermark
	}
	if len(scan.skipped) > 0 || headerDamaged || rep.CheckpointDamaged || rep.PagesDamaged > 0 {
		// Mid-log or header damage, a corrupt snapshot, or damaged
		// pages: rewrite the log from the salvaged state so the files
		// on disk are whole again.
		rep.Salvaged = true
		return r.rewriteLocked()
	}
	if scan.truncated > 0 {
		// Torn tail only: chop it off in place.
		if err := r.f.Truncate(scan.end); err != nil {
			return err
		}
		if err := r.f.Sync(); err != nil {
			return err
		}
	}
	if _, err := r.f.Seek(scan.end, io.SeekStart); err != nil {
		return err
	}
	r.size = scan.end
	return nil
}

// apply folds one log record into the in-memory state. Log-replayed
// records decode eagerly — the tail is bounded by checkpoint cadence,
// and decoding validates what the log claims.
func (r *Repo) apply(kind byte, payload []byte) error {
	switch kind {
	case kindSchema:
		s, err := decodeSchema(payload)
		if err != nil {
			return err
		}
		r.schemas[s.Name] = &entry{val: s}
	case kindSchemaDel:
		d := decoder{buf: payload}
		name := d.str()
		if d.err != nil {
			return d.err
		}
		delete(r.schemas, name)
	case kindMapping:
		tag, m, err := decodeMapping(payload)
		if err != nil {
			return err
		}
		r.mappings[mappingKey(tag, m.FromSchema, m.ToSchema)] = &entry{val: &taggedMapping{tag: tag, m: m}}
	case kindMappingDel:
		d := decoder{buf: payload}
		key := d.str()
		if d.err != nil {
			return d.err
		}
		delete(r.mappings, key)
	case kindCube:
		key, c, err := decodeCube(payload)
		if err != nil {
			return err
		}
		r.cubes[key] = &entry{val: c}
	case kindCubeDel:
		d := decoder{buf: payload}
		key := d.str()
		if d.err != nil {
			return d.err
		}
		delete(r.cubes, key)
	case kindRewrite:
		// Rewrite marker: no state, consumed by replayV2's snapshot
		// staleness check.
	default:
		return fmt.Errorf("repository: unknown record kind %d", kind)
	}
	return nil
}

// recordMap maps a RecordKind to its directory and log record kind.
func (r *Repo) recordMap(k RecordKind) (map[string]*entry, byte) {
	switch k {
	case RecSchemas:
		return r.schemas, kindSchema
	case RecMappings:
		return r.mappings, kindMapping
	case RecCubes:
		return r.cubes, kindCube
	}
	return nil, 0
}

// payloadLocked returns the encoded payload of one live entry: a
// resident value re-encodes (deterministically — byte-identical to
// what was stored), a paged entry streams from the page file through
// the buffer pool. Callers hold r.mu (read or write).
func (r *Repo) payloadLocked(kind byte, key string, e *entry) ([]byte, error) {
	if e.val != nil {
		switch kind {
		case kindSchema:
			return encodeSchema(e.val.(*schema.Schema)), nil
		case kindMapping:
			tm := e.val.(*taggedMapping)
			return encodeMapping(tm.tag, tm.m), nil
		case kindCube:
			return encodeCube(key, e.val.(*simcube.Cube)), nil
		}
	}
	if e.paged && r.pf != nil {
		_, _, payload, err := r.pf.record(r.pool, e.loc)
		return payload, err
	}
	return nil, fmt.Errorf("repository: %s: no payload for %q", r.path, key)
}

// Get returns the encoded payload stored under key in the given record
// space — the raw-bytes read path (warm-restart fingerprints, fsck).
// Paged payloads stream through the buffer pool without decoding.
func (r *Repo) Get(k RecordKind, key string) ([]byte, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, kind := r.recordMap(k)
	if m == nil {
		return nil, false
	}
	e, ok := m[key]
	if !ok {
		return nil, false
	}
	payload, err := r.payloadLocked(kind, key, e)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// Iter streams every record of the given space to fn in sorted key
// order, one payload at a time — the scan primitive that replaces
// whole-store materialization. The key snapshot is taken up front;
// records deleted mid-iteration are skipped, payloads are read (and
// paged entries pinned) one at a time, so a scan never holds more than
// one record resident.
func (r *Repo) Iter(k RecordKind, fn func(key string, payload []byte) error) error {
	r.mu.RLock()
	m, kind := r.recordMap(k)
	if m == nil {
		r.mu.RUnlock()
		return fmt.Errorf("repository: unknown record space %d", k)
	}
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	r.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		r.mu.RLock()
		e, ok := m[key]
		var payload []byte
		var err error
		if ok {
			payload, err = r.payloadLocked(kind, key, e)
		}
		r.mu.RUnlock()
		if !ok {
			continue
		}
		if err != nil {
			return err
		}
		if err := fn(key, payload); err != nil {
			return err
		}
	}
	return nil
}

// PageCacheStats snapshots the buffer pool (zero Resident before the
// first checkpoint creates a page file).
func (r *Repo) PageCacheStats() PageCacheStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.pool == nil {
		return PageCacheStats{Capacity: r.pageCache}
	}
	return r.pool.stats()
}

// appendRecord writes one record as a single buffer and applies the
// sync policy. On any write or sync failure the log is wound back to
// the last good record boundary, so a failed append can never leave
// torn bytes that poison later appends; if even the rollback fails,
// the repo turns sticky-broken and refuses further writes.
func (r *Repo) appendRecord(kind byte, payload []byte) error {
	if r.broken != nil {
		return r.broken
	}
	if r.f == nil {
		return os.ErrClosed
	}
	seq := r.lastSeq + 1
	frame := appendFrame(make([]byte, 0, recHdrSize+len(payload)+recTailSize), seq, kind, payload)
	err := func() error {
		if _, err := r.f.Write(frame); err != nil {
			return err
		}
		if r.policy.mode == syncAlways {
			start := time.Now()
			if err := r.f.Sync(); err != nil {
				return err
			}
			r.metrics.observeAppendFsync(start)
			return nil
		}
		r.dirty = true
		return nil
	}()
	if err != nil {
		if terr := r.f.Truncate(r.size); terr != nil {
			r.broken = fmt.Errorf("repository: %s unusable: append failed (%v), rollback failed (%v)", r.path, err, terr)
			return r.broken
		}
		if _, serr := r.f.Seek(r.size, io.SeekStart); serr != nil {
			r.broken = fmt.Errorf("repository: %s unusable: append failed (%v), re-seek failed (%v)", r.path, err, serr)
			return r.broken
		}
		return err
	}
	r.size += int64(len(frame))
	r.lastSeq = seq
	return nil
}

// liveRecord is one record of the current folded state, as rewritten
// by Compact, Checkpoint and salvage, with the entry it came from.
type liveRecord struct {
	kind    byte
	key     string
	payload []byte
	e       *entry
}

// liveRecordsLocked materializes the live state in deterministic
// order: schemas, mappings, cubes, each sorted by key. Paged payloads
// are read through the buffer pool; a paged record whose payload can
// no longer be read (a damaged overflow chain) is dropped from the
// directory — salvage-grade, one unreadable record costs one record.
func (r *Repo) liveRecordsLocked() []liveRecord {
	out := make([]liveRecord, 0, len(r.schemas)+len(r.mappings)+len(r.cubes))
	collect := func(kind byte, m map[string]*entry) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := m[k]
			payload, err := r.payloadLocked(kind, k, e)
			if err != nil {
				delete(m, k)
				continue
			}
			out = append(out, liveRecord{kind: kind, key: k, payload: payload, e: e})
		}
	}
	collect(kindSchema, r.schemas)
	collect(kindMapping, r.mappings)
	collect(kindCube, r.cubes)
	return out
}

// rewriteLocked atomically replaces the log with the live state: a
// fresh self-contained log, led by a rewrite marker, is written to a
// temp file, fsynced, renamed over the log, and only then are the
// snapshot files it supersedes removed. A crash before the rename
// keeps the old state; a crash after it leaves a stale snapshot that
// the marker causes open to discard — no ordering loses data.
// Sequences are renumbered continuing after lastSeq, so ordering stays
// globally monotonic. Callers hold the write lock (or are inside
// Open).
func (r *Repo) rewriteLocked() error {
	recs := r.liveRecordsLocked()
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, fileMagicV2...)
	seq := r.lastSeq
	seq++
	var wm [8]byte
	if r.pf != nil {
		binary.LittleEndian.PutUint64(wm[:], r.pf.watermark)
	}
	buf = appendFrame(buf, seq, kindRewrite, wm[:])
	for _, rec := range recs {
		seq++
		buf = appendFrame(buf, seq, rec.kind, rec.payload)
	}
	f, err := writeFileAtomic(r.fs, r.path, buf, nil, true)
	if err != nil {
		return err
	}
	if r.f != nil {
		r.f.Close()
	}
	r.f = f // the renamed file: same handle, now at r.path
	r.size = int64(len(buf))
	r.lastSeq = seq
	r.dirty = false
	// The log is self-contained and durable; the snapshot files are
	// superseded. Removal failures are tolerable — the marker makes
	// open ignore whatever survives.
	if r.pf != nil {
		r.pf.Close()
		r.pf = nil
		r.pool = nil
	}
	removeIfExists(r.fs, pagePath(r.path))
	// Re-materialize: every entry is log-resident now.
	for _, rec := range recs {
		e := rec.e
		if e.val == nil {
			var derr error
			switch rec.kind {
			case kindSchema:
				e.val, derr = decodeSchema(rec.payload)
			case kindMapping:
				var tag string
				var m *simcube.Mapping
				tag, m, derr = decodeMapping(rec.payload)
				if derr == nil {
					e.val = &taggedMapping{tag: tag, m: m}
				}
			case kindCube:
				var c *simcube.Cube
				_, c, derr = decodeCube(rec.payload)
				if derr == nil {
					e.val = c
				}
			}
			if derr != nil {
				if m, _ := r.recordMapForKind(rec.kind); m != nil {
					delete(m, rec.key)
				}
				continue
			}
		}
		e.paged = false
		e.loc = recLoc{}
	}
	return nil
}

// recordMapForKind maps a log record kind back to its directory.
func (r *Repo) recordMapForKind(kind byte) (map[string]*entry, RecordKind) {
	switch kind {
	case kindSchema:
		return r.schemas, RecSchemas
	case kindMapping:
		return r.mappings, RecMappings
	case kindCube:
		return r.cubes, RecCubes
	}
	return nil, 0
}

// startSyncer launches the group-commit goroutine for SyncInterval
// policies: one fsync per tick covers every append since the last.
func (r *Repo) startSyncer() {
	d := r.policy.Interval()
	if d <= 0 {
		return
	}
	r.syncStop = make(chan struct{})
	r.syncDone = make(chan struct{})
	stop, done := r.syncStop, r.syncDone
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Sync()
			case <-stop:
				return
			}
		}
	}()
}

// Sync flushes unfsynced appends to stable storage — the group-commit
// flush point, also callable explicitly for a durability barrier.
func (r *Repo) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil || !r.dirty || r.broken != nil {
		return nil
	}
	start := time.Now()
	if err := r.f.Sync(); err != nil {
		return err
	}
	r.metrics.observeGroupCommit(start)
	r.dirty = false
	return nil
}

// Path returns the log file path the repository was opened at — the
// anchor for sidecar files (warm-restart snapshots) kept next to it.
func (r *Repo) Path() string { return r.path }

// RecoveryReport returns what Open found while replaying the log. The
// report is immutable after Open.
func (r *Repo) RecoveryReport() *RecoveryReport { return r.report }

func mappingKey(tag, from, to string) string { return tag + "|" + from + "|" + to }

// Close stops the group-commit syncer, flushes unfsynced appends, and
// releases the underlying files.
func (r *Repo) Close() error {
	r.mu.Lock()
	stop, done := r.syncStop, r.syncDone
	r.syncStop, r.syncDone = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	var err error
	if r.dirty && r.broken == nil {
		err = r.f.Sync()
		r.dirty = false
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	r.f = nil
	if cerr := r.pf.Close(); err == nil {
		err = cerr
	}
	r.pf = nil
	r.pool = nil
	return err
}

// PutSchema stores (or replaces) a schema by name.
func (r *Repo) PutSchema(s *schema.Schema) error {
	_, err := r.SwapSchema(s)
	return err
}

// getSchemaLocked returns the decoded schema for name, decoding and
// caching a paged entry's value (the decoded instance must be stable:
// pointer identity keys the analysis caches above). Callers hold the
// write lock.
func (r *Repo) getSchemaLocked(name string) (*schema.Schema, error) {
	e, ok := r.schemas[name]
	if !ok {
		return nil, nil
	}
	if s, ok := e.val.(*schema.Schema); ok {
		return s, nil
	}
	payload, err := r.payloadLocked(kindSchema, name, e)
	if err != nil {
		return nil, err
	}
	s, err := decodeSchema(payload)
	if err != nil {
		return nil, err
	}
	e.val = s
	return s, nil
}

// SwapSchema stores a schema and returns the instance it replaced (nil
// when the name was new), atomically with respect to other schema
// mutations — callers maintaining per-instance caches (the match
// engine's analysis cache) invalidate exactly the instance that left
// the store.
func (r *Repo) SwapSchema(s *schema.Schema) (prev *schema.Schema, err error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Decode the outgoing instance before overwriting so replacement
	// is reported even when the old record was paged and never read.
	// An unreadable old record does not block the write.
	prev, _ = r.getSchemaLocked(s.Name)
	if err := r.appendRecord(kindSchema, encodeSchema(s)); err != nil {
		return nil, err
	}
	r.schemas[s.Name] = &entry{val: s}
	return prev, nil
}

// GetSchema returns the stored schema with the given name. A paged
// schema is decoded on first access and stays resident afterwards —
// the decoded instance is identity-stable across calls.
func (r *Repo) GetSchema(name string) (*schema.Schema, bool) {
	r.mu.RLock()
	e, ok := r.schemas[name]
	if !ok {
		r.mu.RUnlock()
		return nil, false
	}
	if s, ok := e.val.(*schema.Schema); ok {
		r.mu.RUnlock()
		return s, true
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.getSchemaLocked(name)
	if err != nil || s == nil {
		return nil, false
	}
	return s, true
}

// DeleteSchema removes a schema. Deleting a missing schema is a no-op.
func (r *Repo) DeleteSchema(name string) error {
	_, err := r.TakeSchema(name)
	return err
}

// TakeSchema removes a schema and returns the removed instance (nil
// when the name was absent), atomically with respect to other schema
// mutations. A paged record is decoded before deletion so existence is
// always reported by a non-nil prev.
func (r *Repo) TakeSchema(name string) (prev *schema.Schema, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.schemas[name]; !ok {
		return nil, nil
	}
	prev, err = r.getSchemaLocked(name)
	if err != nil {
		return nil, err
	}
	var e encoder
	e.str(name)
	if err := r.appendRecord(kindSchemaDel, e.buf); err != nil {
		return nil, err
	}
	delete(r.schemas, name)
	return prev, nil
}

// SchemaNames lists stored schema names, sorted — straight off the key
// directory, no payloads touched.
func (r *Repo) SchemaNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.schemas))
	for n := range r.schemas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Schemas returns the stored schemas, sorted by name — the candidate
// set of a batch match against the whole repository. Paged schemas
// stream through the buffer pool one at a time and stay resident once
// decoded.
func (r *Repo) Schemas() []*schema.Schema {
	names := r.SchemaNames()
	out := make([]*schema.Schema, 0, len(names))
	for _, n := range names {
		if s, ok := r.GetSchema(n); ok {
			out = append(out, s)
		}
	}
	return out
}

// mappingAt decodes the mapping entry under key (per access while
// paged — mappings are not pinned resident). Callers hold r.mu.
func (r *Repo) mappingAt(key string, e *entry) (*taggedMapping, error) {
	if tm, ok := e.val.(*taggedMapping); ok {
		return tm, nil
	}
	payload, err := r.payloadLocked(kindMapping, key, e)
	if err != nil {
		return nil, err
	}
	tag, m, err := decodeMapping(payload)
	if err != nil {
		return nil, err
	}
	return &taggedMapping{tag: tag, m: m}, nil
}

// cubeAt decodes the cube entry under key (per access while paged).
// Callers hold r.mu.
func (r *Repo) cubeAt(key string, e *entry) (*simcube.Cube, error) {
	if c, ok := e.val.(*simcube.Cube); ok {
		return c, nil
	}
	payload, err := r.payloadLocked(kindCube, key, e)
	if err != nil {
		return nil, err
	}
	_, c, err := decodeCube(payload)
	return c, err
}

// PutMapping stores a match result under a tag (e.g. "manual" for
// user-confirmed results, "auto" for automatically derived ones). One
// mapping is kept per (tag, from, to).
func (r *Repo) PutMapping(tag string, m *simcube.Mapping) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.appendRecord(kindMapping, encodeMapping(tag, m)); err != nil {
		return err
	}
	r.mappings[mappingKey(tag, m.FromSchema, m.ToSchema)] = &entry{val: &taggedMapping{tag: tag, m: m}}
	return nil
}

// GetMapping returns the mapping stored under (tag, from, to), trying
// the inverted orientation as well.
func (r *Repo) GetMapping(tag, from, to string) (*simcube.Mapping, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	key := mappingKey(tag, from, to)
	if e, ok := r.mappings[key]; ok {
		if tm, err := r.mappingAt(key, e); err == nil {
			return tm.m, true
		}
	}
	key = mappingKey(tag, to, from)
	if e, ok := r.mappings[key]; ok {
		if tm, err := r.mappingAt(key, e); err == nil {
			return tm.m.Invert(), true
		}
	}
	return nil, false
}

// DeleteMapping removes the mapping stored under (tag, from, to).
func (r *Repo) DeleteMapping(tag, from, to string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := mappingKey(tag, from, to)
	if _, ok := r.mappings[key]; !ok {
		return nil
	}
	var e encoder
	e.str(key)
	if err := r.appendRecord(kindMappingDel, e.buf); err != nil {
		return err
	}
	delete(r.mappings, key)
	return nil
}

// MappingStore returns a reuse-compatible view of the mappings stored
// under the given tag. The view reads live repository state.
func (r *Repo) MappingStore(tag string) *TagStore { return &TagStore{repo: r, tag: tag} }

// PutCube stores the similarity cube computed for a match task under an
// arbitrary key (conventionally "S1|S2").
func (r *Repo) PutCube(key string, c *simcube.Cube) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.appendRecord(kindCube, encodeCube(key, c)); err != nil {
		return err
	}
	r.cubes[key] = &entry{val: c}
	return nil
}

// GetCube returns the cube stored under key.
func (r *Repo) GetCube(key string) (*simcube.Cube, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.cubes[key]
	if !ok {
		return nil, false
	}
	c, err := r.cubeAt(key, e)
	if err != nil {
		return nil, false
	}
	return c, true
}

// DeleteCube removes the cube stored under key.
func (r *Repo) DeleteCube(key string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cubes[key]; !ok {
		return nil
	}
	var e encoder
	e.str(key)
	if err := r.appendRecord(kindCubeDel, e.buf); err != nil {
		return err
	}
	delete(r.cubes, key)
	return nil
}

// Stats summarizes repository contents and on-disk footprint.
type Stats struct {
	Schemas  int
	Mappings int
	Cubes    int
	LogBytes int64
	// PageBytes is the page-file size (0 before the first checkpoint).
	PageBytes int64
}

// Stats returns current repository statistics.
func (r *Repo) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := Stats{
		Schemas:  len(r.schemas),
		Mappings: len(r.mappings),
		Cubes:    len(r.cubes),
		LogBytes: r.size,
	}
	if r.pf != nil {
		st.PageBytes = pageFileHdrSize + int64(r.pf.pageCount)*int64(r.pf.pageSize)
	}
	return st
}

// Compact rewrites the log keeping only live records, atomically and
// durably replacing the old file. Any snapshot files are folded in and
// dropped; the store returns to pure-log form until the next
// Checkpoint.
func (r *Repo) Compact() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return os.ErrClosed
	}
	if r.broken != nil {
		return r.broken
	}
	return r.rewriteLocked()
}

// TagStore adapts one tag's mappings to the reuse.Store interface. It
// reads the key directory ("tag|from|to") wherever the keys alone
// suffice, touching payloads only for mappings it returns.
type TagStore struct {
	repo *Repo
	tag  string
}

// tagKeyParts splits a mapping key into (tag, from, to); ok is false
// when the key does not carry the store's tag.
func (t *TagStore) tagKeyParts(key string) (from, to string, ok bool) {
	rest, found := strings.CutPrefix(key, t.tag+"|")
	if !found {
		return "", "", false
	}
	from, to, found = strings.Cut(rest, "|")
	if !found {
		return "", "", false
	}
	return from, to, true
}

// SchemaNames implements reuse.Store.
func (t *TagStore) SchemaNames() []string {
	t.repo.mu.RLock()
	defer t.repo.mu.RUnlock()
	seen := make(map[string]bool)
	for k := range t.repo.mappings {
		if from, to, ok := t.tagKeyParts(k); ok {
			seen[from] = true
			seen[to] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MappingsBetween implements reuse.Store: the stored orientation
// first, then the inverse — both direct key lookups.
func (t *TagStore) MappingsBetween(from, to string) []*simcube.Mapping {
	t.repo.mu.RLock()
	defer t.repo.mu.RUnlock()
	var out []*simcube.Mapping
	key := mappingKey(t.tag, from, to)
	if e, ok := t.repo.mappings[key]; ok {
		if tm, err := t.repo.mappingAt(key, e); err == nil {
			out = append(out, tm.m)
		}
	}
	if from != to {
		key = mappingKey(t.tag, to, from)
		if e, ok := t.repo.mappings[key]; ok {
			if tm, err := t.repo.mappingAt(key, e); err == nil {
				out = append(out, tm.m.Invert())
			}
		}
	}
	return out
}

// AllMappings implements reuse.Store, decoding only this tag's
// payloads in sorted key order.
func (t *TagStore) AllMappings() []*simcube.Mapping {
	t.repo.mu.RLock()
	defer t.repo.mu.RUnlock()
	keys := make([]string, 0, len(t.repo.mappings))
	for k := range t.repo.mappings {
		if _, _, ok := t.tagKeyParts(k); ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []*simcube.Mapping
	for _, k := range keys {
		if tm, err := t.repo.mappingAt(k, t.repo.mappings[k]); err == nil {
			out = append(out, tm.m)
		}
	}
	return out
}
