package coma

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/combine"
	"repro/internal/match"
	"repro/internal/repository"
	"repro/internal/schema"
)

// Warm-restart sidecars persist the expensive in-memory state a
// repository server rebuilds on every boot: the stored schemas'
// analysis indexes (internal/analysis artifacts) and the persistent
// column cache's configuration-identified similarity columns. The
// sidecar is written next to the repository after every checkpoint and
// read once at open; a restored process seeds its engine's analyzer
// cache, column cache and candidate-pruning index from it instead of
// re-analyzing the store.
//
// The sidecar is pure warmth, never truth: every layer that consumes a
// restored artifact validates it first, and a failed validation falls
// back to the cold path the artifact would have skipped.
//
//   - The whole file is discarded unless its magic, version and body
//     CRC check out and the auxiliary-source fingerprints (dictionary,
//     taxonomy, type table — dict.Fingerprint) equal the opening
//     process's. A restart with different synonym files must re-derive
//     every annotation.
//   - Each schema entry is discarded unless the CRC of the schema's
//     stored record payload still matches: an entry exported before a
//     schema was replaced warms nobody.
//   - analysis.RestoreIndex rejects malformed artifacts and analyzes
//     names the artifact does not cover fresh, so a stale-but-accepted
//     artifact can cost warmth, never correctness.
//
// Layout: magic, then a CRC32 (IEEE, little-endian) of the body, then
// the body — three source fingerprints, and per schema its name, the
// stored record payload's CRC32, the analysis artifact and the
// exported similarity columns.

// warmMagic identifies warm sidecar files; the trailing byte is the
// format version.
const warmMagic = "COMA.warm\x001\n"

// warmSnapName is the sidecar file of a sharded repository directory.
const warmSnapName = "warm.snap"

// maxWarmSlice bounds decoded counts so a corrupt length cannot drive
// an allocation by itself.
const maxWarmSlice = 1 << 24

// WarmStats reports what a warm restore found and did; /readyz and
// comaserve's startup log surface it.
type WarmStats struct {
	// Attempted reports a sidecar file was present and read.
	Attempted bool
	// Used reports the sidecar passed whole-file validation (magic,
	// CRC, source fingerprints) and per-schema restoring ran.
	Used bool
	// Restored counts schemas whose analysis was seeded warm.
	Restored int
	// Discarded counts schema entries rejected individually (stored
	// payload CRC mismatch, schema gone, malformed artifact).
	Discarded int
	// Columns counts persistent similarity columns seeded (0 without
	// WithPersistentColumnCache: nothing can hold them).
	Columns int
}

// warmStore is the slice of the repository API the warm sidecar needs;
// *repository.Sharded provides it (and *repository.Repo, which the
// sidecar tests use as a small fixture).
type warmStore interface {
	Get(k repository.RecordKind, key string) ([]byte, bool)
	GetSchema(name string) (*schema.Schema, bool)
	SchemaNames() []string
}

// warmEntry is one schema's persisted warmth.
type warmEntry struct {
	name     string
	crc      uint32 // CRC32 of the schema's stored record payload
	artifact []byte // analysis.ExportIndex
	cols     []match.ColumnArtifact
}

// sourceFingerprints snapshots the auxiliary sources' content
// fingerprints in sidecar order (dictionary, taxonomy, type table).
func sourceFingerprints(src analysis.Sources) [3]uint64 {
	return [3]uint64{src.Dict.Fingerprint(), src.Taxonomy.Fingerprint(), src.Types.Fingerprint()}
}

type warmEnc struct{ buf []byte }

func (e *warmEnc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *warmEnc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *warmEnc) u32(v uint32)     { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *warmEnc) u64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *warmEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func encodeWarm(fps [3]uint64, entries []warmEntry) []byte {
	body := &warmEnc{buf: make([]byte, 0, 1024)}
	for _, fp := range fps {
		body.u64(fp)
	}
	body.uvarint(uint64(len(entries)))
	for _, ent := range entries {
		body.str(ent.name)
		body.u32(ent.crc)
		body.uvarint(uint64(len(ent.artifact)))
		body.buf = append(body.buf, ent.artifact...)
		body.uvarint(uint64(len(ent.cols)))
		for _, c := range ent.cols {
			body.str(c.OwnerKey)
			body.varint(int64(c.Comb))
			body.varint(int64(c.Set))
			body.str(c.Name)
			body.uvarint(uint64(len(c.Col)))
			for _, v := range c.Col {
				body.u64(math.Float64bits(v))
			}
		}
	}
	out := &warmEnc{buf: make([]byte, 0, len(warmMagic)+4+len(body.buf))}
	out.buf = append(out.buf, warmMagic...)
	out.u32(crc32.ChecksumIEEE(body.buf))
	out.buf = append(out.buf, body.buf...)
	return out.buf
}

type warmDec struct {
	buf []byte
	off int
	err error
}

func (d *warmDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("coma: warm sidecar: truncated %s at offset %d", what, d.off)
	}
}

func (d *warmDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *warmDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *warmDec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *warmDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *warmDec) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("bytes")
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *warmDec) str() string { return string(d.bytes(d.uvarint())) }

// decodeWarm parses a sidecar file: magic, body CRC, fingerprints and
// schema entries. Any mismatch or truncation is an error — the caller
// discards the whole sidecar.
func decodeWarm(data []byte) (fps [3]uint64, entries []warmEntry, err error) {
	if len(data) < len(warmMagic)+4 || string(data[:len(warmMagic)]) != warmMagic {
		return fps, nil, fmt.Errorf("coma: warm sidecar: bad magic")
	}
	body := data[len(warmMagic)+4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(warmMagic):]) {
		return fps, nil, fmt.Errorf("coma: warm sidecar: body CRC mismatch")
	}
	d := &warmDec{buf: body}
	for i := range fps {
		fps[i] = d.u64()
	}
	n := d.uvarint()
	if n > maxWarmSlice {
		d.fail("entry count")
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		var ent warmEntry
		ent.name = d.str()
		ent.crc = d.u32()
		ent.artifact = d.bytes(d.uvarint())
		nCols := d.uvarint()
		if nCols > maxWarmSlice {
			d.fail("column count")
			break
		}
		for c := uint64(0); c < nCols && d.err == nil; c++ {
			col := match.ColumnArtifact{
				OwnerKey: d.str(),
				Comb:     combine.CombSim(d.varint()),
				Set:      int8(d.varint()),
				Name:     d.str(),
			}
			nVals := d.uvarint()
			if nVals > maxWarmSlice {
				d.fail("value count")
				break
			}
			col.Col = make([]float64, 0, nVals)
			for v := uint64(0); v < nVals && d.err == nil; v++ {
				col.Col = append(col.Col, math.Float64frombits(d.u64()))
			}
			ent.cols = append(ent.cols, col)
		}
		entries = append(entries, ent)
	}
	if d.err != nil {
		return fps, nil, d.err
	}
	if d.off != len(body) {
		return fps, nil, fmt.Errorf("coma: warm sidecar: %d trailing bytes", len(body)-d.off)
	}
	return fps, entries, nil
}

// collectWarm snapshots every stored schema whose analysis the engine
// currently caches: its analysis artifact, the CRC of its stored
// record payload (the restore-side staleness gate) and the persistent
// columns cached against its index. Schemas nobody analyzed yet are
// skipped — they would warm nothing.
func collectWarm(store warmStore, e *Engine) []warmEntry {
	a := e.o.ctx.Analyzer
	if a == nil {
		return nil
	}
	var out []warmEntry
	for _, name := range store.SchemaNames() {
		s, ok := store.GetSchema(name)
		if !ok {
			continue
		}
		idx := a.Peek(s)
		if idx == nil {
			continue
		}
		payload, ok := store.Get(repository.RecSchemas, name)
		if !ok {
			continue
		}
		var cols []match.ColumnArtifact
		if cc := e.o.ctx.Columns; cc != nil {
			cols = cc.Export(idx)
		}
		out = append(out, warmEntry{
			name:     name,
			crc:      crc32.ChecksumIEEE(payload),
			artifact: analysis.ExportIndex(idx),
			cols:     cols,
		})
	}
	return out
}

// writeWarm collects and atomically writes the sidecar; fsys nil
// selects the real filesystem (tests inject a FaultFS).
func writeWarm(fsys repository.FS, path string, store warmStore, e *Engine) error {
	data := encodeWarm(sourceFingerprints(e.o.ctx.Sources()), collectWarm(store, e))
	return repository.AtomicWriteFile(fsys, path, data)
}

// restoreWarm reads a sidecar and seeds the engine: each surviving
// schema's index goes into the analyzer, its columns into the
// persistent column cache (when the engine has one) and the index
// into the candidate-pruning index.
func restoreWarm(path string, store warmStore, e *Engine) WarmStats {
	var ws WarmStats
	data, err := os.ReadFile(path)
	if err != nil {
		return ws
	}
	ws.Attempted = true
	fps, entries, err := decodeWarm(data)
	if err != nil {
		return ws
	}
	src := e.o.ctx.Sources()
	if fps != sourceFingerprints(src) {
		return ws
	}
	ws.Used = true
	for _, ent := range entries {
		payload, ok := store.Get(repository.RecSchemas, ent.name)
		if !ok || crc32.ChecksumIEEE(payload) != ent.crc {
			ws.Discarded++
			continue
		}
		s, ok := store.GetSchema(ent.name)
		if !ok {
			ws.Discarded++
			continue
		}
		idx, err := analysis.RestoreIndex(s, src, ent.artifact)
		if err != nil {
			ws.Discarded++
			continue
		}
		if a := e.o.ctx.Analyzer; a != nil {
			a.Seed(s, idx)
		}
		if cc := e.o.ctx.Columns; cc != nil {
			ws.Columns += cc.Seed(idx, ent.cols)
		}
		if ci := e.o.candIdx; ci != nil {
			ci.Add(s, idx)
		}
		ws.Restored++
	}
	return ws
}

// warmPath returns the sharded repository's sidecar path.
func (r *ShardedRepository) warmPath() string {
	return filepath.Join(r.Sharded.Dir(), warmSnapName)
}

// SaveWarm writes the sharded repository's warm-restart sidecar from
// the engine's caches; Checkpoint calls it automatically. Concurrent
// calls are serialized.
func (r *ShardedRepository) SaveWarm() error {
	r.warmMu.Lock()
	defer r.warmMu.Unlock()
	return writeWarm(nil, r.warmPath(), r.Sharded, r.engine)
}

// Checkpoint compacts every shard log into its paged snapshot and then
// writes the warm-restart sidecar, so a following open both replays
// almost nothing and skips re-analyzing the store. A sidecar write
// failure is reported but does not undo the checkpoint.
func (r *ShardedRepository) Checkpoint() error {
	if err := r.Sharded.Checkpoint(); err != nil {
		return err
	}
	return r.SaveWarm()
}

// WarmStart reports the outcome of the sharded repository's startup
// warm restore.
func (r *ShardedRepository) WarmStart() WarmStats { return r.warm }
