package repository

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// VerifyReport is the result of an offline integrity check of one log
// file: the RecoveryReport a real open would produce, plus checks an
// open does not need — payload decodability and sequence continuity.
type VerifyReport struct {
	RecoveryReport
	// Records counts valid frames in the log itself (including any a
	// snapshot supersedes); PageRecords counts records in the page file.
	Records     int `json:"records"`
	PageRecords int `json:"pageRecords,omitempty"`
	// DecodeErrors counts CRC-valid records whose payload fails to
	// decode (an encoder bug or version skew, not media damage).
	DecodeErrors int `json:"decodeErrors,omitempty"`
	// SeqGaps counts adjacent valid records whose sequences are not
	// consecutive — records vanished without visible damage. A log
	// tail that does not continue the page-file watermark counts as a
	// gap.
	SeqGaps int `json:"seqGaps,omitempty"`
}

// OK reports a fully healthy store: nothing damaged, nothing skipped,
// every payload decodable, sequences contiguous, current format.
func (v *VerifyReport) OK() bool {
	return v.Clean() && v.DecodeErrors == 0 && v.SeqGaps == 0
}

// String renders the verify result in fsck-output form.
func (v *VerifyReport) String() string {
	s := v.RecoveryReport.String()
	if v.PageRecords > 0 {
		s += fmt.Sprintf(", %d paged records", v.PageRecords)
	}
	if v.DecodeErrors > 0 {
		s += fmt.Sprintf(", %d undecodable payloads", v.DecodeErrors)
	}
	if v.SeqGaps > 0 {
		s += fmt.Sprintf(", %d sequence gaps", v.SeqGaps)
	}
	return s
}

// decodeCheck decodes one payload without applying it.
func decodeCheck(kind byte, payload []byte) error {
	switch kind {
	case kindSchema:
		_, err := decodeSchema(payload)
		return err
	case kindMapping:
		_, _, err := decodeMapping(payload)
		return err
	case kindCube:
		_, _, err := decodeCube(payload)
		return err
	case kindSchemaDel, kindMappingDel, kindCubeDel:
		d := decoder{buf: payload}
		d.str()
		return d.err
	case kindRewrite:
		if len(payload) != 8 {
			return fmt.Errorf("repository: rewrite marker payload is %d bytes, want 8", len(payload))
		}
		return nil
	default:
		return fmt.Errorf("repository: unknown record kind %d", kind)
	}
}

// verifyPageFile checks the page file next to path, if any: header,
// per-page checksums, and every record payload (overflow chains
// followed). markerSeq is the log's highest rewrite-marker sequence —
// a marker above the snapshot watermark means the log superseded the
// file and an open would ignore it, so verify does too.
func verifyPageFile(path string, markerSeq uint64, v *VerifyReport) (watermark uint64, exists, usable bool, err error) {
	pf, exists, damaged, err := openPageFile(OSFS, path)
	if err != nil {
		return 0, false, false, err
	}
	if !exists {
		return 0, false, false, nil
	}
	if damaged {
		v.CheckpointDamaged = true
		return 0, true, false, nil
	}
	defer pf.Close()
	if markerSeq > pf.watermark {
		// Stale snapshot a crashed rewrite left behind; open discards
		// it. Not an integrity failure of the current state.
		return 0, false, false, nil
	}
	v.CheckpointUsed = true
	pool := newBufferPool(64, pf.readPage, nil)
	var locs []recLoc
	pageDamaged, err := pf.scanPages(func(kind byte, key string, loc recLoc) {
		locs = append(locs, loc)
	})
	if err != nil {
		return pf.watermark, true, true, err
	}
	v.PagesDamaged = len(pageDamaged)
	for _, loc := range locs {
		kind, _, payload, err := pf.record(pool, loc)
		if err != nil {
			// An unreadable payload behind a valid directory entry is a
			// damaged overflow chain.
			v.PagesDamaged++
			continue
		}
		v.PageRecords++
		if derr := decodeCheck(kind, payload); derr != nil {
			v.DecodeErrors++
		}
	}
	return pf.watermark, true, true, nil
}

// Verify checks the repository files at path without modifying them:
// log frame CRCs, sequence continuity, payload decodability, the page
// file's per-page checksums and records, and its watermark continuity
// with the log tail. It errors only when the file cannot be read,
// holds no recognizable repository data (a version-1 log among them)
// or has a flat checkpoint beside it — the files Open refuses; damage
// is reported, not fatal.
func Verify(path string) (*VerifyReport, error) {
	if err := refuseLegacyCheckpoint(OSFS, path); err != nil {
		return nil, err
	}
	f, err := OSFS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("repository: verify %s: %w", path, err)
	}
	buf, err := readAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("repository: verify %s: %w", path, err)
	}
	v := &VerifyReport{RecoveryReport: RecoveryReport{Path: path}}
	start := len(fileMagicV2)
	switch {
	case len(buf) == 0:
		return v, nil
	case bytes.HasPrefix(buf, fileMagicV2):
		// An exactly-header file still falls through: a snapshot may
		// hold the whole store (the post-checkpoint steady state).
	case len(buf) < len(fileMagicV2) && bytes.HasPrefix(fileMagicV2, buf):
		v.TruncatedBytes = int64(len(buf))
		return v, nil
	default:
		start = 0 // damaged header: scan the whole file
	}
	// First log pass: collect frames, find rewrite markers (they
	// decide which snapshot an open would trust).
	type frame struct {
		seq     uint64
		kind    byte
		payload []byte
	}
	var frames []frame
	var markerSeq uint64
	scan, err := scanLog(buf[start:], int64(start), func(seq uint64, kind byte, payload []byte) error {
		if kind == kindRewrite && seq > markerSeq {
			markerSeq = seq
		}
		frames = append(frames, frame{seq, kind, payload})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Snapshot: the page file, unless a rewrite marker superseded it —
	// mirroring what replay would trust.
	watermark, pfExists, pfUsable, err := verifyPageFile(path, markerSeq, v)
	if err != nil {
		return nil, fmt.Errorf("repository: verify %s: %w", path, err)
	}
	v.Recovered = v.PageRecords
	var prevSeq uint64
	for _, fr := range frames {
		v.Records++
		if prevSeq != 0 && fr.seq != prevSeq+1 {
			v.SeqGaps++
		}
		prevSeq = fr.seq
		if derr := decodeCheck(fr.kind, fr.payload); derr != nil {
			v.DecodeErrors++
		}
		if fr.seq > watermark {
			v.Recovered++
		}
	}
	// Watermark continuity: a healthy tail continues the snapshot at
	// watermark+1 (a rewritten log restarts above it instead and is
	// exempt — its first frame is the marker).
	if pfUsable && len(frames) > 0 && markerSeq == 0 && frames[0].seq > watermark+1 {
		v.SeqGaps++
	}
	if start == 0 && v.Records == 0 && !pfExists {
		return nil, fmt.Errorf("repository: %s is not a repository file", path)
	}
	v.SkippedRanges = scan.skipped
	for _, br := range scan.skipped {
		v.SkippedBytes += br.Len
	}
	v.TruncatedBytes = scan.truncated
	if start == 0 {
		v.Salvaged = true // a real open would salvage-rewrite
	}
	return v, nil
}

// VerifyStore verifies a repository path: a single log file, or a
// sharded repository directory (every shard-*.repo inside, sorted).
func VerifyStore(path string) ([]*VerifyReport, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("repository: verify %s: %w", path, err)
	}
	if !info.IsDir() {
		v, err := Verify(path)
		if err != nil {
			return nil, err
		}
		return []*VerifyReport{v}, nil
	}
	shards, err := filepath.Glob(filepath.Join(path, "shard-*.repo"))
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("repository: %s holds no shard logs", path)
	}
	sort.Strings(shards)
	out := make([]*VerifyReport, 0, len(shards))
	for _, p := range shards {
		v, err := Verify(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// RepairStore opens (salvaging as needed) and closes every log under
// path — a single file or a sharded directory — returning what each
// open recovered. Damaged logs and page files come back rewritten and
// whole: records on damaged pages are dropped and the surviving state
// folded into a fresh self-contained log, exactly as a serving open
// would recover.
func RepairStore(path string) ([]*RecoveryReport, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("repository: repair %s: %w", path, err)
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "shard-*.repo"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("repository: %s holds no shard logs", path)
		}
		sort.Strings(files)
	}
	out := make([]*RecoveryReport, 0, len(files))
	for _, p := range files {
		r, err := Open(p)
		if err != nil {
			return nil, err
		}
		rep := r.RecoveryReport()
		if err := r.Close(); err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}
