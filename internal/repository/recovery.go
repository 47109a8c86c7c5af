package repository

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// Log frame, version 2. Every record is
//
//	[4B record magic][8B LE sequence][4B LE payload len][1B kind][payload][4B LE CRC32]
//
// where the CRC covers sequence+len+kind+payload. The per-record magic
// and the strictly monotonic sequence number exist for salvage: after
// damage, recovery scans forward byte-wise for the next magic and
// accepts a frame only if its CRC verifies and its sequence advances,
// so one corrupt record costs one record, not the rest of the log.
var (
	fileMagicV2 = []byte("COMA.repo\x002\n")
	recMagic    = [4]byte{0xC5, 'R', 'E', 'C'}
)

const (
	recHdrSize    = 4 + 8 + 4 + 1 // magic + seq + len + kind
	recTailSize   = 4             // CRC32
	maxPayloadLen = 1 << 30
)

// appendFrame appends one v2 record frame to dst.
func appendFrame(dst []byte, seq uint64, kind byte, payload []byte) []byte {
	dst = append(dst, recMagic[:]...)
	var hdr [13]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	hdr[12] = kind
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(payload)
	var tail [recTailSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	return append(dst, tail[:]...)
}

// parseFrame validates the frame at buf[off:] and returns it. A frame
// is accepted only if the record magic matches, the length is
// plausible and in-bounds, the kind is known, the CRC verifies, and
// the sequence strictly exceeds prevSeq.
func parseFrame(buf []byte, off int, prevSeq uint64) (seq uint64, kind byte, payload []byte, size int, ok bool) {
	if off+recHdrSize+recTailSize > len(buf) {
		return 0, 0, nil, 0, false
	}
	if !bytes.Equal(buf[off:off+4], recMagic[:]) {
		return 0, 0, nil, 0, false
	}
	seq = binary.LittleEndian.Uint64(buf[off+4 : off+12])
	plen := binary.LittleEndian.Uint32(buf[off+12 : off+16])
	kind = buf[off+16]
	if plen > maxPayloadLen || kind < kindSchema || kind > kindRewrite || seq <= prevSeq {
		return 0, 0, nil, 0, false
	}
	size = recHdrSize + int(plen) + recTailSize
	if off+size > len(buf) {
		return 0, 0, nil, 0, false
	}
	want := binary.LittleEndian.Uint32(buf[off+recHdrSize+int(plen):])
	crc := crc32.NewIEEE()
	crc.Write(buf[off+4 : off+recHdrSize+int(plen)])
	if crc.Sum32() != want {
		return 0, 0, nil, 0, false
	}
	return seq, kind, buf[off+recHdrSize : off+recHdrSize+int(plen)], size, true
}

// ByteRange is a damaged region of the log, in absolute file offsets.
type ByteRange struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// RecoveryReport describes what Open found and did while replaying a
// log. A clean open recovers every record and neither skips, truncates
// nor rewrites anything.
type RecoveryReport struct {
	// Path is the log file the report describes.
	Path string `json:"path"`
	// Recovered counts records replayed into the store (checkpoint
	// records included).
	Recovered int `json:"recovered"`
	// SkippedRanges are mid-log damaged regions salvage scanned past;
	// the records they held are lost.
	SkippedRanges []ByteRange `json:"skippedRanges,omitempty"`
	// SkippedBytes sums the skipped ranges.
	SkippedBytes int64 `json:"skippedBytes,omitempty"`
	// TruncatedBytes is the length of the torn tail discarded after the
	// last valid record.
	TruncatedBytes int64 `json:"truncatedBytes,omitempty"`
	// Salvaged reports that damage forced a full rewrite of the log
	// from the recovered state (mid-log or header damage).
	Salvaged bool `json:"salvaged,omitempty"`
	// CheckpointUsed reports that replay started from the page-file
	// snapshot, replaying only the log suffix past its watermark; the
	// store serves paged reads through the buffer pool.
	CheckpointUsed bool `json:"checkpointUsed,omitempty"`
	// CheckpointDamaged reports that a page file existed but its header
	// was unreadable, so the log alone was salvaged.
	CheckpointDamaged bool `json:"checkpointDamaged,omitempty"`
	// PagesDamaged counts snapshot pages whose checksum or structure
	// failed; their records were lost and the store salvage-rewritten.
	PagesDamaged int `json:"pagesDamaged,omitempty"`
}

// Clean reports whether the open found the log fully intact.
func (rep *RecoveryReport) Clean() bool {
	return len(rep.SkippedRanges) == 0 && rep.TruncatedBytes == 0 &&
		!rep.Salvaged && !rep.CheckpointDamaged &&
		rep.PagesDamaged == 0
}

// String renders the report in log-line form.
func (rep *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d records", rep.Path, rep.Recovered)
	if rep.CheckpointUsed {
		b.WriteString(" (from page file)")
	}
	if rep.Clean() {
		b.WriteString(", clean")
		return b.String()
	}
	if rep.SkippedBytes > 0 {
		fmt.Fprintf(&b, ", skipped %d damaged bytes in %d ranges", rep.SkippedBytes, len(rep.SkippedRanges))
	}
	if rep.TruncatedBytes > 0 {
		fmt.Fprintf(&b, ", truncated %d-byte torn tail", rep.TruncatedBytes)
	}
	if rep.CheckpointDamaged {
		b.WriteString(", checkpoint damaged")
	}
	if rep.PagesDamaged > 0 {
		fmt.Fprintf(&b, ", %d damaged pages dropped", rep.PagesDamaged)
	}
	if rep.Salvaged {
		b.WriteString(", salvage-rewritten")
	}
	return b.String()
}

// scanOutcome summarizes one pass of scanLog.
type scanOutcome struct {
	recovered int
	skipped   []ByteRange
	lastSeq   uint64 // highest sequence accepted (0 if none)
	end       int64  // absolute offset just past the last valid record
	truncated int64  // torn-tail bytes after end (always trailing)
}

// scanLog walks buf — the log body whose first byte sits at absolute
// file offset base — delivering every valid frame to emit in order.
// On damage it scans forward for the next acceptable frame; damage
// with valid records after it becomes a skipped range, damage at the
// very end counts as a torn tail.
func scanLog(buf []byte, base int64, emit func(seq uint64, kind byte, payload []byte) error) (scanOutcome, error) {
	out := scanOutcome{end: base}
	off := 0
	damageStart := -1
	for off < len(buf) {
		seq, kind, payload, size, ok := parseFrame(buf, off, out.lastSeq)
		if !ok {
			if damageStart < 0 {
				damageStart = off
			}
			// Jump to the next candidate magic instead of re-testing
			// every byte.
			next := bytes.Index(buf[off+1:], recMagic[:])
			if next < 0 {
				off = len(buf)
				break
			}
			off += 1 + next
			continue
		}
		if damageStart >= 0 {
			out.skipped = append(out.skipped, ByteRange{Off: base + int64(damageStart), Len: int64(off - damageStart)})
			damageStart = -1
		}
		if err := emit(seq, kind, payload); err != nil {
			return out, err
		}
		out.recovered++
		out.lastSeq = seq
		off += size
		out.end = base + int64(off)
	}
	if damageStart >= 0 {
		out.truncated = int64(len(buf) - damageStart)
	}
	return out, nil
}

// readAll reads the file from the start; the offset is left at EOF.
func readAll(f File) ([]byte, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}
