package repository

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Page file: the paged form of a checkpoint snapshot. It is a
// random-access heap of fixed-size slotted pages, not a record stream
// replayed into memory wholesale: open builds only a key directory
// (keys and page locations, no payloads), and payloads stream through
// the buffer pool on demand — so the store serves repositories larger
// than memory and restarts without decoding a byte it is not asked
// for.
//
// Layout:
//
//	file header (32B):
//	  [12B magic "COMA.page\x001\n"][4B LE pageSize][4B LE pageCount]
//	  [8B LE watermark][4B CRC32 of the preceding 28 bytes]
//	pages: pageCount fixed-size pages, page i at 32 + i*pageSize
//
//	page (pageSize B):
//	  header (20B): [4B CRC32 of the page with this field zeroed]
//	    [4B LE pageNo][8B LE watermark][2B LE nSlots][1B kind][1B pad]
//	  slot table: nSlots × [2B LE off][2B LE len] (off from page start)
//	  record heap: the slots' bytes
//
//	record (inside its slot):
//	  [1B record kind][uvarint keyLen][key][1B overflow flag]
//	  flag 0: [payload] (to the end of the slot)
//	  flag 1: [4B LE overflow page][4B LE payload len] — the payload
//	          fills consecutive overflow pages' data areas
//
// The watermark is the log sequence the snapshot folds (every page
// repeats it, so a page spliced in from another snapshot generation is
// detectable); records appended to the log afterwards carry strictly
// larger sequences and replay over the page file on open. Every page
// carries its own CRC: one damaged page costs that page's records (the
// open salvages the rest), not the snapshot.
var pageMagic = []byte("COMA.page\x001\n")

const (
	pageFileHdrSize = 32
	pageHdrSize     = 20
	slotSize        = 4

	// DefaultPageSize is the page size new page files are written with.
	DefaultPageSize = 16 << 10
	minPageSize     = 512
	maxPageSize     = 1 << 16 // slot offsets/lengths are 16-bit

	pageKindData     = 0
	pageKindOverflow = 1
)

// pageSuffix names a repository's page file next to its log.
const pageSuffix = ".pages"

func pagePath(logPath string) string { return logPath + pageSuffix }

// recLoc addresses one record in the page file.
type recLoc struct {
	page uint32
	slot uint16
}

// pageRecord is the builder's input: one live record plus its key.
type pageRecord struct {
	kind    byte
	key     string
	payload []byte
}

// recHeaderLen returns the record's in-slot header size (kind + key +
// flag), shared by the inline and overflow forms.
func recHeaderLen(key string) int {
	return 1 + uvarintLen(uint64(len(key))) + len(key) + 1
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// buildPageFile lays the records out into a page-file image and
// returns it together with the location of each record (parallel to
// recs). Records whose inline form does not fit a fresh page move
// their payload to a chain of dedicated overflow pages.
func buildPageFile(pageSize int, watermark uint64, recs []pageRecord) ([]byte, []recLoc, error) {
	if pageSize < minPageSize || pageSize > maxPageSize {
		return nil, nil, fmt.Errorf("repository: page size %d outside [%d, %d]", pageSize, minPageSize, maxPageSize)
	}
	heapCap := pageSize - pageHdrSize

	// Pass 1: assign records to data pages. A page holds records whose
	// slot entries plus bytes fit its heap capacity.
	type placed struct {
		rec      int  // index into recs
		overflow bool // payload moved to an overflow chain
	}
	var dataPages [][]placed
	var cur []placed
	used := 0
	var overflowRecs []int // recs indices with overflow payloads, in order
	flush := func() {
		if len(cur) > 0 {
			dataPages = append(dataPages, cur)
			cur, used = nil, 0
		}
	}
	for i, rec := range recs {
		hdr := recHeaderLen(rec.key)
		if hdr+slotSize > heapCap {
			return nil, nil, fmt.Errorf("repository: record key of %d bytes does not fit a %d-byte page", len(rec.key), pageSize)
		}
		inline := hdr + len(rec.payload)
		if slotSize+inline <= heapCap-used {
			cur = append(cur, placed{rec: i})
			used += slotSize + inline
			continue
		}
		if slotSize+inline <= heapCap {
			// Fits a fresh page: close this one and continue inline.
			flush()
			cur = append(cur, placed{rec: i})
			used += slotSize + inline
			continue
		}
		// Too large for any page inline: overflow form (hdr + 8B ref).
		if slotSize+hdr+8 > heapCap-used {
			flush()
		}
		cur = append(cur, placed{rec: i, overflow: true})
		used += slotSize + hdr + 8
		overflowRecs = append(overflowRecs, i)
	}
	flush()

	// Overflow chains are appended after the data pages; assign each
	// its first page number now so pass 2 can emit final bytes.
	nData := len(dataPages)
	ovStart := make(map[int]uint32, len(overflowRecs))
	next := uint32(nData)
	for _, ri := range overflowRecs {
		ovStart[ri] = next
		n := (len(recs[ri].payload) + heapCap - 1) / heapCap
		if n == 0 {
			n = 1
		}
		next += uint32(n)
	}
	pageCount := next

	// Pass 2: emit the image.
	out := make([]byte, 0, pageFileHdrSize+int(pageCount)*pageSize)
	out = append(out, pageMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(pageSize))
	out = binary.LittleEndian.AppendUint32(out, pageCount)
	out = binary.LittleEndian.AppendUint64(out, watermark)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))

	locs := make([]recLoc, len(recs))
	page := make([]byte, pageSize)
	emitPage := func(pageNo uint32, kind byte, nSlots int, fill func(p []byte)) {
		clear(page)
		binary.LittleEndian.PutUint32(page[4:8], pageNo)
		binary.LittleEndian.PutUint64(page[8:16], watermark)
		binary.LittleEndian.PutUint16(page[16:18], uint16(nSlots))
		page[18] = kind
		fill(page)
		binary.LittleEndian.PutUint32(page[0:4], 0)
		binary.LittleEndian.PutUint32(page[0:4], crc32.ChecksumIEEE(page))
		out = append(out, page...)
	}

	for pi, pl := range dataPages {
		emitPage(uint32(pi), pageKindData, len(pl), func(p []byte) {
			heap := pageHdrSize + len(pl)*slotSize
			for si, pc := range pl {
				rec := recs[pc.rec]
				start := heap
				p[heap] = rec.kind
				heap++
				heap += binary.PutUvarint(p[heap:], uint64(len(rec.key)))
				heap += copy(p[heap:], rec.key)
				if pc.overflow {
					p[heap] = 1
					heap++
					binary.LittleEndian.PutUint32(p[heap:], ovStart[pc.rec])
					binary.LittleEndian.PutUint32(p[heap+4:], uint32(len(rec.payload)))
					heap += 8
				} else {
					p[heap] = 0
					heap++
					heap += copy(p[heap:], rec.payload)
				}
				slot := pageHdrSize + si*slotSize
				binary.LittleEndian.PutUint16(p[slot:], uint16(start))
				binary.LittleEndian.PutUint16(p[slot+2:], uint16(heap-start))
				locs[pc.rec] = recLoc{page: uint32(pi), slot: uint16(si)}
			}
		})
	}
	for _, ri := range overflowRecs {
		payload := recs[ri].payload
		no := ovStart[ri]
		for off := 0; ; off += heapCap {
			n := min(heapCap, len(payload)-off)
			chunk := payload[off : off+n]
			emitPage(no, pageKindOverflow, 0, func(p []byte) {
				// nSlots doubles as the chunk length for overflow pages
				// (16-bit suffices: heapCap < 64K).
				binary.LittleEndian.PutUint16(p[16:18], uint16(n))
				copy(p[pageHdrSize:], chunk)
			})
			no++
			if off+n >= len(payload) {
				break
			}
		}
	}
	return out, locs, nil
}

// pageFile is an open page file: the random-access half of a
// checkpoint. Reads go through readPage (CRC-checked); callers cache
// frames in a bufferPool.
type pageFile struct {
	f         File
	pageSize  int
	pageCount uint32
	watermark uint64
}

// openPageFile opens the page file next to logPath. exists is false
// when there is none. A file whose header is unreadable or whose
// checksum fails is reported as exists && damaged with a nil pageFile
// — the caller falls back to log replay.
func openPageFile(fsys FS, logPath string) (pf *pageFile, exists, damaged bool, err error) {
	f, err := fsys.OpenFile(pagePath(logPath), os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, false, nil
		}
		return nil, false, false, err
	}
	var hdr [pageFileHdrSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, true, true, nil
	}
	if string(hdr[:len(pageMagic)]) != string(pageMagic) ||
		crc32.ChecksumIEEE(hdr[:28]) != binary.LittleEndian.Uint32(hdr[28:32]) {
		f.Close()
		return nil, true, true, nil
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if pageSize < minPageSize || pageSize > maxPageSize {
		f.Close()
		return nil, true, true, nil
	}
	return &pageFile{
		f:         f,
		pageSize:  pageSize,
		pageCount: binary.LittleEndian.Uint32(hdr[16:20]),
		watermark: binary.LittleEndian.Uint64(hdr[20:28]),
	}, true, false, nil
}

func (pf *pageFile) Close() error {
	if pf == nil || pf.f == nil {
		return nil
	}
	err := pf.f.Close()
	pf.f = nil
	return err
}

// readPage reads and checksums page no. The caller serializes access
// (the buffer pool's fetch path holds its lock).
func (pf *pageFile) readPage(no uint32) ([]byte, error) {
	if no >= pf.pageCount {
		return nil, fmt.Errorf("repository: page %d beyond page count %d", no, pf.pageCount)
	}
	if _, err := pf.f.Seek(int64(pageFileHdrSize)+int64(no)*int64(pf.pageSize), io.SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, pf.pageSize)
	if _, err := io.ReadFull(pf.f, buf); err != nil {
		return nil, fmt.Errorf("repository: read page %d: %w", no, err)
	}
	if err := checkPage(buf, no, pf.watermark); err != nil {
		return nil, err
	}
	return buf, nil
}

// checkPage validates one page image: checksum, self-identified page
// number, and snapshot watermark.
func checkPage(buf []byte, no uint32, watermark uint64) error {
	want := binary.LittleEndian.Uint32(buf[0:4])
	cp := make([]byte, 4)
	crc := crc32.NewIEEE()
	crc.Write(cp)
	crc.Write(buf[4:])
	if crc.Sum32() != want {
		return fmt.Errorf("repository: page %d checksum mismatch", no)
	}
	if got := binary.LittleEndian.Uint32(buf[4:8]); got != no {
		return fmt.Errorf("repository: page %d self-identifies as %d", no, got)
	}
	if got := binary.LittleEndian.Uint64(buf[8:16]); got != watermark {
		return fmt.Errorf("repository: page %d watermark %d differs from snapshot watermark %d", no, got, watermark)
	}
	return nil
}

// parseSlot returns the record header fields of slot si in a data
// page: the record kind, key, and either the inline payload (sliced
// from the page, not copied) or the overflow chain reference.
func parseSlot(page []byte, si int) (kind byte, key string, inline []byte, ovPage, ovLen uint32, err error) {
	nSlots := int(binary.LittleEndian.Uint16(page[16:18]))
	if si >= nSlots {
		return 0, "", nil, 0, 0, fmt.Errorf("repository: slot %d beyond slot count %d", si, nSlots)
	}
	se := pageHdrSize + si*slotSize
	off := int(binary.LittleEndian.Uint16(page[se:]))
	length := int(binary.LittleEndian.Uint16(page[se+2:]))
	if off+length > len(page) || length < 3 {
		return 0, "", nil, 0, 0, fmt.Errorf("repository: slot %d out of bounds", si)
	}
	rec := page[off : off+length]
	kind = rec[0]
	keyLen, n := binary.Uvarint(rec[1:])
	if n <= 0 || 1+n+int(keyLen)+1 > len(rec) {
		return 0, "", nil, 0, 0, fmt.Errorf("repository: slot %d malformed key", si)
	}
	key = string(rec[1+n : 1+n+int(keyLen)])
	rest := rec[1+n+int(keyLen):]
	if rest[0] == 0 {
		return kind, key, rest[1:], 0, 0, nil
	}
	if len(rest) != 9 {
		return 0, "", nil, 0, 0, fmt.Errorf("repository: slot %d malformed overflow reference", si)
	}
	return kind, key, nil, binary.LittleEndian.Uint32(rest[1:5]), binary.LittleEndian.Uint32(rest[5:9]), nil
}

// scanPages walks every page of the file sequentially, delivering each
// data-page record's directory entry (kind, key, location) to emit.
// Damaged pages are collected, not fatal: their records are lost, the
// rest of the snapshot survives. The scan reads pages directly (no
// pool) — it runs once, at open, before the pool exists.
func (pf *pageFile) scanPages(emit func(kind byte, key string, loc recLoc)) (damaged []uint32, err error) {
	for no := uint32(0); no < pf.pageCount; no++ {
		buf, err := pf.readPage(no)
		if err != nil {
			// CRC mismatch or a short read: this page's records are
			// lost; every other page is addressed absolutely, so the
			// scan continues.
			damaged = append(damaged, no)
			continue
		}
		if buf[18] != pageKindData {
			continue
		}
		nSlots := int(binary.LittleEndian.Uint16(buf[16:18]))
		for si := 0; si < nSlots; si++ {
			kind, key, _, _, _, err := parseSlot(buf, si)
			if err != nil {
				damaged = append(damaged, no)
				break
			}
			emit(kind, key, recLoc{page: no, slot: uint16(si)})
		}
	}
	return damaged, nil
}

// record reads one record's kind, key and payload through the buffer
// pool, following the overflow chain when the payload lives outside
// the data page. The returned payload is a private copy.
func (pf *pageFile) record(pool *bufferPool, loc recLoc) (kind byte, key string, payload []byte, err error) {
	fr, err := pool.pin(loc.page)
	if err != nil {
		return 0, "", nil, err
	}
	kind, key, inline, ovPage, ovLen, err := parseSlot(fr.buf, int(loc.slot))
	if err != nil {
		pool.unpin(fr)
		return 0, "", nil, err
	}
	if inline != nil {
		payload = append([]byte(nil), inline...)
		pool.unpin(fr)
		return kind, key, payload, nil
	}
	pool.unpin(fr)
	heapCap := pf.pageSize - pageHdrSize
	payload = make([]byte, 0, ovLen)
	for no := ovPage; uint32(len(payload)) < ovLen; no++ {
		ofr, err := pool.pin(no)
		if err != nil {
			return 0, "", nil, err
		}
		if ofr.buf[18] != pageKindOverflow {
			pool.unpin(ofr)
			return 0, "", nil, fmt.Errorf("repository: page %d: overflow chain runs into a data page", no)
		}
		n := int(binary.LittleEndian.Uint16(ofr.buf[16:18]))
		if n > heapCap || uint32(len(payload)+n) > ovLen {
			pool.unpin(ofr)
			return 0, "", nil, fmt.Errorf("repository: page %d: overflow chunk overruns payload length", no)
		}
		payload = append(payload, ofr.buf[pageHdrSize:pageHdrSize+n]...)
		pool.unpin(ofr)
	}
	return kind, key, payload, nil
}
