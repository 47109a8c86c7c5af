package repository

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/schema"
)

// refuseLegacyCheckpoint fails when a flat checkpoint ("<log>.ckpt",
// the snapshot format before page files, which this build cannot read)
// sits next to the log at logPath. A store checkpointed by such a
// build may hold its state only there; opening it without that state
// would serve a store missing those records, and the next checkpoint
// would make the loss permanent.
func refuseLegacyCheckpoint(fsys FS, logPath string) error {
	name := logPath + ".ckpt"
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("repository: %s: %w", name, err)
	}
	f.Close()
	return fmt.Errorf("repository: %s is a flat checkpoint from a build before page files, which this build cannot read; "+
		"convert it by checkpointing the store once with a build that reads both formats", name)
}

// Checkpoint durably snapshots the current state into the slotted
// page file and truncates the log to its header, bounding restart
// replay to the tail. The write is crash-ordered: the page file lands
// via tmp+fsync+rename before the log is truncated, so a crash at any
// point leaves a consistent (snapshot, log-suffix) pair. Afterwards
// the store serves reads from the new page file through the buffer
// pool; mapping and cube values held resident for the log tail are
// released to it, schemas keep their identity-stable decoded
// instances. The sequence counter keeps running, so records appended
// afterwards sort strictly after the watermark.
func (r *Repo) Checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return os.ErrClosed
	}
	if r.broken != nil {
		return r.broken
	}
	start := time.Now()
	recs := r.liveRecordsLocked()
	pageRecs := make([]pageRecord, len(recs))
	for i, rec := range recs {
		pageRecs[i] = pageRecord{kind: rec.kind, key: rec.key, payload: rec.payload}
	}
	img, locs, err := buildPageFile(r.pageSize, r.lastSeq, pageRecs)
	if err != nil {
		return fmt.Errorf("repository: checkpoint %s: %w", r.path, err)
	}
	if _, err := writeFileAtomic(r.fs, pagePath(r.path), img, nil, false); err != nil {
		return fmt.Errorf("repository: checkpoint %s: %w", r.path, err)
	}
	pf, exists, damaged, err := openPageFile(r.fs, r.path)
	if err != nil {
		return fmt.Errorf("repository: checkpoint %s: %w", r.path, err)
	}
	if !exists || damaged {
		return fmt.Errorf("repository: checkpoint %s: page file unreadable after write", r.path)
	}
	old := r.pf
	r.pf = pf
	r.pool = newBufferPool(r.pageCache, pf.readPage, r.metrics)
	old.Close()
	for i, rec := range recs {
		rec.e.paged = true
		rec.e.loc = locs[i]
		// Schemas stay resident (identity-stable instances); mapping
		// and cube payloads now stream from the page file on demand.
		if _, isSchema := rec.e.val.(*schema.Schema); !isSchema {
			rec.e.val = nil
		}
	}
	// The snapshot is durable; the log prefix it covers is now
	// redundant. Truncate the log to its header. A crash before this
	// point replays page file + full log, skipping sequences at or
	// below the watermark.
	if err := r.f.Truncate(int64(len(fileMagicV2))); err != nil {
		return fmt.Errorf("repository: checkpoint %s: truncate log: %w", r.path, err)
	}
	if _, err := r.f.Seek(int64(len(fileMagicV2)), io.SeekStart); err != nil {
		return fmt.Errorf("repository: checkpoint %s: %w", r.path, err)
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("repository: checkpoint %s: %w", r.path, err)
	}
	r.size = int64(len(fileMagicV2))
	r.dirty = false
	r.metrics.observeCheckpoint(start)
	return nil
}
