package repository

import (
	"time"

	"repro/internal/metrics"
)

// StorageMetrics carries the durability instruments one or more Repos
// observe into: fsync latency on the per-append path, group-commit
// flush latency, whole-checkpoint duration, and recovery outcomes at
// Open. A Sharded store shares one StorageMetrics across its shards so
// the exposed series aggregate the whole directory. All fields may be
// nil (the instruments are nil-safe), and a nil *StorageMetrics is a
// valid no-op, so the storage hot path carries no conditionals.
type StorageMetrics struct {
	// AppendFsync times the per-record fsync under SyncAlways.
	AppendFsync *metrics.Histogram
	// GroupCommit times the deferred flush (the interval syncer's tick
	// and explicit Sync barriers).
	GroupCommit *metrics.Histogram
	// Checkpoint times Checkpoint end to end: snapshot write, fsync,
	// rename, directory sync, log truncation.
	Checkpoint *metrics.Histogram
	// OpensClean counts Opens whose replay needed no recovery;
	// OpensRecovered counts Opens that salvaged or truncated a torn
	// tail.
	OpensClean     *metrics.Counter
	OpensRecovered *metrics.Counter
	// PageHits/PageMisses/PageEvictions count buffer-pool traffic: pin
	// requests served from a resident frame, pins that read the page
	// file, and frames evicted by the clock sweep. PagePinned gauges
	// the pages currently pinned by in-flight reads.
	PageHits      *metrics.Counter
	PageMisses    *metrics.Counter
	PageEvictions *metrics.Counter
	PagePinned    *metrics.Gauge
}

// NewStorageMetrics returns a StorageMetrics with every instrument
// allocated (latency histograms over metrics.DurationBuckets).
func NewStorageMetrics() *StorageMetrics {
	return &StorageMetrics{
		AppendFsync:    metrics.NewHistogram(nil),
		GroupCommit:    metrics.NewHistogram(nil),
		Checkpoint:     metrics.NewHistogram(nil),
		OpensClean:     metrics.NewCounter(),
		OpensRecovered: metrics.NewCounter(),
		PageHits:       metrics.NewCounter(),
		PageMisses:     metrics.NewCounter(),
		PageEvictions:  metrics.NewCounter(),
		PagePinned:     metrics.NewGauge(),
	}
}

// Register attaches every instrument to reg under the coma_storage_*
// names served at /metrics.
func (m *StorageMetrics) Register(reg *metrics.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.AttachHistogram("coma_storage_fsync_seconds",
		"Per-append fsync latency under the always durability policy.", m.AppendFsync)
	reg.AttachHistogram("coma_storage_group_commit_seconds",
		"Group-commit flush latency (interval syncer ticks and explicit Sync barriers).", m.GroupCommit)
	reg.AttachHistogram("coma_storage_checkpoint_seconds",
		"Checkpoint duration end to end (snapshot write, fsync, rename, log truncation).", m.Checkpoint)
	reg.CounterFunc("coma_storage_opens_total",
		"Repository opens by recovery outcome (clean replay vs salvage/truncation); sums shard opens.",
		func() float64 { return float64(m.OpensClean.Value() + m.OpensRecovered.Value()) })
	reg.CounterFunc("coma_storage_opens_recovered_total",
		"Repository opens whose log needed recovery (salvage, torn-tail truncation).",
		func() float64 { return float64(m.OpensRecovered.Value()) })
	reg.AttachCounter("coma_pagecache_hits_total",
		"Buffer-pool pin requests served from a resident page frame.", m.PageHits)
	reg.AttachCounter("coma_pagecache_misses_total",
		"Buffer-pool pin requests that had to read the page file.", m.PageMisses)
	reg.AttachCounter("coma_pagecache_evictions_total",
		"Page frames evicted by the buffer pool's clock sweep.", m.PageEvictions)
	reg.GaugeFunc("coma_pagecache_pinned_pages",
		"Pages currently pinned by in-flight reads, summed over shards.",
		func() float64 { return float64(m.PagePinned.Value()) })
}

// The observe* methods are nil-receiver safe so the storage paths call
// them unconditionally; an unmetered repo pays one pointer test.

func (m *StorageMetrics) observeAppendFsync(start time.Time) {
	if m == nil {
		return
	}
	m.AppendFsync.Observe(time.Since(start).Seconds())
}

func (m *StorageMetrics) observeGroupCommit(start time.Time) {
	if m == nil {
		return
	}
	m.GroupCommit.Observe(time.Since(start).Seconds())
}

func (m *StorageMetrics) observeCheckpoint(start time.Time) {
	if m == nil {
		return
	}
	m.Checkpoint.Observe(time.Since(start).Seconds())
}

func (m *StorageMetrics) observePageHit() {
	if m == nil {
		return
	}
	m.PageHits.Inc()
}

func (m *StorageMetrics) observePageMiss() {
	if m == nil {
		return
	}
	m.PageMisses.Inc()
}

func (m *StorageMetrics) observePageEviction() {
	if m == nil {
		return
	}
	m.PageEvictions.Inc()
}

func (m *StorageMetrics) observePagePinned(d float64) {
	if m == nil {
		return
	}
	m.PagePinned.Add(d)
}

// recordOpen counts one Open outcome.
func (m *StorageMetrics) recordOpen(rep *RecoveryReport) {
	if m == nil || rep == nil {
		return
	}
	if rep.Clean() {
		m.OpensClean.Inc()
	} else {
		m.OpensRecovered.Inc()
	}
}

// WithMetrics wires the repo's durability timings and recovery
// outcomes into m. Passing one StorageMetrics to OpenSharded
// aggregates all shards.
func WithMetrics(m *StorageMetrics) OpenOption {
	return func(c *openConfig) { c.metrics = m }
}
