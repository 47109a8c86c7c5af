package analysis_test

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/workload"
)

// FuzzRestoreIndex feeds arbitrary artifact bytes to RestoreIndex: it
// must return an error or a valid index for the schema, never panic.
// The committed corpus under testdata/fuzz holds artifacts exported by
// a real store checkpoint, so plain `go test` replays them.
func FuzzRestoreIndex(f *testing.F) {
	src := defaultSources()
	s := workload.Schemas()[0]
	f.Add(analysis.ExportIndex(analysis.NewIndex(s, src)))
	f.Add(hostileArtifact)
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := analysis.RestoreIndex(s, src, data)
		if err == nil && !idx.Valid(s, src) {
			t.Fatal("RestoreIndex accepted bytes but returned an invalid index")
		}
	})
}

// hostileArtifact is 8 bytes claiming 2^24 tokens for one name (version
// 1, one name, name "a", then a uvarint token count of 2^24), which a
// count-driven allocation turns into hundreds of MiB.
var hostileArtifact = []byte{1, 1, 1, 'a', 0x80, 0x80, 0x80, 0x08}

// TestRestoreIndexHostileCount: an artifact whose token count exceeds
// what its remaining bytes could encode is rejected before anything is
// allocated for it.
func TestRestoreIndexHostileCount(t *testing.T) {
	src := defaultSources()
	s := workload.Schemas()[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := analysis.RestoreIndex(s, src, hostileArtifact)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile artifact accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding an %d-byte artifact allocated %d bytes, want < 1 MiB", len(hostileArtifact), got)
	}
}
