package coma

import (
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
)

// FuzzDecodeWarm feeds arbitrary bytes to the warm sidecar decoder: it
// must return an error or entries whose columns the input could hold,
// never panic. The committed corpus under testdata/fuzz holds a
// sidecar written by a real store checkpoint, so plain `go test`
// replays it.
func FuzzDecodeWarm(f *testing.F) {
	f.Add(encodeWarm([3]uint64{1, 2, 3}, nil))
	f.Add(hostileWarm())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, entries, err := decodeWarm(data)
		if err != nil {
			return
		}
		vals := 0
		for _, e := range entries {
			for _, c := range e.cols {
				vals += len(c.Col)
			}
		}
		if 8*vals > len(data) {
			t.Fatalf("%d decoded column values from %d bytes", vals, len(data))
		}
	})
}

// hostileWarm builds a 57-byte sidecar with a valid CRC whose one
// column claims 2^24 values: a count-driven allocation would take
// 128 MiB for it.
func hostileWarm() []byte {
	body := make([]byte, 24)             // three source fingerprints
	body = binary.AppendUvarint(body, 1) // one entry
	body = append(body, 1, 'a')          // name "a"
	body = binary.LittleEndian.AppendUint32(body, 0)
	body = binary.AppendUvarint(body, 0)     // empty artifact
	body = binary.AppendUvarint(body, 1)     // one column
	body = append(body, 0, 0, 0, 0)          // owner "", comb, set, name ""
	body = binary.AppendUvarint(body, 1<<24) // value count
	out := append([]byte(warmMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[len(warmMagic):], crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// TestDecodeWarmHostileCount: a column count larger than the remaining
// bytes could encode is rejected before anything is allocated for it.
func TestDecodeWarmHostileCount(t *testing.T) {
	data := hostileWarm()
	if len(data) != 57 {
		t.Fatalf("hostile sidecar is %d bytes, want 57", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeWarm(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile sidecar accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding a %d-byte sidecar allocated %d bytes, want < 1 MiB", len(data), got)
	}
}
