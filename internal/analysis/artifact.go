package analysis

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/schema"
	"repro/internal/strutil"
)

// Index artifacts persist the expensive half of a SchemaIndex — the
// distinct-name analysis: token sets (dictionary expansion included)
// and per-token dictionary/taxonomy annotations. Structural arrays,
// normalized forms, Soundex codes and n-gram multisets are all
// deterministic functions of the schema and the token strings, so
// RestoreIndex recomputes them and the restored index is bit-identical
// to a fresh NewIndex against sources with equal content. The caller
// owns cross-process validity: an artifact is only as good as the
// sources it was exported under, so restores must be gated on source
// fingerprints (dict.Fingerprint) and on the schema bytes it was
// exported for.

// artifactVersion is the encoding version; decoders reject others.
const artifactVersion = 1

type artEncoder struct{ buf []byte }

func (e *artEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *artEncoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *artEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *artEncoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

type artDecoder struct {
	buf []byte
	off int
	err error
}

func (d *artDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("analysis: artifact: truncated %s at offset %d", what, d.off)
	}
}

func (d *artDecoder) uvarint() uint64 {
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

func (d *artDecoder) varint() int64 {
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

// count reads an element count and rejects one the remaining bytes
// cannot hold at minBytes per element, so a corrupt count cannot drive
// an allocation larger than the input.
func (d *artDecoder) count(minBytes int, what string) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64((len(d.buf)-d.off)/minBytes) {
		d.fail(what)
		return 0
	}
	return n
}

func (d *artDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *artDecoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func encodeProfile(e *artEncoder, np *strutil.NameProfile) {
	e.str(np.Name)
	e.uvarint(uint64(len(np.Tokens)))
	for i, tok := range np.Tokens {
		e.str(tok)
		tp := np.Profiles[i]
		e.varint(int64(tp.DictID))
		e.uvarint(uint64(len(tp.DictRel)))
		for _, r := range tp.DictRel {
			e.varint(int64(r.ID))
			e.f64(r.Sim)
		}
		e.uvarint(uint64(len(tp.TaxChain)))
		for _, id := range tp.TaxChain {
			e.varint(int64(id))
		}
	}
}

func decodeProfile(d *artDecoder, src Sources) *strutil.NameProfile {
	name := d.str()
	nTok := d.count(1, "token count")
	if d.err != nil {
		return nil
	}
	np := &strutil.NameProfile{
		Name:     name,
		Tokens:   make([]string, 0, nTok),
		Profiles: make([]*strutil.TokenProfile, 0, nTok),
	}
	for t := uint64(0); t < nTok && d.err == nil; t++ {
		tok := d.str()
		tp := strutil.NewTokenProfile(tok, profiledGramNs...)
		dictID := int32(d.varint())
		nRel := d.count(8, "relation count") // each relation holds a float
		var rel []strutil.IDSim
		for r := uint64(0); r < nRel && d.err == nil; r++ {
			id := int32(d.varint())
			rel = append(rel, strutil.IDSim{ID: id, Sim: d.f64()})
		}
		nChain := d.count(1, "chain count")
		var chain []int32
		for c := uint64(0); c < nChain && d.err == nil; c++ {
			chain = append(chain, int32(d.varint()))
		}
		// Annotations tag the live source instances, exactly as a fresh
		// build would; with a source absent its annotations stay unset.
		if src.Dict != nil {
			tp.DictSrc = src.Dict
			tp.DictID = dictID
			tp.DictRel = rel
		}
		if src.Taxonomy != nil {
			tp.TaxSrc = src.Taxonomy
			tp.TaxChain = chain
		}
		np.Tokens = append(np.Tokens, tok)
		np.Profiles = append(np.Profiles, tp)
	}
	if d.err != nil {
		return nil
	}
	return np
}

// ExportIndex serializes the distinct-name analysis of x for
// warm-restart persistence.
func ExportIndex(x *SchemaIndex) []byte {
	e := &artEncoder{buf: make([]byte, 0, 256)}
	e.uvarint(artifactVersion)
	e.uvarint(uint64(len(x.Names)))
	for _, np := range x.Names {
		encodeProfile(e, np)
	}
	e.uvarint(uint64(len(x.LongNames)))
	for _, np := range x.LongNames {
		encodeProfile(e, np)
	}
	return e.buf
}

// RestoreIndex rebuilds a SchemaIndex for s against src from a
// persisted artifact, recomputing structural arrays from the schema
// and reusing the artifact's name analysis. Names the artifact does
// not cover (it was exported for a different schema revision) are
// analyzed fresh, so the result is always a correct, Valid index; the
// only thing lost to a partial artifact is warmth. A malformed
// artifact is an error and restores nothing.
func RestoreIndex(s *schema.Schema, src Sources, data []byte) (*SchemaIndex, error) {
	d := &artDecoder{buf: data}
	if v := d.uvarint(); d.err == nil && v != artifactVersion {
		return nil, fmt.Errorf("analysis: artifact version %d, want %d", v, artifactVersion)
	}
	decodeSet := func() map[string]*strutil.NameProfile {
		n := d.count(1, "profile count")
		if d.err != nil {
			return nil
		}
		m := make(map[string]*strutil.NameProfile, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			if np := decodeProfile(d, src); np != nil {
				m[np.Name] = np
			}
		}
		return m
	}
	names := decodeSet()
	longs := decodeSet()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("analysis: artifact has %d trailing bytes", len(data)-d.off)
	}
	return buildIndex(s, src,
		func(name string) (*strutil.NameProfile, *strutil.TokenProfile) {
			if np, ok := names[name]; ok {
				return np, strutil.NewTokenProfile(name, profiledGramNs...)
			}
			return nil, nil
		},
		func(long string) *strutil.NameProfile {
			return longs[long]
		}), nil
}
