// Package candidates implements the repository-wide candidate-pruning
// index: an inverted index over the stored schemas' analyzed name
// vocabulary (normalized tokens, token trigrams, dictionary term ids)
// plus per-schema generic-type class masks, from which a cheap upper
// bound on the combined schema similarity of (incoming, stored) can be
// computed for every stored schema without running a single matcher.
//
// The bound is admissible — provably >= the real SchemaSim — for the
// library-built matcher configurations (match.BoundableLayers); TopK
// pruning against it is therefore safe: a candidate whose bound falls
// below the running k-th best real score can be skipped with results
// bit-identical to the exhaustive scan (see core.MatchBatch).
// Anything the formulas do not provably dominate — custom matchers,
// non-default token combination, feedback, aggregations the layer
// bounds are not monotone under — refuses a Spec and the caller falls
// back to exhaustive matching.
//
// # Bound construction
//
// The incoming schema's distinct name tokens are interned into a Probe.
// Each probe token p contributes weighted "channels" keyed the same way
// stored schemas post into the index:
//
//   - its normalized text, weight 1 (covers trigram-less and
//     token-equality similarity, both <= 1);
//   - each distinct trigram g occurring k times among p's gp trigrams,
//     weight 2k/(gp+1) (a stored token posting g has >= 1 trigram, so
//     the trigram similarity 2*common/(gp+gc) is dominated by the sum
//     of shared-gram weights);
//   - each dictionary relation (id, sim) of p, weight sim (the Synonym
//     similarity against a stored token with term id `id` is exactly
//     that relation's sim).
//
// A posting walk accumulates, per (stored schema, probe token), the
// total weight of shared keys; capping each token's accumulator at 1
// (every real token-pair similarity is clamped to [0,1]) makes the sum
// over an incoming name's tokens dominate that name's mutual-best
// token-set similarity against ANY of the schema's names:
//
//	NameSim(u, w) <= min(1, 2*acc(u) / (|u| + tmin))
//
// where tmin is the schema's minimum token count over its (non-empty)
// names — the smallest possible denominator of the mutual-best average.
// Generic type compatibility is bounded by the maximum table entry
// between an element's class and the schema's class mask (leaf class
// mask for the leaf-set matchers); Children/Leaves cells are bounded by
// the best descendant-leaf bound, since the mutual-best combination
// never exceeds its largest input. Folding the per-row layer bounds
// with the configured aggregation (monotone for Max/Min/Average and
// non-negative Weighted) yields a per-row bound A_i on the aggregated
// matrix row; only rows with A_i strictly above the selection threshold
// can contribute correspondences, and each contributes at most n2 of
// them, each with similarity <= A_i — the coarse per-row bound n2*A_i.
//
// That coarse bound saturates as soon as two rows qualify, so a second,
// usually far tighter per-row bound is taken alongside it. Every
// aggregated cell decomposes as cell(i,j) <= Z_i + N_ij, where Z_i is
// the row's name-evidence-free part (the type-compatibility channels
// folded with the aggregation) and N_ij the name-evidence part (a
// non-negative per-layer combination of the row's name similarities
// against column j). A selected cell must exceed the threshold T, so it
// must have N_ij > T - Z_i, and therefore
//
//	cell(i,j) <= N_ij * T / (T - Z_i)
//
// which turns the row's selected-cell sum into (T/(T-Z_i)) * sum_j N_ij
// — no n2 factor. The column sum of name evidence is computable from
// the same posting walk: each posting entry carries the number of
// candidate columns whose short name / hierarchical name / descendant
// leaves contain the key, so a multiplicity-weighted accumulator sums,
// per probe token, the token's channel evidence over ALL candidate
// columns at once (uncapped — capping per column is impossible without
// per-column accumulators, and unnecessary for an upper bound). The
// per-row contribution is min(n2*A_i, (T/(T-Z_i)) * sum_j N_ij), the
// latter dropped when Z_i >= T. Hence, for CombAverage:
//
//	SchemaSim <= clamp01(2 * sum(qualifying rows' contributions) / (n1 + n2))
//
// and for CombDice: clamp01((qualifying rows + n2) / (n1 + n2)).
//
// Stored schemas with NO shared posting at all are never touched by the
// walk and receive bound 0 — valid because Spec construction verifies
// that a zero-name-evidence row bound (type-compatibility channels
// alone) cannot exceed the selection threshold; a configuration where
// it could (e.g. threshold 0) refuses the Spec.
//
// The final bound is inflated by a hair (one part in 1e9) before
// clamping so that ulp-level float rounding in the bound arithmetic can
// never push a mathematically-admissible bound below the real score.
//
// # Maintenance and staleness
//
// The index is maintained incrementally: Add posts one schema's keys
// (replacing any previous posting of the same schema), Remove unposts
// them; the served repository hooks both into PUT/DELETE. A slot whose
// analysis no longer matches the schema's current structure or the
// query's auxiliary sources (SchemaIndex.Valid) yields +Inf — the
// candidate is always matched, never wrongly skipped — and callers
// re-Add opportunistically at query time, so direct (un-hooked) store
// mutation degrades to exhaustive work for the affected schemas, never
// to wrong results.
package candidates

import (
	"math"
	"sync"

	"repro/internal/analysis"
	"repro/internal/combine"
	"repro/internal/dict"
	"repro/internal/match"
	"repro/internal/schema"
	"repro/internal/strutil"
)

// numGeneric is the number of generic type classes (dict.GenUnknown
// through dict.GenComplex); class masks carry one bit per class.
const numGeneric = int(dict.GenComplex) + 1

// boundSlack inflates every computed bound multiplicatively so float
// rounding in the bound arithmetic cannot undercut the real score's
// (differently-ordered) arithmetic by an ulp.
const boundSlack = 1 + 1e-9

// Posting key kinds.
const (
	kindNorm uint8 = iota
	kindGram
	kindDict
)

// key is one posting-list key: a normalized token, a token trigram, or
// a dictionary term id.
type key struct {
	kind uint8
	s    string // normalized token or trigram (kindNorm, kindGram)
	id   int32  // dictionary term id (kindDict)
}

// posting is one posting-list entry: the indexed schema's slot plus the
// key's occurrence multiplicities, which feed the column-summed name
// evidence of the per-row selected-cell bound. multName counts the
// schema's columns (paths) whose short-name profile tokens carry the
// key (a token carrying it twice counts twice), multLong the same over
// hierarchical-name profiles, and multLeaf the occurrences over every
// (column, descendant leaf) pair's leaf-name profile.
type posting struct {
	sid      int32
	multName uint32
	multLong uint32
	multLeaf uint32
}

// mult3 carries one key's multiplicities during collection.
type mult3 struct {
	name, long, leaf uint32
}

// slot is one indexed schema's summary.
type slot struct {
	schema *schema.Schema
	idx    *analysis.SchemaIndex
	// keys are the schema's distinct posting keys, kept for Remove.
	keys []key
	// n2 is the schema's element (path) count.
	n2 int
	// tminName / tminLong / tminLeaf are the minimum token counts over
	// the schema's non-empty short / hierarchical / leaf name profiles
	// — the smallest denominators a mutual-best token average can have.
	tminName int
	tminLong int
	tminLeaf int
	// classMask / leafClassMask hold one bit per generic type class
	// occurring among all elements / leaf elements.
	classMask     uint16
	leafClassMask uint16
}

// Index is the candidate-pruning inverted index over stored schemas.
// It is safe for concurrent use: queries take a read lock, Add/Remove
// a write lock.
type Index struct {
	mu       sync.RWMutex
	slots    []slot
	free     []int32
	bySchema map[*schema.Schema]int32
	postings map[key][]posting
	posts    int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		bySchema: make(map[*schema.Schema]int32),
		postings: make(map[key][]posting),
	}
}

// Stats summarizes the index for monitoring (/readyz).
type Stats struct {
	// Schemas is the number of indexed schemas.
	Schemas int
	// Postings is the total number of posting-list entries.
	Postings int
}

// Stats returns the index's current size.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{Schemas: len(ix.bySchema), Postings: ix.posts}
}

// collectKeys builds a schema's distinct posting keys, their occurrence
// multiplicities (see posting), and name-token minima from its
// analysis.
func collectKeys(x *analysis.SchemaIndex) (keys []key, mults []mult3, tminName, tminLong, tminLeaf int) {
	seen := make(map[key]int32)
	add := func(k key, which int, w uint32) {
		i, ok := seen[k]
		if !ok {
			i = int32(len(keys))
			seen[k] = i
			keys = append(keys, k)
			mults = append(mults, mult3{})
		}
		switch which {
		case 0:
			mults[i].name += w
		case 1:
			mults[i].long += w
		case 2:
			mults[i].leaf += w
		}
	}
	tokKeys := func(tp *strutil.TokenProfile, which int, w uint32) {
		add(key{kind: kindNorm, s: tp.Norm}, which, w)
		grams := tp.Grams(3)
		for i := 0; i < len(grams); {
			j := i
			for j < len(grams) && grams[j] == grams[i] {
				j++
			}
			add(key{kind: kindGram, s: grams[i]}, which, w)
			i = j
		}
		if tp.DictID >= 0 {
			add(key{kind: kindDict, id: tp.DictID}, which, w)
		}
	}
	// Column usage counts: how many paths carry each distinct short /
	// hierarchical name, and — for leaves — over how many (column,
	// descendant leaf) pairs each leaf path occurs.
	countName := make([]uint32, len(x.Names))
	countLong := make([]uint32, len(x.LongNames))
	occ := make([]uint32, len(x.Paths))
	for i := range x.Paths {
		countName[x.NameID[i]]++
		countLong[x.LongNameID[i]]++
		lo, hi := x.LeafSet(i)
		for _, a := range x.Leaves[lo:hi] {
			occ[a]++
		}
	}
	leafW := make([]uint32, len(x.Names))
	for _, a := range x.Leaves {
		leafW[x.NameID[a]] += occ[a]
	}
	addProfiles := func(names []*strutil.NameProfile, counts []uint32, which int) int {
		tmin := 0
		for nid, np := range names {
			if counts[nid] == 0 {
				continue
			}
			if n := len(np.Profiles); n > 0 && (tmin == 0 || n < tmin) {
				tmin = n
			}
			for _, tp := range np.Profiles {
				tokKeys(tp, which, counts[nid])
			}
		}
		return tmin
	}
	tminName = addProfiles(x.Names, countName, 0)
	tminLong = addProfiles(x.LongNames, countLong, 1)
	tminLeaf = addProfiles(x.Names, leafW, 2)
	return keys, mults, tminName, tminLong, tminLeaf
}

// classMasks folds a schema's generic type classes into per-element and
// per-leaf bit masks.
func classMasks(x *analysis.SchemaIndex) (all, leaves uint16) {
	for _, g := range x.Generic {
		all |= 1 << uint(g)
	}
	for _, i := range x.Leaves {
		leaves |= 1 << uint(x.Generic[i])
	}
	return all, leaves
}

// Add indexes a schema from its analysis, replacing any previous
// posting of the same schema (PUT-over-PUT). The analysis must be the
// schema's current one; staleness is re-checked at query time via
// SchemaIndex.Valid, so a racing mutation degrades to a forced match,
// never to a wrong skip.
func (ix *Index) Add(s *schema.Schema, x *analysis.SchemaIndex) {
	keys, mults, tminName, tminLong, tminLeaf := collectKeys(x)
	all, leafs := classMasks(x)
	sl := slot{
		schema: s, idx: x, keys: keys, n2: len(x.Paths),
		tminName: tminName, tminLong: tminLong, tminLeaf: tminLeaf,
		classMask: all, leafClassMask: leafs,
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if sid, ok := ix.bySchema[s]; ok {
		ix.removeLocked(sid)
	}
	var sid int32
	if n := len(ix.free); n > 0 {
		sid = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		sid = int32(len(ix.slots))
		ix.slots = append(ix.slots, slot{})
	}
	ix.slots[sid] = sl
	ix.bySchema[s] = sid
	for i, k := range keys {
		m := mults[i]
		ix.postings[k] = append(ix.postings[k], posting{
			sid: sid, multName: m.name, multLong: m.long, multLeaf: m.leaf,
		})
	}
	ix.posts += len(keys)
}

// Remove unposts a schema, reporting whether it was indexed.
func (ix *Index) Remove(s *schema.Schema) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	sid, ok := ix.bySchema[s]
	if !ok {
		return false
	}
	ix.removeLocked(sid)
	return true
}

func (ix *Index) removeLocked(sid int32) {
	sl := &ix.slots[sid]
	for _, k := range sl.keys {
		p := ix.postings[k]
		for i := range p {
			if p[i].sid == sid {
				p[i] = p[len(p)-1]
				p = p[:len(p)-1]
				break
			}
		}
		if len(p) == 0 {
			delete(ix.postings, k)
		} else {
			ix.postings[k] = p
		}
	}
	ix.posts -= len(sl.keys)
	delete(ix.bySchema, sl.schema)
	*sl = slot{}
	ix.free = append(ix.free, sid)
}

// Stale returns the subset of cands lacking a currently-valid slot
// (never indexed, or indexed against an outdated analysis or different
// auxiliary sources) — the schemas a caller should (re-)Add before
// querying Bounds if it wants them boundable rather than force-matched.
func (ix *Index) Stale(cands []*schema.Schema, src analysis.Sources) []*schema.Schema {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []*schema.Schema
	for _, s := range cands {
		if sid, ok := ix.bySchema[s]; !ok || !ix.slots[sid].idx.Valid(s, src) {
			out = append(out, s)
		}
	}
	return out
}

// Spec captures everything about an engine configuration the bound
// formulas need. NewSpec returns nil when the configuration is not
// boundable — the caller must then match exhaustively.
type Spec struct {
	layers []match.BoundLayer
	fold   func([]float64) float64
	teff   float64
	comb   combine.CombSim
	// coefs are the per-layer coefficients of the name-evidence
	// decomposition cell <= fold(z) + sum_L coefs[L]*n_L: the fold's
	// own linear weights for Average/Weighted, and 1 for Max/Min
	// (max_L(z_L+n_L) <= max_L z_L + sum_L n_L, and min likewise via
	// the argmin-z layer).
	coefs []float64
}

// NewSpec validates a matcher configuration for upper-bound pruning:
// every matcher must be a recognized library configuration
// (match.BoundableLayers), the aggregation must fold (Weighted with
// mismatched weights does not), the combined similarity must be one of
// the two the candidate formula covers, feedback must be absent (pinned
// cells can exceed any score-derived bound), and a row with zero name
// evidence must be unable to clear the selection threshold on type
// compatibility alone — otherwise untouched candidates could not be
// scored 0 and pruning would be pointless anyway.
func NewSpec(matchers []match.Matcher, strategy combine.Strategy, feedback *match.Feedback) *Spec {
	if feedback != nil {
		return nil
	}
	layers, ok := match.BoundableLayers(matchers)
	if !ok || len(layers) == 0 {
		return nil
	}
	fold, err := strategy.Agg.Func(len(layers))
	if err != nil {
		return nil
	}
	if strategy.Comb != combine.CombAverage && strategy.Comb != combine.CombDice {
		return nil
	}
	teff := strategy.Sel.Threshold
	if teff < 0 {
		teff = 0
	}
	// z_max: the largest per-row bound a candidate sharing no posting
	// key can reach (name layers 0, type layers at full compatibility).
	zvals := make([]float64, len(layers))
	for i, l := range layers {
		switch l.Kind {
		case match.BoundName, match.BoundNamePath:
			zvals[i] = 0
		default:
			zvals[i] = l.WType
		}
	}
	if fold(zvals) > teff {
		return nil
	}
	coefs := make([]float64, len(layers))
	switch strategy.Agg.Kind {
	case combine.Average:
		for i := range coefs {
			coefs[i] = 1 / float64(len(layers))
		}
	case combine.Weighted:
		// Agg.Func succeeded above, so the weights are non-negative
		// with a positive total.
		total := 0.0
		for _, w := range strategy.Agg.Weights {
			total += w
		}
		for i := range coefs {
			coefs[i] = strategy.Agg.Weights[i] / total
		}
	default: // Max, Min
		for i := range coefs {
			coefs[i] = 1
		}
	}
	return &Spec{layers: layers, fold: fold, teff: teff, comb: strategy.Comb, coefs: coefs}
}

// tokWeight is one probe token's contribution under a posting key.
type tokWeight struct {
	tok int32
	w   float64
}

// nameRef is one distinct incoming name: its interned token ids (one
// entry per token instance) and token count.
type nameRef struct {
	toks []int32
}

// leafRef is one descendant leaf of an incoming row.
type leafRef struct {
	g    dict.GenericType
	name int32
}

// rowRef is one incoming element row.
type rowRef struct {
	name, long int32
	g          dict.GenericType
	leaves     []leafRef
	// leafToks are the distinct interned token ids over the row's
	// descendant-leaf names; leafMin is the minimum token count among
	// the non-empty ones (0 if none). Both feed the row's column-summed
	// leaf name-evidence bound.
	leafToks []int32
	leafMin  int
}

// Probe is the incoming schema's side of a bound computation: interned
// distinct tokens with their channel weights per posting key, plus the
// per-name and per-row structure the layer bounds read. A Probe is
// immutable after construction and reusable across shards.
type Probe struct {
	spec      *Spec
	src       analysis.Sources
	types     *dict.TypeTable
	n1        int
	ntok      int
	chans     map[key][]tokWeight
	names     []nameRef
	longNames []nameRef
	rows      []rowRef
}

// NewProbe builds the incoming side of a bound computation from the
// incoming schema's analysis.
func NewProbe(spec *Spec, x *analysis.SchemaIndex) *Probe {
	p := &Probe{
		spec:  spec,
		src:   x.Src,
		types: x.Src.Types,
		chans: make(map[key][]tokWeight),
		n1:    len(x.Paths),
	}
	if p.types == nil {
		// Identical compatibility values to the match layer's own
		// nil-sources fallback, so bounds computed here dominate scores
		// computed there.
		p.types = dict.DefaultTypeTable()
	}
	byTok := make(map[string]int32)
	intern := func(tp *strutil.TokenProfile) int32 {
		if id, ok := byTok[tp.Token]; ok {
			return id
		}
		id := int32(p.ntok)
		p.ntok++
		byTok[tp.Token] = id
		nk := key{kind: kindNorm, s: tp.Norm}
		p.chans[nk] = append(p.chans[nk], tokWeight{tok: id, w: 1})
		grams := tp.Grams(3)
		if gp := len(grams); gp > 0 {
			for i := 0; i < gp; {
				j := i
				for j < gp && grams[j] == grams[i] {
					j++
				}
				gk := key{kind: kindGram, s: grams[i]}
				p.chans[gk] = append(p.chans[gk],
					tokWeight{tok: id, w: 2 * float64(j-i) / float64(gp+1)})
				i = j
			}
		}
		for _, r := range tp.DictRel {
			if r.Sim > 0 {
				dk := key{kind: kindDict, id: r.ID}
				p.chans[dk] = append(p.chans[dk], tokWeight{tok: id, w: r.Sim})
			}
		}
		return id
	}
	internName := func(np *strutil.NameProfile) nameRef {
		toks := make([]int32, len(np.Profiles))
		for i, tp := range np.Profiles {
			toks[i] = intern(tp)
		}
		return nameRef{toks: toks}
	}
	p.names = make([]nameRef, len(x.Names))
	for u, np := range x.Names {
		p.names[u] = internName(np)
	}
	p.longNames = make([]nameRef, len(x.LongNames))
	for u, np := range x.LongNames {
		p.longNames[u] = internName(np)
	}
	p.rows = make([]rowRef, p.n1)
	seenTok := make(map[int32]struct{})
	for i := range p.rows {
		lo, hi := x.LeafSet(i)
		leaves := make([]leafRef, hi-lo)
		var leafToks []int32
		leafMin := 0
		clear(seenTok)
		for d, a := range x.Leaves[lo:hi] {
			leaves[d] = leafRef{g: x.Generic[a], name: int32(x.NameID[a])}
			nr := p.names[x.NameID[a]]
			if n := len(nr.toks); n > 0 && (leafMin == 0 || n < leafMin) {
				leafMin = n
			}
			for _, t := range nr.toks {
				if _, ok := seenTok[t]; !ok {
					seenTok[t] = struct{}{}
					leafToks = append(leafToks, t)
				}
			}
		}
		p.rows[i] = rowRef{
			name:     int32(x.NameID[i]),
			long:     int32(x.LongNameID[i]),
			g:        x.Generic[i],
			leaves:   leaves,
			leafToks: leafToks,
			leafMin:  leafMin,
		}
	}
	return p
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// maskCompat returns the maximum type compatibility between class g and
// any class in mask.
func maskCompat(tt *dict.TypeTable, g dict.GenericType, mask uint16) float64 {
	best := 0.0
	for h := 0; h < numGeneric; h++ {
		if mask&(1<<uint(h)) == 0 {
			continue
		}
		if v := tt.CompatGeneric(g, dict.GenericType(h)); v > best {
			best = v
		}
	}
	return best
}

// Bounds computes one admissible SchemaSim upper bound per candidate:
// 0 for indexed candidates sharing no posting key with the probe,
// +Inf for candidates without a valid slot (never indexed, or stale
// against the probe's sources — they must be matched, not skipped),
// and the channel-sum bound for the rest. The candidate order of the
// result aligns with cands.
func (ix *Index) Bounds(p *Probe, cands []*schema.Schema) []float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	out := make([]float64, len(cands))
	candSlot := make([]int32, len(cands))
	slotPos := make(map[int32]int32, len(cands))
	for c, s := range cands {
		sid, ok := ix.bySchema[s]
		if !ok || !ix.slots[sid].idx.Valid(s, p.src) {
			out[c] = math.Inf(1)
			candSlot[c] = -1
			continue
		}
		candSlot[c] = sid
		slotPos[sid] = int32(c)
	}

	// Posting walk: accumulate shared-key channel weight per
	// (candidate, probe token) — the capped per-token evidence at
	// stride 0, and the column-summed (multiplicity-weighted) short /
	// hierarchical / leaf name evidence at strides 1-3. Candidates
	// sharing nothing are never touched and keep bound 0 (sound by the
	// Spec's z_max check).
	const accStride = 4
	accs := make([][]float64, len(cands))
	var touched []int32
	for k, tws := range p.chans {
		post, ok := ix.postings[k]
		if !ok {
			continue
		}
		for _, pe := range post {
			c, ok := slotPos[pe.sid]
			if !ok {
				continue
			}
			acc := accs[c]
			if acc == nil {
				acc = make([]float64, accStride*p.ntok)
				accs[c] = acc
				touched = append(touched, c)
			}
			mn, ml, mf := float64(pe.multName), float64(pe.multLong), float64(pe.multLeaf)
			for _, tw := range tws {
				a := acc[accStride*tw.tok:]
				a[0] += tw.w
				a[1] += tw.w * mn
				a[2] += tw.w * ml
				a[3] += tw.w * mf
			}
		}
	}

	// Finalize each touched candidate.
	nb := make([]float64, len(p.names))
	nbl := make([]float64, len(p.longNames))
	sn := make([]float64, len(p.names))
	snl := make([]float64, len(p.longNames))
	vals := make([]float64, len(p.spec.layers))
	zvals := make([]float64, len(p.spec.layers))
	var compatRow, compatLeaf [numGeneric]float64
	// nameBounds computes, per distinct incoming name, the capped
	// best-single-column bound (dst, clamped to [0,1]) and the uncapped
	// column-summed evidence bound (sdst, deliberately unclamped).
	nameBounds := func(dst, sdst []float64, names []nameRef, acc []float64, sumOff, tmin int) {
		for u, nr := range names {
			a, s := 0.0, 0.0
			for _, t := range nr.toks {
				v := acc[accStride*int(t)]
				if v > 1 {
					v = 1
				}
				a += v
				s += acc[accStride*int(t)+sumOff]
			}
			dst[u], sdst[u] = 0, 0
			if a > 0 {
				dst[u] = clamp01(2 * a / float64(len(nr.toks)+tmin))
			}
			if s > 0 {
				sdst[u] = 2 * s / float64(len(nr.toks)+tmin)
			}
		}
	}
	for _, c := range touched {
		sl := &ix.slots[candSlot[c]]
		acc := accs[c]
		nameBounds(nb, sn, p.names, acc, 1, sl.tminName)
		nameBounds(nbl, snl, p.longNames, acc, 2, sl.tminLong)
		for g := 0; g < numGeneric; g++ {
			compatRow[g] = maskCompat(p.types, dict.GenericType(g), sl.classMask)
			compatLeaf[g] = maskCompat(p.types, dict.GenericType(g), sl.leafClassMask)
		}
		sum, qual := 0.0, 0
		for _, r := range p.rows {
			leafB, leafW := -1.0, -1.0
			// maxLeafCompat feeds the row's name-evidence-free part for
			// the leaf-set layers; sLeaf its column-summed leaf name
			// evidence.
			maxLeafCompat := 0.0
			for _, lf := range r.leaves {
				if v := compatLeaf[lf.g]; v > maxLeafCompat {
					maxLeafCompat = v
				}
			}
			sLeaf := 0.0
			if len(r.leafToks) > 0 {
				s := 0.0
				for _, t := range r.leafToks {
					s += acc[accStride*int(t)+3]
				}
				if s > 0 {
					sLeaf = 2 * s / float64(r.leafMin+sl.tminLeaf)
				}
			}
			nsum := 0.0
			for li, l := range p.spec.layers {
				switch l.Kind {
				case match.BoundName:
					vals[li] = nb[r.name]
					zvals[li] = 0
					nsum += p.spec.coefs[li] * sn[r.name]
				case match.BoundNamePath:
					vals[li] = nbl[r.long]
					zvals[li] = 0
					nsum += p.spec.coefs[li] * snl[r.long]
				case match.BoundTypeName:
					vals[li] = clamp01(l.WType*compatRow[r.g] + l.WName*nb[r.name])
					zvals[li] = l.WType * compatRow[r.g]
					nsum += p.spec.coefs[li] * l.WName * sn[r.name]
				case match.BoundChildren, match.BoundLeaves:
					// Children and Leaves share the descendant-leaf bound;
					// compute it once per row while their weights agree
					// (they do for the library constructors).
					if leafB < 0 || leafW != l.WType {
						leafB, leafW = 0, l.WType
						for _, lf := range r.leaves {
							if v := l.WType*compatLeaf[lf.g] + l.WName*nb[lf.name]; v > leafB {
								leafB = v
							}
						}
						if leafB > 1 {
							leafB = 1
						}
					}
					vals[li] = leafB
					zvals[li] = l.WType * maxLeafCompat
					nsum += p.spec.coefs[li] * l.WName * sLeaf
				}
			}
			a := p.spec.fold(vals)
			if a <= p.spec.teff {
				continue
			}
			qual++
			// Coarse: at most n2 selected cells in the row, each <= a.
			row := float64(sl.n2) * a
			// Refined: every selected cell exceeds the threshold, so its
			// name evidence exceeds teff - Z_i, bounding the row's
			// selected-cell sum by (teff/(teff-Z_i)) * sum_j N_ij.
			if d := p.spec.teff - p.spec.fold(zvals); d > 0 {
				if alt := p.spec.teff / d * nsum; alt < row {
					row = alt
				}
			}
			sum += row
		}
		switch p.spec.comb {
		case combine.CombAverage:
			out[c] = clamp01(boundSlack * 2 * sum / float64(p.n1+sl.n2))
		case combine.CombDice:
			if qual > 0 {
				out[c] = clamp01(boundSlack * float64(qual+sl.n2) / float64(p.n1+sl.n2))
			}
		}
	}
	return out
}
