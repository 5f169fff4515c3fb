package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/series"
)

// MatchIndex is the indexed match engine: it answers "which patterns
// does this rule match" (the paper's C_R(S)) from a rank index instead
// of testing every pattern against every gene.
//
// For each input lag j it keeps the patterns sorted by the lag's value
// (ties by pattern index), so the patterns satisfying one interval
// gene are a contiguous rank range [lo,hi), found by two binary
// searches. Alongside, it keeps cumulative rank bitmaps over pattern
// indices: bucket b of lag j holds every pattern whose lag-j rank is
// below b·step. A gene's pattern set is then the word-wise difference
// of the two buckets nearest lo and hi, corrected by at most step/2
// patterns at each end read from the sorted order. A rule's matched
// set is the word-wise AND of its genes' sets, and one sweep of the
// result emits the indices in ascending order. Every rule takes this
// one path — selective or not, a lookup costs O(D·(log n + n/64 +
// step)) plus the size of its output — and the answer is exact:
// rank ranges come from the same `v < Lo || v > Hi` test Rule.Match
// applies, so it is the scan's set, not an approximation of it.
//
// step is max(8, n/64), so each lag holds at most 65 bitmaps of n
// bits: ≈ 8·D·n bytes, plus 12·D·n for the sorted values and ranks.
//
// The index is immutable after construction and therefore safe for
// concurrent use. It is the default Backend: an Evaluator given none
// builds one, and setting Runtime.Backend to one shares it across every
// Execution, island and experiment run over the same dataset. The
// sharded evaluation engine (internal/engine) builds one MatchIndex per
// shard.
type MatchIndex struct {
	data    *series.Dataset
	n       int       // patterns indexed
	words   int       // bitmap words per pattern set: ⌈n/64⌉
	step    int       // ranks per bucket
	buckets int       // bucket boundaries per lag beyond 0: ⌈n/step⌉
	vals    []float64 // vals[j*n+k]: k-th smallest value of lag j
	perm    []int32   // perm[j*n+k]: pattern index holding it
	pre     []uint64  // cumulative rank bitmaps; see bucket

	// degenerate is set when the data contains NaN: NaN has no total
	// order, so the sorted-run invariant the binary searches rely on
	// does not hold. No index is built and every lookup falls back to
	// scanning (where Rule.Match defines the NaN semantics).
	degenerate bool
}

// rankedValue is one lag value with its pattern index, the sort unit
// of the index build.
type rankedValue struct {
	v float64
	i int32
}

// NewMatchIndex builds the rank index over the dataset. Lag 0 is one
// O(n log n) sort. Each later lag j reuses lag j−1's order: where row
// i's lag-j value has the same bits as row i+1's lag-(j−1) value, row
// i sorts among such rows exactly as row i+1 sorts in lag j−1 (equal
// values, indices one lower), so one walk of lag j−1's order lists
// them sorted. Only the other rows are sorted, then merged in. In a
// windowed series those are the last row and one per append seam, so
// a build costs one sort plus D−1 linear merges; spaced lags
// (WindowEmbed) share no values and sort in full. Either way the
// result is the (value, index) order a sort of each lag gives.
func NewMatchIndex(data *series.Dataset) *MatchIndex {
	n, d := data.Len(), data.D
	ix := &MatchIndex{data: data, n: n, words: (n + 63) >> 6, step: max(8, n/64)}
	for _, row := range data.Inputs {
		for _, v := range row {
			if math.IsNaN(v) {
				ix.degenerate = true
				return ix
			}
		}
	}
	ix.buckets = (n + ix.step - 1) / ix.step
	ix.vals = make([]float64, d*n)
	ix.perm = make([]int32, d*n)
	// Bucket 0 (the empty set) is stored too, so every gene reads two
	// real bitmaps.
	ix.pre = make([]uint64, d*(ix.buckets+1)*ix.words)
	ranked := make([]rankedValue, n)
	for j := 0; j < d; j++ {
		vals, perm := ix.vals[j*n:(j+1)*n], ix.perm[j*n:(j+1)*n]
		// inherited marks the rows whose lag-j value is the next row's
		// lag-(j−1) value, bit for bit. It borrows lag j's last
		// bucket, which the bucket loop below overwrites.
		inherited := ix.bucket(j, ix.buckets)
		fresh := ranked[:0]
		for i, row := range data.Inputs {
			if j > 0 && i+1 < n && math.Float64bits(row[j]) == math.Float64bits(data.Inputs[i+1][j-1]) {
				inherited[i>>6] |= 1 << (i & 63)
			} else {
				fresh = append(fresh, rankedValue{row[j], int32(i)})
			}
		}
		slices.SortFunc(fresh, func(a, b rankedValue) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return int(a.i - b.i) // deterministic tie-break
		})
		k := 0
		if j > 0 {
			prevVals, prevPerm := ix.vals[(j-1)*n:j*n], ix.perm[(j-1)*n:j*n]
			for p, r := range prevPerm {
				i := r - 1
				if i < 0 || inherited[i>>6]&(1<<(i&63)) == 0 {
					continue
				}
				v := prevVals[p]
				for len(fresh) > 0 && (fresh[0].v < v || fresh[0].v == v && fresh[0].i < i) {
					vals[k], perm[k] = fresh[0].v, fresh[0].i
					fresh = fresh[1:]
					k++
				}
				vals[k], perm[k] = v, i
				k++
			}
		}
		for _, rv := range fresh {
			vals[k], perm[k] = rv.v, rv.i
			k++
		}
		for b := 1; b <= ix.buckets; b++ {
			cur := ix.bucket(j, b)
			copy(cur, ix.bucket(j, b-1))
			setRows(cur, perm[(b-1)*ix.step:min(b*ix.step, n)])
		}
	}
	return ix
}

// bucket returns lag j's cumulative bitmap b: the patterns whose
// lag-j rank is below min(b·step, n).
func (ix *MatchIndex) bucket(j, b int) []uint64 {
	off := (j*(ix.buckets+1) + b) * ix.words
	return ix.pre[off : off+ix.words : off+ix.words]
}

// Data returns the dataset the index was built over.
func (ix *MatchIndex) Data() *series.Dataset { return ix.data }

// Epoch is always 0: the index is immutable, so no cached evaluation
// made against it can ever go stale.
func (ix *MatchIndex) Epoch() uint64 { return 0 }

// MatchIndices returns the rule's matched pattern indices in ascending
// order, nil when none match: AppendMatches(nil, r).
func (ix *MatchIndex) MatchIndices(r *Rule) []int { return ix.AppendMatches(nil, r) }

// AppendMatches appends the rule's matched pattern indices to dst in
// ascending order and returns the extended slice; dst grows at most
// once. Where the index cannot answer (NaN data or a NaN gene bound)
// it scans the patterns serially; both answers are the same set.
func (ix *MatchIndex) AppendMatches(dst []int, r *Rule) []int { return ix.appendMatches(dst, r, 1) }

// appendMatches is AppendMatches with the fallback scan spread over
// workers goroutines (0 = GOMAXPROCS).
func (ix *MatchIndex) appendMatches(dst []int, r *Rule, workers int) []int {
	sc := matchScratchPool.Get().(*MatchScratch)
	out, ok := ix.LookupInto(dst, r, sc)
	matchScratchPool.Put(sc)
	if ok {
		return out
	}
	return appendScan(dst, ix.data, r, workers)
}

// MatchBatch answers the rules one after another, checking ctx between
// them; a cancelled batch is incomplete and the caller discards it.
// An Evaluator over an index does not call it: its EvaluateAll matches
// each rule on the worker that regresses it.
func (ix *MatchIndex) MatchBatch(ctx context.Context, rules []*Rule) [][]int {
	out := make([][]int, len(rules))
	for i, r := range rules {
		if ctx.Err() != nil {
			break
		}
		out[i] = ix.MatchIndices(r)
	}
	return out
}

// geneRange returns the rank range [lo,hi) in the lag-j sorted order
// holding every pattern whose lag-j value satisfies the gene.
// ok=false means the gene has a NaN bound (unconstraining in
// Rule.Match, but it poisons the binary searches) and the caller must
// scan. The gene must not be a wildcard and the index must not be
// degenerate.
func (ix *MatchIndex) geneRange(j int, iv Interval) (lo, hi int, ok bool) {
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return 0, 0, false
	}
	vals := ix.vals[j*ix.n : (j+1)*ix.n]
	lo = searchGE(vals, iv.Lo)
	hi = searchGT(vals, iv.Hi)
	if hi < lo {
		// Inverted gene (Lo > Hi, e.g. loaded from JSON without
		// normalization): Contains is false everywhere, matching
		// the scan's empty result.
		hi = lo
	}
	return lo, hi, true
}

// searchGE returns the first k with vals[k] >= x — the same answer as
// sort.SearchFloat64s, as a direct loop: it runs twice per gene per
// lookup, where the closure-calling generic search is measurable.
func searchGE(vals []float64, x float64) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vals[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchGT returns the first k with vals[k] > x.
func searchGT(vals []float64, x float64) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vals[m] <= x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// geneSpan is one non-wildcard gene's rank range in its lag's order.
type geneSpan struct {
	j, lo, hi int
}

// MatchScratch is the reusable per-worker scratch of a lookup: the
// rule's accumulating bitmap, the gene spans, and the rows a gene's
// end fix-ups must carry across an AND. The zero value is ready to
// use; buffers grow on demand, are retained across calls, and are
// fully rewritten by every lookup, so one scratch serves indexes of
// any size. A MatchScratch must not be used concurrently.
type MatchScratch struct {
	acc   []uint64
	keep  []int32
	genes []geneSpan
}

// matchScratchPool recycles scratch across AppendMatches calls; the
// sharded engine keeps one MatchScratch per pooled shard walk instead.
var matchScratchPool = sync.Pool{New: func() any { return new(MatchScratch) }}

// LookupInto appends the rule's matched pattern indices to dst in
// ascending order through caller-owned scratch. dst grows at most
// once, by the exact result size. ok=false means the index cannot
// answer (the data is NaN-degenerate or a gene has a NaN bound) and
// the caller must scan, which returns the identical set; dst is then
// returned unchanged.
func (ix *MatchIndex) LookupInto(dst []int, r *Rule, sc *MatchScratch) (out []int, ok bool) {
	if ix.degenerate {
		return dst, false
	}
	genes := sc.genes[:0]
	for j, iv := range r.Cond {
		if iv.Wildcard {
			continue
		}
		lo, hi, ok := ix.geneRange(j, iv)
		if !ok {
			sc.genes = genes
			return dst, false
		}
		genes = append(genes, geneSpan{j, lo, hi})
	}
	sc.genes = genes
	// Narrowest first: the first gene fixes the work of every later
	// AND, and an empty range ends the lookup before any bitmap work.
	slices.SortFunc(genes, func(a, b geneSpan) int { return cmp.Compare(a.hi-a.lo, b.hi-b.lo) })
	if len(genes) > 0 && genes[0].hi == genes[0].lo {
		return dst, true
	}
	if cap(sc.acc) < ix.words {
		sc.acc = make([]uint64, ix.words)
	}
	acc := sc.acc[:ix.words]
	if len(genes) == 0 {
		// All-wildcard rule: every pattern matches, and the top bucket
		// of any lag holds them all.
		copy(acc, ix.bucket(0, ix.buckets))
	} else {
		ix.initGene(acc, genes[0])
		for _, g := range genes[1:] {
			if !ix.andGene(acc, g, sc) {
				return dst, true
			}
		}
	}
	count := 0
	for _, word := range acc {
		count += bits.OnesCount64(word)
	}
	if count == 0 {
		return dst, true
	}
	start := len(dst)
	dst = slices.Grow(dst, count)[:start+count]
	k := start
	for w, word := range acc {
		base := w << 6
		for word != 0 {
			dst[k] = base + bits.TrailingZeros64(word)
			k++
			word &= word - 1
		}
	}
	return dst, true
}

// geneParts splits gene g's rank range [lo,hi) into cumulative
// buckets b < c — the rows of rank in [b·step, c·step), read as
// bucket(c) &^ bucket(b) — and the perm segments that correct it:
// add holds ranks the buckets miss, drop ranks they hold beyond the
// range. Rounding each end to its nearest boundary keeps every
// correction within step/2 ranks. A gene no wider than step is taken
// from perm alone (b == c, an empty bucket difference).
func (ix *MatchIndex) geneParts(g geneSpan) (b, c int, add1, add2, drop1, drop2 []int32) {
	perm := ix.perm[g.j*ix.n : (g.j+1)*ix.n]
	if g.hi-g.lo <= ix.step {
		return 0, 0, perm[g.lo:g.hi], nil, nil, nil
	}
	b = (g.lo + ix.step/2) / ix.step
	c = min((g.hi+ix.step/2)/ix.step, ix.buckets)
	rb, rc := b*ix.step, min(c*ix.step, ix.n)
	if rb > g.lo {
		add1 = perm[g.lo:rb]
	} else {
		drop1 = perm[rb:g.lo]
	}
	if rc < g.hi {
		add2 = perm[rc:g.hi]
	} else {
		drop2 = perm[g.hi:rc]
	}
	return b, c, add1, add2, drop1, drop2
}

// initGene overwrites acc with gene g's pattern set.
func (ix *MatchIndex) initGene(acc []uint64, g geneSpan) {
	b, c, add1, add2, drop1, drop2 := ix.geneParts(g)
	hiW, loW := ix.bucket(g.j, c), ix.bucket(g.j, b)
	for w := range acc {
		acc[w] = hiW[w] &^ loW[w]
	}
	setRows(acc, add1)
	setRows(acc, add2)
	clearRows(acc, drop1)
	clearRows(acc, drop2)
}

// andGene intersects acc with gene g's pattern set and reports whether
// anything may remain. Words acc already holds zero are skipped, so
// after a selective first gene the AND costs little beyond the end
// corrections. Rows the corrections add lie outside the bucket
// difference: those still in acc are saved before the word pass and
// restored after it.
func (ix *MatchIndex) andGene(acc []uint64, g geneSpan, sc *MatchScratch) bool {
	b, c, add1, add2, drop1, drop2 := ix.geneParts(g)
	keep := keepRows(sc.keep[:0], acc, add1)
	keep = keepRows(keep, acc, add2)
	sc.keep = keep
	hiW, loW := ix.bucket(g.j, c), ix.bucket(g.j, b)
	var left uint64
	for w, a := range acc {
		if a != 0 {
			a &= hiW[w] &^ loW[w]
			acc[w] = a
			left |= a
		}
	}
	clearRows(acc, drop1)
	clearRows(acc, drop2)
	setRows(acc, keep)
	return left != 0 || len(keep) > 0
}

// setRows sets the bits of the given pattern indices.
func setRows(words []uint64, rows []int32) {
	for _, i := range rows {
		words[i>>6] |= 1 << (uint32(i) & 63)
	}
}

// clearRows clears the bits of the given pattern indices.
func clearRows(words []uint64, rows []int32) {
	for _, i := range rows {
		words[i>>6] &^= 1 << (uint32(i) & 63)
	}
}

// keepRows appends to keep every given pattern index whose bit is set.
func keepRows(keep []int32, words []uint64, rows []int32) []int32 {
	for _, i := range rows {
		if words[i>>6]&(1<<(uint32(i)&63)) != 0 {
			keep = append(keep, i)
		}
	}
	return keep
}

// AppendSetBits appends the position of every set bit in words to out
// in ascending order — the bitmap→ordered-indices sweep of the remote
// cluster's result merge and of the evaluator's kept sets. O(k + n/64)
// for k set bits over an n-bit bitmap.
func AppendSetBits(out []int, words []uint64) []int {
	for w, word := range words {
		base := w << 6
		for word != 0 {
			out = append(out, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// --- offspring-side evaluation cache -----------------------------------

// appendCondKey appends a byte-exact signature of a rule's
// conditional part: one tag byte per gene plus the IEEE-754 bits of
// its bounds. Two rules share a signature iff their matched sets and
// fitted consequents are necessarily identical, so cached results are
// exact, not approximate. (The full cache key prefixes the data epoch
// and the evaluator parameters; see Evaluator.evalKey.)
func appendCondKey(b []byte, cond []Interval) []byte {
	var u [8]byte
	for _, iv := range cond {
		if iv.Wildcard {
			b = append(b, 1)
			continue
		}
		b = append(b, 0)
		binary.LittleEndian.PutUint64(u[:], math.Float64bits(iv.Lo))
		b = append(b, u[:]...)
		binary.LittleEndian.PutUint64(u[:], math.Float64bits(iv.Hi))
		b = append(b, u[:]...)
	}
	return b
}

// ResultCache is the evaluation-result cache every Evaluator keeps
// privately: offspring whose genes survived mutation/crossover
// unchanged reuse their parent's match/regression work. Because
// evaluation is a deterministic function of the key (which encodes
// epoch, parameters and the conditional part), cache hits are
// bit-identical to recomputation — results never depend on hit
// patterns, and therefore not on goroutine scheduling either. It is
// safe for concurrent use.
type ResultCache struct {
	mu     sync.RWMutex
	m      map[string]*EvalResult // guarded by mu
	hits   atomic.Int64
	misses atomic.Int64
}

// resultCacheLimit bounds cache memory. When the map fills up it is
// dropped wholesale (generation-style eviction): the population keeps
// re-seeding the hot entries, and the bound keeps week-long runs flat.
const resultCacheLimit = 1 << 15

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{m: make(map[string]*EvalResult)}
}

// Get is the hot path shared by every EvaluateAll worker: a read lock
// on the map plus atomic counters, so concurrent cache hits never
// serialize on an exclusive lock. It returns nil on a miss.
func (c *ResultCache) Get(key string) *EvalResult {
	c.mu.RLock()
	e := c.m[key]
	c.mu.RUnlock()
	if e != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e
}

// Put memoizes one result, dropping the whole map at the size bound.
func (c *ResultCache) Put(key string, e *EvalResult) {
	c.mu.Lock()
	if len(c.m) >= resultCacheLimit {
		c.m = make(map[string]*EvalResult)
	}
	c.m[key] = e
	c.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts.
func (c *ResultCache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}
