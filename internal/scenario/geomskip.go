package scenario

// Table-driven geometric skipping. A Bernoulli(p) trial sequence skips
// K ~ Geometric(p) failures between successes, and the float path draws
// K = floor(log(u)/log1p(-p)) from u = 1 - r/2⁵³, where r is the top 53
// bits of one rng.Source.Uint64 (exactly what Source.Float64 uses). As a
// function of r, K is a staircase: it steps from k-1 to k at
// r*_k = ⌈2⁵³·(1 - q^k)⌉ = ⌈2⁵³·(-expm1(k·log1p(-p)))⌉. A geomSkip cuts
// the 53-bit range into 4,096 buckets by the top 12 bits of r and stores,
// per bucket, K at its start and the one r*_k inside it (if any), so a
// draw costs a table load and two comparisons instead of a math.Log.
//
// The table answers only where it provably agrees with the float path:
// near step k, k·|log q| ≈ |log u|, so the few ulps of error in math.Log
// and the divide move the float floor by at most ~3·u·|log u| ≤ 1.1 draws.
// Draws within skipGuard of a step, every draw in a bucket that holds
// two or more steps or borders, within skipGuard+1 draws of its edge, a
// step of the next or previous bucket, and every draw of a probability
// whose steps are too dense for the table take the float path, as do
// the draws of a bucket whose step the float path, probed at
// ±(skipGuard+1), puts elsewhere. So a lookup tests only its bucket's
// flag and its bucket's step. Each trial still makes exactly one Uint64
// draw either way, so the sequences are bit-for-bit those of the float
// path.

import (
	"math"
	"sync"

	"doda/internal/rng"
)

const (
	skipBucketBits  = 12
	skipBuckets     = 1 << skipBucketBits
	skipBucketShift = 53 - skipBucketBits
	skipBucketWidth = 1 << skipBucketShift
	// skipGuard is the half-width, in draws, of the band around each step
	// that the float path answers. The float path's own error is about
	// one draw; 16 leaves a wide margin.
	skipGuard = 16
	// noStep is the step of a bucket over which K is constant: no draw
	// reaches it or comes within skipGuard of it.
	noStep = 1 << 63
)

// skipBucket is one 2⁴¹-draw slice of a geomSkip table.
type skipBucket struct {
	step uint64 // the draw at which K steps from base to base+1, or noStep
	base int64  // K at the bucket's first draw, or -1: the float path answers
}

// geomSkip draws the geometric skips of Bernoulli(p) trials. It is
// immutable once built, so generators on any goroutine may share one.
type geomSkip struct {
	p, logq float64
	tab     *[skipBuckets]skipBucket // nil: every draw takes the float path
}

// newGeomSkip builds the table for p by enumerating the steps r*_k in
// order. The gap between steps k and k+1 is about 2⁵³·p·q^k, so steps
// only get denser; once two lie within half a bucket of each other,
// every bucket from there on holds two or more and the enumeration
// stops. The steps it keeps are half a bucket apart, so there are at
// most 2¹³ of them; p < 2⁻¹³, whose first step already lies within half
// a bucket of zero, gets no table at all.
func newGeomSkip(p float64) *geomSkip {
	g := &geomSkip{p: p, logq: math.Log1p(-p)}
	if !(p >= 0x1p-13 && p < 1) {
		return g
	}
	tab := new([skipBuckets]skipBucket)
	var edge []int             // buckets a step beyond their edge lies within skipGuard+1 of
	next, prev := 0, uint64(0) // next bucket without a base; previous step
	k := 1
	for ; ; k++ {
		// -expm1 is at most 1, so r is at most 2⁵³, the end of the draw
		// range; a step there marks the last bucket by the edge rule.
		r := uint64(math.Ceil(-math.Expm1(float64(k)*g.logq) * (1 << 53)))
		b := int(r >> skipBucketShift)
		if off := r & (skipBucketWidth - 1); off <= skipGuard {
			edge = append(edge, b-1)
		} else if off >= skipBucketWidth-1-skipGuard {
			edge = append(edge, b+1)
		}
		if r >= 1<<53 {
			break // K stays below k over the whole draw range
		}
		if r-prev < skipBucketWidth/2 {
			// b may be prev's bucket, which then holds two steps.
			for next = min(next, b); next < skipBuckets; next++ {
				tab[next].base = -1
			}
			break
		}
		for ; next <= b; next++ {
			tab[next] = skipBucket{step: noStep, base: int64(k - 1)}
		}
		if tab[b].step != noStep || !g.stepAgrees(r, k) {
			tab[b].base = -1
		} else {
			tab[b].step = r
		}
		prev = r
	}
	for ; next < skipBuckets; next++ {
		tab[next] = skipBucket{step: noStep, base: int64(k - 1)}
	}
	// A bucket's own step test cannot see a step just across its edge.
	for _, b := range edge {
		if b < skipBuckets {
			tab[b].base = -1
		}
	}
	g.tab = tab
	return g
}

// stepAgrees reports whether the float path puts step k at r: K is k-1
// just below the guard band around r and k just above it. Every step the
// table keeps lies at least half a bucket above zero, so the lower probe
// is always a draw; a step so close to the top that the upper probe is
// not is checked below only, and every draw above it is in the band.
func (g *geomSkip) stepAgrees(r uint64, k int) bool {
	const d = skipGuard + 1
	return int(g.floatSkip(r-d)) == k-1 && (r+d >= 1<<53 || int(g.floatSkip(r+d)) == k)
}

// floatSkip is the float path's skip for the 53-bit draw r: log(u)/log q
// for u = 1 - r/2⁵³ in (0, 1], which avoids log(0). It can exceed
// MaxInt64 for tiny p, so callers compare it in float space before
// converting.
func (g *geomSkip) floatSkip(r uint64) float64 {
	return math.Log(1-float64(r)/(1<<53)) / g.logq
}

// lookup returns the skip for the 53-bit draw r from the table, or false
// where the float path must answer.
func (g *geomSkip) lookup(r uint64) (int, bool) {
	if g.tab == nil {
		return 0, false
	}
	e := &g.tab[r>>skipBucketShift]
	// Unsigned wrap-around folds the two-sided band into one compare,
	// which passes for |r - step| > skipGuard.
	if e.base < 0 || r-e.step+skipGuard <= 2*skipGuard {
		return 0, false
	}
	k := int(e.base)
	if r >= e.step {
		k++
	}
	return k, true
}

// indices appends to out the indices i in [0, m) of an i.i.d.
// Bernoulli(p) trial sequence that came up true, one Uint64 draw per
// success plus one for the skip that runs past m.
func (g *geomSkip) indices(src *rng.Source, m int, out []int) []int {
	switch {
	case m <= 0 || g.p <= 0:
		return out
	case g.p >= 1:
		for i := 0; i < m; i++ {
			out = append(out, i)
		}
		return out
	}
	i := 0
	for {
		r := src.Uint64() >> 11
		k, ok := g.lookup(r)
		if !ok {
			skip := g.floatSkip(r)
			if skip >= float64(m-i) {
				return out
			}
			k = int(skip)
		} else if k >= m-i {
			return out
		}
		i += k
		out = append(out, i)
		i++
	}
}

// geomSkipMax bounds the tables geomSkipFor keeps: each is 64 KiB, and
// a sweep or a fuzzer may pass through any number of probabilities.
const geomSkipMax = 32

// geomSkips memoizes one geomSkip per distinct probability for the
// whole process, so a table is built once, on the first generator that
// needs it, rather than per model or per replica. What a geomSkip draws
// does not depend on whether it came from the cache, so sharing it
// cannot couple one caller's sequence to another's.
var geomSkips struct {
	sync.Mutex
	m map[uint64]*geomSkip
}

// geomSkipFor returns the shared geomSkip for p, building it on first
// use. When the cache is full an arbitrary entry makes room; generators
// already holding it keep it.
func geomSkipFor(p float64) *geomSkip {
	key := math.Float64bits(p)
	geomSkips.Lock()
	defer geomSkips.Unlock()
	if g, ok := geomSkips.m[key]; ok {
		return g
	}
	if geomSkips.m == nil {
		geomSkips.m = make(map[uint64]*geomSkip)
	}
	if len(geomSkips.m) >= geomSkipMax {
		for old := range geomSkips.m {
			delete(geomSkips.m, old)
			break
		}
	}
	g := newGeomSkip(p)
	geomSkips.m[key] = g
	return g
}
