package sketch

import (
	"math"
	"sort"
)

// TDigest is Dunning's merging t-digest: a bounded-size quantile sketch
// whose centroids are small near the tails and large in the middle, so
// p99 stays accurate while memory is O(compression) regardless of how
// many values stream through. Incoming values buffer and periodically
// compact into the centroid list, which keeps Add amortized O(log n) of
// the buffer sort and allocation-free between compactions.
//
// Accuracy: with the k1 scale function used here, the rank error of
// Quantile(q) is bounded by ~q(1-q)·4/compression — at compression 64
// that is ≤ 1.6 % of rank at the median and ≤ 0.07 % at p99; the
// extremes are exact (min and max are tracked separately).
//
// Determinism: given the same sequence of Add calls, the centroid
// list and every quantile are bit-identical — compaction happens at
// fixed buffer fills, uses a stable two-way merge, and involves no
// randomness. Two digests fed the same stream in the same order agree
// exactly; this is what lets tests pin fleet telemetry bitwise.
//
// Not safe for concurrent use; Fleet wraps it.
type TDigest struct {
	compression float64
	maxBuf      int

	buf     []float64 // unmerged observations (weight 1 each)
	means   []float64 // merged centroids, ascending mean
	weights []float64
	total   float64 // merged weight

	count    uint64
	min, max float64
}

// NewTDigest returns a digest with the given compression δ (≤ 0 selects
// 64; values below 20 are raised to 20 — accuracy collapses under that).
func NewTDigest(compression float64) *TDigest {
	if compression <= 0 {
		compression = 64
	}
	if compression < 20 {
		compression = 20
	}
	maxBuf := int(4 * compression)
	if maxBuf < 64 {
		maxBuf = 64
	}
	return &TDigest{compression: compression, maxBuf: maxBuf}
}

// Add records one observation. Non-finite values are dropped.
func (t *TDigest) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if t.count == 0 || v < t.min {
		t.min = v
	}
	if t.count == 0 || v > t.max {
		t.max = v
	}
	t.count++
	t.buf = append(t.buf, v)
	if len(t.buf) >= t.maxBuf {
		t.compact()
	}
}

// Count returns how many values have been observed.
func (t *TDigest) Count() uint64 { return t.count }

// Max returns the largest observation (NaN when empty).
func (t *TDigest) Max() float64 {
	if t.count == 0 {
		return math.NaN()
	}
	return t.max
}

// compact folds the buffered values into the centroid list.
func (t *TDigest) compact() {
	if len(t.buf) == 0 {
		return
	}
	sort.Float64s(t.buf)
	t.mergeSorted(t.buf, nil)
	t.buf = t.buf[:0]
}

// mergeSorted merges the centroid list with a second ascending stream
// (weights nil means every entry weighs 1) under the k1 scale function,
// replacing t.means/t.weights and updating t.total.
func (t *TDigest) mergeSorted(ms, ws []float64) {
	inW := func(i int) float64 {
		if ws == nil {
			return 1
		}
		return ws[i]
	}
	inTotal := 0.0
	if ws == nil {
		inTotal = float64(len(ms))
	} else {
		for _, w := range ws {
			inTotal += w
		}
	}
	newTotal := t.total + inTotal
	if newTotal == 0 {
		return
	}

	var nm, nw []float64
	ci, bi := 0, 0
	next := func() (m, w float64, ok bool) {
		switch {
		case ci < len(t.means) && (bi >= len(ms) || t.means[ci] <= ms[bi]):
			m, w = t.means[ci], t.weights[ci]
			ci++
			return m, w, true
		case bi < len(ms):
			m, w = ms[bi], inW(bi)
			bi++
			return m, w, true
		}
		return 0, 0, false
	}

	cm, cw, started := 0.0, 0.0, false
	wSoFar := 0.0
	qLimit := newTotal * t.qBound(0)
	for {
		m, w, ok := next()
		if !ok {
			break
		}
		if !started {
			cm, cw, started = m, w, true
			continue
		}
		if wSoFar+cw+w <= qLimit {
			// Fold into the current centroid.
			cw += w
			cm += (m - cm) * (w / cw)
		} else {
			nm = append(nm, cm)
			nw = append(nw, cw)
			wSoFar += cw
			qLimit = newTotal * t.qBound(wSoFar/newTotal)
			cm, cw = m, w
		}
	}
	if started {
		nm = append(nm, cm)
		nw = append(nw, cw)
	}
	t.means, t.weights = nm, nw
	t.total = newTotal
}

// scale is the k1 scale function k(q) = δ/2π · asin(2q−1).
func (t *TDigest) scale(q float64) float64 {
	switch {
	case q <= 0:
		return -t.compression / 4
	case q >= 1:
		return t.compression / 4
	}
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// qBound returns the largest cumulative fraction a centroid starting at
// fraction q0 may extend to: q(k(q0)+1).
func (t *TDigest) qBound(q0 float64) float64 {
	k := t.scale(q0) + 1
	lim := t.compression / 4
	switch {
	case k >= lim:
		return 1
	case k <= -lim:
		return 0
	}
	return (math.Sin(2*math.Pi*k/t.compression) + 1) / 2
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by interpolating between
// centroid means, anchored at the exact min and max. Returns NaN when
// empty or q is out of range.
func (t *TDigest) Quantile(q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	t.compact()
	if t.total == 0 {
		return math.NaN()
	}
	if q == 0 {
		return t.min
	}
	if q == 1 {
		return t.max
	}
	idx := q * t.total
	// Each centroid sits at its mean, located at the midpoint of its
	// weight span; interpolate linearly between adjacent centers, with
	// min at rank 0 and max at rank total as exact anchors.
	cum := 0.0
	prevMean, prevCenter := t.min, 0.0
	for i := range t.means {
		center := cum + t.weights[i]/2
		if idx <= center {
			frac := 0.0
			if center > prevCenter {
				frac = (idx - prevCenter) / (center - prevCenter)
			}
			return clampF(prevMean+frac*(t.means[i]-prevMean), t.min, t.max)
		}
		prevMean, prevCenter = t.means[i], center
		cum += t.weights[i]
	}
	frac := 1.0
	if t.total > prevCenter {
		frac = (idx - prevCenter) / (t.total - prevCenter)
	}
	return clampF(prevMean+frac*(t.max-prevMean), t.min, t.max)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
