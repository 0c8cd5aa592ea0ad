package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram counts observations into cumulative buckets and tracks count
// and sum, Prometheus-style. Quantiles are estimated from the bucket
// distribution by linear interpolation, which is exact enough for latency
// reporting (error bounded by bucket width).
//
// Observe is guarded by a mutex rather than per-bucket atomics: the hot
// paths here observe once per HTTP request or training epoch, where a
// single uncontended lock is ~20 ns and keeps count/sum/buckets mutually
// consistent for quantile math.
type Histogram struct {
	mu     sync.Mutex
	uppers []float64 // ascending bucket upper bounds, +Inf excluded
	counts []uint64  // per-bucket (non-cumulative) counts, len(uppers)+1
	count  uint64
	sum    float64
	min    float64
	max    float64

	// exemplars holds the most recent exemplar per bucket (+Inf last),
	// published with lock-free atomic stores so exemplar capture can
	// never block the recording path (see ObserveExemplar).
	exemplars []atomic.Pointer[Exemplar]
}

func newHistogram(uppers []float64) *Histogram {
	return &Histogram{
		uppers:    uppers,
		counts:    make([]uint64, len(uppers)+1),
		min:       math.Inf(1),
		max:       math.Inf(-1),
		exemplars: make([]atomic.Pointer[Exemplar], len(uppers)+1),
	}
}

// NewHistogram returns a standalone histogram (not attached to any
// registry) with the given bucket upper bounds. Useful for local
// measurement loops like the experiments timing study.
func NewHistogram(buckets []float64) *Histogram {
	return newHistogram(normalizeBuckets(buckets))
}

// normalizeBuckets sorts, dedups, and strips non-finite bounds. A nil or
// empty slice falls back to DefBuckets.
func normalizeBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		return DefBuckets()
	}
	bs := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			bs = append(bs, b)
		}
	}
	sort.Float64s(bs)
	out := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			out = append(out, b)
		}
	}
	return out
}

// DefBuckets returns the default latency buckets in seconds (10 µs … 10 s):
// bounds from 10 µs resolve a served forecast, which takes tens of
// microseconds, and the rest are roughly Prometheus' defaults shifted for
// model inference.
func DefBuckets() []float64 {
	return []float64{.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// ExponentialBuckets returns n bucket bounds starting at start, each
// factor times the previous. start and factor must be positive,
// factor > 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 {
		panic(fmt.Sprintf("obs: invalid exponential buckets start=%g factor=%g", start, factor))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.observeIdx(sort.SearchFloat64s(h.uppers, v), v)
}

func (h *Histogram) observeIdx(idx int, v float64) {
	h.mu.Lock()
	h.counts[idx]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Exemplar links one recorded observation to the trace and entity that
// produced it — the breadcrumb from a p99 bucket straight to a span in
// /debug/traces.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id,omitempty"`
	Entity  string  `json:"entity,omitempty"`
}

// BucketExemplar pairs a bucket upper bound (rendered, so "+Inf" stays
// JSON-safe) with its most recent exemplar.
type BucketExemplar struct {
	Le       string   `json:"le"`
	Exemplar Exemplar `json:"exemplar"`
}

// ObserveExemplar records one value and attaches an exemplar to its
// bucket. The exemplar publish is a single atomic pointer store — no
// lock, no retry loop — so exemplar capture can never block or slow the
// recording path, and readers (Exemplars, /debug/fleet) never block a
// writer either.
func (h *Histogram) ObserveExemplar(v float64, traceID, entity string) {
	idx := sort.SearchFloat64s(h.uppers, v)
	h.exemplars[idx].Store(&Exemplar{Value: v, TraceID: traceID, Entity: entity})
	h.observeIdx(idx, v)
}

// Exemplars returns the most recent exemplar of every bucket that has
// one, in ascending bucket order. Lock-free.
func (h *Histogram) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i := range h.exemplars {
		ex := h.exemplars[i].Load()
		if ex == nil {
			continue
		}
		upper := "+Inf"
		if i < len(h.uppers) {
			upper = formatFloat(h.uppers[i])
		}
		out = append(out, BucketExemplar{Le: upper, Exemplar: *ex})
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean observation, or NaN when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// distribution by linear interpolation inside the containing bucket,
// clamped to the observed min/max so a wide terminal bucket can't report
// a latency larger than anything seen. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		// The rank falls inside bucket i: [lower, upper).
		lower := math.Inf(-1)
		if i > 0 {
			lower = h.uppers[i-1]
		}
		upper := math.Inf(1)
		if i < len(h.uppers) {
			upper = h.uppers[i]
		}
		// Clamp open-ended bounds to observed extremes.
		if math.IsInf(lower, -1) {
			lower = h.min
		}
		if math.IsInf(upper, 1) {
			upper = h.max
		}
		if upper <= lower {
			return clamp(upper, h.min, h.max)
		}
		frac := (rank - prev) / float64(c)
		return clamp(lower+frac*(upper-lower), h.min, h.max)
	}
	return h.max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// write emits the Prometheus exposition lines: cumulative buckets with a
// le label, then +Inf, sum, and count. The series label block is spliced
// with the le label per the text format.
func (h *Histogram) write(w io.Writer, name, lbl string) {
	h.mu.Lock()
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	count, sum := h.count, h.sum
	h.mu.Unlock()

	cum := uint64(0)
	for i, upper := range h.uppers {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(lbl, "le", formatFloat(upper)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(lbl, "le", "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, lbl, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, lbl, count)
}

// spliceLabel appends key="value" into an existing canonical label block.
func spliceLabel(lbl, key, value string) string {
	kv := key + `="` + value + `"`
	if lbl == "" {
		return "{" + kv + "}"
	}
	return lbl[:len(lbl)-1] + "," + kv + "}"
}

func (h *Histogram) snapshotValue() SnapshotValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	bs := make([]BucketCount, 0, len(h.uppers)+1)
	cum := uint64(0)
	for i, upper := range h.uppers {
		cum += h.counts[i]
		bs = append(bs, BucketCount{Upper: upper, Count: cum})
	}
	bs = append(bs, BucketCount{Upper: math.Inf(1), Count: h.count})
	return SnapshotValue{Count: h.count, Sum: h.sum, Buckets: bs}
}
