package obs

import (
	"math"
	"strings"
	"testing"
)

func TestExponentialBuckets(t *testing.T) {
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("exponential buckets = %v", exp)
	}
}

func TestExponentialBucketsRejectsBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for factor <= 1")
		}
	}()
	ExponentialBuckets(1, 1, 3)
}

// TestDefBucketsResolveServingLatency: a served forecast takes tens of
// microseconds, so the default buckets must place the median of 1,000
// observations uniform in [40, 60] µs near 50 µs — not at the observed
// maximum, where a first bucket wider than the whole sample clamps it.
func TestDefBucketsResolveServingLatency(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 1000; i++ {
		h.Observe(40e-6 + 20e-6*float64(i)/999)
	}
	if q := h.Quantile(0.5); math.Abs(q-50e-6) > 5e-6 {
		t.Fatalf("median = %.1f µs, want 50 ± 5 µs", q*1e6)
	}
}

func TestHistogramCountsAndMean(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4, 5})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-18.0) > 1e-12 {
		t.Fatalf("sum = %g", h.Sum())
	}
	if math.Abs(h.Mean()-3.6) > 1e-12 {
		t.Fatalf("mean = %g", h.Mean())
	}
}

func TestQuantileUniform(t *testing.T) {
	// 1000 uniform samples over (0, 10] into fixed-width buckets: the
	// interpolated quantiles should land close to the true ones.
	h := NewHistogram([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 100) // 0.01 .. 10.00
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 9.9}, {1, 10},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 0.15 {
			t.Fatalf("q%.2f = %g, want ≈%g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileExponentialBuckets(t *testing.T) {
	h := NewHistogram(ExponentialBuckets(0.001, 2, 14))
	for i := 0; i < 100; i++ {
		h.Observe(0.004) // all in (0.002, 0.004]
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.002 || p50 > 0.004 {
		t.Fatalf("p50 = %g outside containing bucket", p50)
	}
	// Clamp: no quantile may exceed the observed max.
	if q := h.Quantile(1); q > 0.004+1e-12 {
		t.Fatalf("p100 = %g > max observation", q)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram(nil) // default buckets
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	h.Observe(0.02)
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) {
		t.Fatal("out-of-range q must be NaN")
	}
	// Single observation: every quantile is that value (clamped).
	if q := h.Quantile(0.5); math.Abs(q-0.02) > 0.01 {
		t.Fatalf("single-sample p50 = %g", q)
	}
	// Observation beyond the last bucket lands in +Inf, clamped to max.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if q := h2.Quantile(0.99); q != 50 {
		t.Fatalf("overflow-bucket quantile = %g, want 50", q)
	}
}

func TestNormalizeBucketsSortsAndDedups(t *testing.T) {
	h := NewHistogram([]float64{3, 1, 2, 2, math.Inf(1)})
	h.Observe(1.5)
	snap := h.snapshotValue()
	// 3 finite bounds + the implicit +Inf bucket.
	if len(snap.Buckets) != 4 {
		t.Fatalf("buckets = %+v", snap.Buckets)
	}
	for i := 1; i < len(snap.Buckets); i++ {
		if snap.Buckets[i].Upper <= snap.Buckets[i-1].Upper {
			t.Fatal("bucket bounds must be strictly ascending")
		}
	}
}

func TestHistogramExpositionLines(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1}, L("path", "/v1/forecast"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{path="/v1/forecast",le="0.1"} 1`,
		`lat_seconds_bucket{path="/v1/forecast",le="1"} 2`,
		`lat_seconds_bucket{path="/v1/forecast",le="+Inf"} 3`,
		`lat_seconds_count{path="/v1/forecast"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
