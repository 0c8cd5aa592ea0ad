package sketch

import (
	"math"
	"sort"
	"testing"
)

// exactQuantile is the reference: sorted-order linear-rank quantile.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := q * float64(len(sorted)-1)
	i := int(r)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := r - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// rankOf returns the fraction of values ≤ v.
func rankOf(sorted []float64, v float64) float64 {
	return float64(sort.SearchFloat64s(sorted, v)) / float64(len(sorted))
}

func TestTDigestEmptyAndEdgeQuantiles(t *testing.T) {
	d := NewTDigest(64)
	if !math.IsNaN(d.Quantile(0.5)) || !math.IsNaN(d.Max()) {
		t.Fatal("empty digest should report NaN")
	}
	if !math.IsNaN(d.Quantile(-0.1)) || !math.IsNaN(d.Quantile(1.1)) || !math.IsNaN(d.Quantile(math.NaN())) {
		t.Fatal("out-of-range q should report NaN")
	}
	d.Add(3)
	d.Add(math.NaN()) // dropped
	d.Add(math.Inf(1))
	if d.Count() != 1 {
		t.Fatalf("count = %d after non-finite adds, want 1", d.Count())
	}
	if d.Quantile(0) != 3 || d.Quantile(1) != 3 || d.Quantile(0.5) != 3 {
		t.Fatalf("single-value quantiles = %v %v %v", d.Quantile(0), d.Quantile(1), d.Quantile(0.5))
	}
}

func TestTDigestRankAccuracy(t *testing.T) {
	// Log-normal-ish latencies: the shape where naive bucket quantiles
	// fail and the t-digest's tail resolution matters.
	rng := lcg(3)
	const n = 200000
	d := NewTDigest(64)
	values := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Box–Muller from two uniforms.
		u1, u2 := rng.float(), rng.float()
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		v := math.Exp(0.8 * z) // heavy right tail
		values = append(values, v)
		d.Add(v)
	}
	sort.Float64s(values)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		est := d.Quantile(q)
		gotRank := rankOf(values, est)
		// k1 scale bound: rank error ≲ 4·q(1-q)/δ; allow 2x slack for
		// interpolation.
		bound := 8 * q * (1 - q) / 64
		if bound < 0.001 {
			bound = 0.001
		}
		if math.Abs(gotRank-q) > bound {
			t.Errorf("q=%v: estimate %v has rank %v (err %v > bound %v)",
				q, est, gotRank, math.Abs(gotRank-q), bound)
		}
	}
	if d.Quantile(0) != values[0] || d.Quantile(1) != values[n-1] {
		t.Errorf("extremes not exact: %v/%v vs %v/%v",
			d.Quantile(0), d.Quantile(1), values[0], values[n-1])
	}
}

func TestTDigestBoundedSize(t *testing.T) {
	d := NewTDigest(64)
	rng := lcg(9)
	for i := 0; i < 500000; i++ {
		d.Add(rng.float() * 100)
	}
	// k1 with δ=64 keeps well under 2δ centroids.
	if c := centroids(d); c > 128 {
		t.Fatalf("centroids = %d after 500k adds, want ≤ 128", c)
	}
}

func TestTDigestDeterministicForFixedOrder(t *testing.T) {
	run := func() (float64, float64, float64, int) {
		d := NewTDigest(64)
		rng := lcg(11)
		for i := 0; i < 100000; i++ {
			d.Add(rng.float() * 10)
		}
		return d.Quantile(0.5), d.Quantile(0.9), d.Quantile(0.99), centroids(d)
	}
	p50a, p90a, p99a, ca := run()
	p50b, p90b, p99b, cb := run()
	if p50a != p50b || p90a != p90b || p99a != p99b || ca != cb {
		t.Fatalf("same input order diverged: (%v %v %v %d) vs (%v %v %v %d)",
			p50a, p90a, p99a, ca, p50b, p90b, p99b, cb)
	}
}

// centroids returns the merged centroid count after compacting the buffer.
func centroids(d *TDigest) int {
	d.compact()
	return len(d.means)
}
