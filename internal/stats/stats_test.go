package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %g", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %g", Variance(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pearson = %g, want 1", got)
	}
	yNeg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yNeg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Pearson = %g, want -1", got)
	}
}

func TestPearsonConstantSeriesIsZero(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	y := []float64{1, 2, 3, 4}
	if got := Pearson(x, y); got != 0 {
		t.Fatalf("Pearson with constant series = %g, want 0", got)
	}
}

func TestPearsonUnequalLengthsUsesPrefix(t *testing.T) {
	x := []float64{1, 2, 3, 999}
	y := []float64{2, 4, 6}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pearson prefix = %g, want 1", got)
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestPropertyPearsonSymmetricBounded(t *testing.T) {
	f := func(seed uint64) bool {
		r := seed | 1
		next := func() float64 {
			r ^= r >> 12
			r ^= r << 25
			r ^= r >> 27
			return float64((r*0x2545f4914f6cdd1d)>>11) / (1 << 53)
		}
		x := make([]float64, 32)
		y := make([]float64, 32)
		for i := range x {
			x[i] = next()
			y[i] = next()
		}
		a := Pearson(x, y)
		b := Pearson(y, x)
		return math.Abs(a-b) < 1e-12 && a >= -1-1e-12 && a <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is invariant under positive affine transforms.
func TestPropertyPearsonAffineInvariant(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	y := []float64{2, 7, 1, 8, 2, 8, 1, 8}
	base := Pearson(x, y)
	scaled := make([]float64, len(x))
	for i, v := range x {
		scaled[i] = 3*v + 10
	}
	if got := Pearson(scaled, y); math.Abs(got-base) > 1e-12 {
		t.Fatalf("affine transform changed Pearson: %g vs %g", got, base)
	}
}

func TestACFLagZeroIsOne(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4, 6, 5, 8}
	acf := ACF(xs, 3)
	if math.Abs(acf[0]-1) > 1e-12 {
		t.Fatalf("ACF[0] = %g, want 1", acf[0])
	}
	for _, v := range acf {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Fatalf("ACF out of bounds: %v", acf)
		}
	}
}

func TestACFOfAR1IsGeometric(t *testing.T) {
	// x_t = 0.8 x_{t-1} + e_t gives acf(k) ≈ 0.8^k for long series.
	const phi = 0.8
	r := uint64(99)
	next := func() float64 {
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		u1 := float64((r*0x2545f4914f6cdd1d)>>11)/(1<<53) + 1e-12
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		u2 := float64((r*0x2545f4914f6cdd1d)>>11) / (1 << 53)
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
	n := 20000
	xs := make([]float64, n)
	for t := 1; t < n; t++ {
		xs[t] = phi*xs[t-1] + next()
	}
	acf := ACF(xs, 3)
	for k := 1; k <= 3; k++ {
		want := math.Pow(phi, float64(k))
		if math.Abs(acf[k]-want) > 0.05 {
			t.Fatalf("ACF[%d] = %g, want ≈ %g", k, acf[k], want)
		}
	}
}

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
	// Order must not matter.
	if got := Quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("median of unsorted = %g", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestBoxplotQuartilesOrdered(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := Boxplot(xs)
	if !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max) {
		t.Fatalf("quartiles out of order: %+v", b)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("expected 100 flagged as outlier, got %v", b.Outliers)
	}
}

func TestDiffOrderTwo(t *testing.T) {
	// Second difference of a quadratic is constant.
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i * i)
	}
	d1 := Diff(xs, 1)
	for i, v := range d1 {
		if v != float64(2*i+1) {
			t.Fatalf("first difference of i² = %v, want 2i+1", d1)
		}
	}
	d2 := Diff(xs, 2)
	for _, v := range d2 {
		if v != 2 {
			t.Fatalf("second difference of i² = %v, want all 2s", d2)
		}
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{0.1, 0.4, 0.5, 0.9}
	if got := FractionBelow(xs, 0.5); got != 0.5 {
		t.Fatalf("FractionBelow = %g, want 0.5", got)
	}
	if FractionBelow(nil, 1) != 0 {
		t.Fatal("empty FractionBelow should be 0")
	}
}

// Property: quantile is monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	xs := []float64{9, 3, 7, 1, 8, 2, 6, 4, 5}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := Quantile(xs, q)
		if v < prev-1e-12 {
			t.Fatalf("Quantile not monotone at q=%g", q)
		}
		prev = v
	}
}
