// Package stats provides the time-series statistics used across the
// repository: Pearson correlation (the paper's eq. 2), autocorrelation
// (Yule–Walker start values for ARIMA), quantiles and boxplot summaries
// (Figs. 2–3), and differencing.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient between x and y
// (eq. 2 of the paper): ρ(X,Y) = E[(X−μX)(Y−μY)] / (σX·σY).
// It returns 0 when either series is constant (undefined correlation).
func Pearson(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n == 0 {
		return 0
	}
	mx := Mean(x[:n])
	my := Mean(y[:n])
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		dy := y[i] - my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// ACF returns the autocorrelation function of xs at lags 0..maxLag.
func ACF(xs []float64, maxLag int) []float64 {
	n := len(xs)
	out := make([]float64, maxLag+1)
	if n == 0 {
		return out
	}
	m := Mean(xs)
	var c0 float64
	for _, v := range xs {
		d := v - m
		c0 += d * d
	}
	if c0 == 0 {
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag && lag < n; lag++ {
		var c float64
		for t := lag; t < n; t++ {
			c += (xs[t] - m) * (xs[t-lag] - m)
		}
		out[lag] = c / c0
	}
	return out
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BoxplotStats summarizes a sample the way Fig. 2 of the paper does:
// quartiles, whiskers at 1.5·IQR, and the mean.
type BoxplotStats struct {
	Min, Q1, Median, Q3, Max float64 // whisker ends and quartiles
	Mean                     float64
	Outliers                 []float64
}

// Boxplot computes BoxplotStats for xs. It panics on an empty slice.
func Boxplot(xs []float64) BoxplotStats {
	if len(xs) == 0 {
		panic("stats: Boxplot of empty slice")
	}
	b := BoxplotStats{
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.50),
		Q3:     Quantile(xs, 0.75),
		Mean:   Mean(xs),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.Min = math.Inf(1)
	b.Max = math.Inf(-1)
	for _, v := range xs {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
	}
	// All points were outliers (degenerate); fall back to raw extremes.
	if math.IsInf(b.Min, 1) {
		b.Min = Quantile(xs, 0)
		b.Max = Quantile(xs, 1)
	}
	return b
}

// Diff returns the d-th order difference of xs. The result has
// len(xs) − d elements.
func Diff(xs []float64, d int) []float64 {
	out := append([]float64(nil), xs...)
	for k := 0; k < d; k++ {
		if len(out) <= 1 {
			return nil
		}
		next := make([]float64, len(out)-1)
		for i := 1; i < len(out); i++ {
			next[i-1] = out[i] - out[i-1]
		}
		out = next
	}
	return out
}

// FractionBelow returns the fraction of xs strictly below threshold
// (the Fig. 3 statistic: % machines with CPU < 50%).
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, v := range xs {
		if v < threshold {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}
