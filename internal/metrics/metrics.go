// Package metrics implements the evaluation metrics of the paper
// (MSE, eq. 9; MAE, eq. 10).
package metrics

import "math"

// MSE returns the mean squared error between truth y and prediction yhat.
// Only the common prefix of the two slices is compared; it returns NaN for
// empty input.
func MSE(y, yhat []float64) float64 {
	n := minLen(y, yhat)
	if n == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := y[i] - yhat[i]
		s += d * d
	}
	return s / float64(n)
}

// MAE returns the mean absolute error.
func MAE(y, yhat []float64) float64 {
	n := minLen(y, yhat)
	if n == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Abs(y[i] - yhat[i])
	}
	return s / float64(n)
}

func minLen(a, b []float64) int {
	if len(a) < len(b) {
		return len(a)
	}
	return len(b)
}

// Report bundles the two paper metrics for one evaluation.
type Report struct {
	MSE float64
	MAE float64
}

// Evaluate computes a Report for (y, yhat).
func Evaluate(y, yhat []float64) Report {
	return Report{MSE: MSE(y, yhat), MAE: MAE(y, yhat)}
}
