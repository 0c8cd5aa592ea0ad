package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMSEKnown(t *testing.T) {
	y := []float64{1, 2, 3}
	yhat := []float64{1, 3, 5}
	if got := MSE(y, yhat); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Fatalf("MSE = %g", got)
	}
}

func TestMAEKnown(t *testing.T) {
	y := []float64{1, 2, 3}
	yhat := []float64{2, 2, 1}
	if got := MAE(y, yhat); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MAE = %g", got)
	}
}

func TestPerfectPredictionIsZeroError(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if MSE(y, y) != 0 || MAE(y, y) != 0 {
		t.Fatal("perfect prediction should have zero error")
	}
}

func TestEmptyInputNaN(t *testing.T) {
	if !math.IsNaN(MSE(nil, nil)) || !math.IsNaN(MAE(nil, nil)) {
		t.Fatal("empty metrics should be NaN")
	}
}

func TestUnequalLengthUsesPrefix(t *testing.T) {
	y := []float64{1, 2, 99}
	yhat := []float64{1, 2}
	if MSE(y, yhat) != 0 {
		t.Fatal("prefix comparison failed")
	}
}

func TestEvaluateBundlesBoth(t *testing.T) {
	r := Evaluate([]float64{1, 2}, []float64{2, 2})
	if r.MSE != 0.5 || r.MAE != 0.5 {
		t.Fatalf("Evaluate = %+v", r)
	}
}

// Property: MSE ≥ MAE² (Jensen) and both are non-negative.
func TestPropertyMSEAtLeastMAESquared(t *testing.T) {
	f := func(seed uint64) bool {
		s := seed | 1
		next := func() float64 {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			return float64((s*0x2545f4914f6cdd1d)>>11)/(1<<53)*2 - 1
		}
		y := make([]float64, 16)
		yhat := make([]float64, 16)
		for i := range y {
			y[i] = next()
			yhat[i] = next()
		}
		mse := MSE(y, yhat)
		mae := MAE(y, yhat)
		return mse >= mae*mae-1e-12 && mse >= 0 && mae >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: metrics are symmetric in (y, yhat).
func TestPropertyMetricsSymmetric(t *testing.T) {
	y := []float64{1, 4, 2, 8}
	yhat := []float64{2, 3, 5, 7}
	if MSE(y, yhat) != MSE(yhat, y) || MAE(y, yhat) != MAE(yhat, y) {
		t.Fatal("MSE/MAE must be symmetric")
	}
}
