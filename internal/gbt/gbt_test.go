package gbt

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

func makeRegression(n int, seed uint64, f func(x []float64) float64) ([][]float64, []float64) {
	r := tensor.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		y[i] = f(X[i])
	}
	return X, y
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, nil, Config{}); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("expected error on size mismatch")
	}
}

func TestFitsStepFunction(t *testing.T) {
	// Trees excel at axis-aligned steps: y = 1 if x0 > 0.5 else 0.
	X, y := makeRegression(500, 1, func(x []float64) float64 {
		if x[0] > 0.5 {
			return 1
		}
		return 0
	})
	m, err := Fit(X, y, Config{Rounds: 50, MaxDepth: 3, LearningRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	preds := m.PredictBatch(X)
	if mse := metrics.MSE(y, preds); mse > 1e-3 {
		t.Fatalf("MSE on step function = %g", mse)
	}
}

func TestFitsAdditiveFunction(t *testing.T) {
	X, y := makeRegression(800, 2, func(x []float64) float64 {
		return 2*x[0] + math.Sin(4*x[1])
	})
	m, err := Fit(X, y, Config{Rounds: 200, MaxDepth: 4, LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	Xte, yte := makeRegression(200, 3, func(x []float64) float64 {
		return 2*x[0] + math.Sin(4*x[1])
	})
	if mse := metrics.MSE(yte, m.PredictBatch(Xte)); mse > 0.02 {
		t.Fatalf("test MSE = %g", mse)
	}
}

func TestConstantTargetGivesConstantPrediction(t *testing.T) {
	X, y := makeRegression(100, 4, func([]float64) float64 { return 3.5 })
	m, err := Fit(X, y, Config{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.PredictBatch(X) {
		if math.Abs(p-3.5) > 1e-9 {
			t.Fatalf("prediction %g, want 3.5", p)
		}
	}
}

func TestBaseIsTrainingMean(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{1, 2, 3, 6}
	m, err := Fit(X, y, Config{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Base != 3 {
		t.Fatalf("Base = %g, want 3", m.Base)
	}
}

func TestMoreRoundsReduceTrainingLoss(t *testing.T) {
	X, y := makeRegression(400, 5, func(x []float64) float64 {
		return x[0]*x[1] + x[2]
	})
	m, err := Fit(X, y, Config{Rounds: 100, MaxDepth: 3, LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	losses := m.StagedLoss(X, y)
	if len(losses) != 100 {
		t.Fatalf("staged losses = %d", len(losses))
	}
	if losses[99] >= losses[9] {
		t.Fatalf("boosting did not reduce loss: %g -> %g", losses[9], losses[99])
	}
	// Monotone non-increasing within tolerance for squared loss with shrinkage.
	for i := 1; i < len(losses); i++ {
		if losses[i] > losses[i-1]*1.05 {
			t.Fatalf("loss jumped at round %d: %g -> %g", i, losses[i-1], losses[i])
		}
	}
}

func TestGammaPrunesSplits(t *testing.T) {
	// With an enormous γ no split is worth making: every tree is a single
	// leaf and, since leaves then predict −G/(H+λ) of the full sample, the
	// model stays near the mean.
	X, y := makeRegression(200, 6, func(x []float64) float64 { return x[0] })
	strong, err := Fit(X, y, Config{Rounds: 20, Gamma: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	weakSpread := 0.0
	preds := strong.PredictBatch(X)
	for _, p := range preds {
		if d := math.Abs(p - strong.Base); d > weakSpread {
			weakSpread = d
		}
	}
	if weakSpread > 0.05 {
		t.Fatalf("γ=1e9 still produced varied predictions (spread %g)", weakSpread)
	}
}

func TestMinChildWeightLimitsLeafSize(t *testing.T) {
	X, y := makeRegression(100, 7, func(x []float64) float64 { return x[0] })
	// MinChildWeight = 60 means no child can have fewer than 60 samples
	// (hessian 1 each), so no split of 100 rows is feasible except 60/40 —
	// actually none, since both children need ≥ 60. Trees must be stumps
	// predicting ~0 residual after round 1.
	m, err := Fit(X, y, Config{Rounds: 5, MinChildWeight: 60})
	if err != nil {
		t.Fatal(err)
	}
	preds := m.PredictBatch(X)
	for _, p := range preds {
		if math.Abs(p-m.Base) > 0.05 {
			t.Fatal("min_child_weight failed to suppress splits")
		}
	}
}

func TestSubsamplingStillLearns(t *testing.T) {
	X, y := makeRegression(600, 8, func(x []float64) float64 { return 3 * x[1] })
	m, err := Fit(X, y, Config{
		Rounds: 150, MaxDepth: 3, LearningRate: 0.1,
		Subsample: 0.7, ColSample: 0.7, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mse := metrics.MSE(y, m.PredictBatch(X)); mse > 0.02 {
		t.Fatalf("subsampled model MSE = %g", mse)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	X, y := makeRegression(200, 10, func(x []float64) float64 { return x[0] + x[2] })
	cfg := Config{Rounds: 30, Subsample: 0.8, ColSample: 0.8, Seed: 42}
	m1, _ := Fit(X, y, cfg)
	m2, _ := Fit(X, y, cfg)
	p1 := m1.PredictBatch(X)
	p2 := m2.PredictBatch(X)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestLearningRateShrinkage(t *testing.T) {
	X, y := makeRegression(300, 11, func(x []float64) float64 { return x[0] })
	fast, _ := Fit(X, y, Config{Rounds: 5, LearningRate: 0.5})
	slow, _ := Fit(X, y, Config{Rounds: 5, LearningRate: 0.01})
	mseFast := metrics.MSE(y, fast.PredictBatch(X))
	mseSlow := metrics.MSE(y, slow.PredictBatch(X))
	if mseFast >= mseSlow {
		t.Fatalf("after 5 rounds, η=0.5 (%g) should beat η=0.01 (%g)", mseFast, mseSlow)
	}
}

func TestNTrees(t *testing.T) {
	X, y := makeRegression(50, 12, func(x []float64) float64 { return x[0] })
	m, _ := Fit(X, y, Config{Rounds: 17})
	if len(m.trees) != 17 {
		t.Fatalf("%d trees, want 17", len(m.trees))
	}
}
