package arima

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// xorshift noise for reproducible synthetic series.
type rng struct{ s uint64 }

func (r *rng) uniform() float64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return float64((r.s*0x2545f4914f6cdd1d)>>11) / (1 << 53)
}

func (r *rng) norm() float64 {
	u1 := r.uniform() + 1e-12
	u2 := r.uniform()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func genAR1(n int, phi, c, sigma float64, seed uint64) []float64 {
	r := &rng{s: seed}
	xs := make([]float64, n)
	for t := 1; t < n; t++ {
		xs[t] = c + phi*xs[t-1] + sigma*r.norm()
	}
	return xs
}

func TestFitRecoversAR1Coefficient(t *testing.T) {
	xs := genAR1(4000, 0.7, 0, 1, 1)
	m, err := Fit(xs, Config{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.7) > 0.05 {
		t.Fatalf("AR coefficient = %g, want ≈ 0.7", m.AR[0])
	}
}

func TestFitRecoversMA1Coefficient(t *testing.T) {
	// x_t = e_t + 0.5 e_{t-1}
	r := &rng{s: 2}
	n := 4000
	e := make([]float64, n)
	xs := make([]float64, n)
	for t := 0; t < n; t++ {
		e[t] = r.norm()
		xs[t] = e[t]
		if t > 0 {
			xs[t] += 0.5 * e[t-1]
		}
	}
	m, err := Fit(xs, Config{P: 0, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MA[0]-0.5) > 0.08 {
		t.Fatalf("MA coefficient = %g, want ≈ 0.5", m.MA[0])
	}
}

func TestFitRejectsBadConfig(t *testing.T) {
	xs := genAR1(100, 0.5, 0, 1, 3)
	if _, err := Fit(xs, Config{P: 0, D: 0, Q: 0}); err == nil {
		t.Fatal("expected error for p=q=0")
	}
	if _, err := Fit(xs, Config{P: -1, D: 0, Q: 0}); err == nil {
		t.Fatal("expected error for negative order")
	}
	if _, err := Fit(xs[:5], Config{P: 3, D: 0, Q: 3}); err == nil {
		t.Fatal("expected error for short series")
	}
}

func TestForecastConvergesToUnconditionalMean(t *testing.T) {
	// AR(1) with intercept c has mean c/(1−φ); long-horizon forecasts must
	// approach it.
	xs := genAR1(3000, 0.6, 1.0, 0.5, 4) // mean = 2.5
	m, err := Fit(xs, Config{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	f := m.Forecast(200)
	if math.Abs(f[199]-2.5) > 0.3 {
		t.Fatalf("long-horizon forecast = %g, want ≈ 2.5", f[199])
	}
}

func TestForecastLengthAndNonNegativeHorizon(t *testing.T) {
	xs := genAR1(300, 0.5, 0, 1, 5)
	m, _ := Fit(xs, Config{P: 1, D: 0, Q: 0})
	if got := m.Forecast(7); len(got) != 7 {
		t.Fatalf("Forecast length = %d", len(got))
	}
	if m.Forecast(0) != nil || m.Forecast(-1) != nil {
		t.Fatal("non-positive horizon must return nil")
	}
}

func TestDifferencingHandlesLinearTrend(t *testing.T) {
	// A deterministic trend plus AR noise: d=1 should track the trend.
	r := &rng{s: 6}
	n := 1000
	xs := make([]float64, n)
	for t := 0; t < n; t++ {
		xs[t] = 0.05*float64(t) + 0.3*r.norm()
	}
	m, err := Fit(xs, Config{P: 1, D: 1, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	f := m.Forecast(10)
	// Ten steps ahead should be ≈ 0.05·(n+9).
	want := 0.05 * float64(n+9)
	if math.Abs(f[9]-want) > 1.0 {
		t.Fatalf("trend forecast = %g, want ≈ %g", f[9], want)
	}
}

func TestRollingForecastBeatsMeanOnAR(t *testing.T) {
	xs := genAR1(2000, 0.85, 0, 1, 7)
	trainN := 1600
	m, err := Fit(xs[:trainN], Config{P: 2, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds := m.RollingForecast(xs[trainN:])
	mseModel := metrics.MSE(xs[trainN:], preds)
	meanPred := make([]float64, len(xs)-trainN)
	mseMean := metrics.MSE(xs[trainN:], meanPred) // mean of the process is 0
	if mseModel >= mseMean {
		t.Fatalf("ARIMA rolling MSE %g not better than mean baseline %g", mseModel, mseMean)
	}
	// Theoretical one-step MSE is σ²=1; allow generous slack.
	if mseModel > 1.4 {
		t.Fatalf("rolling MSE %g too large for AR(1) with σ=1", mseModel)
	}
}

func TestOneStepThenUpdateConsistency(t *testing.T) {
	xs := genAR1(500, 0.5, 0, 1, 8)
	m, _ := Fit(xs[:400], Config{P: 1, D: 0, Q: 1})
	p1 := m.OneStep()
	p2 := m.OneStep() // repeated call without Update must not advance state
	if p1 != p2 {
		t.Fatal("OneStep must be idempotent until Update")
	}
	m.Update(xs[400])
	p3 := m.OneStep()
	if p3 == p1 && xs[400] != p1 {
		t.Fatal("Update did not advance the model state")
	}
}

func TestUpdateWithoutOneStepIsSafe(t *testing.T) {
	xs := genAR1(500, 0.5, 0, 1, 9)
	m, _ := Fit(xs[:400], Config{P: 1, D: 0, Q: 0})
	m.Update(xs[400]) // must implicitly compute the prediction
	f := m.Forecast(1)
	if math.IsNaN(f[0]) {
		t.Fatal("NaN after Update without OneStep")
	}
}

func TestRollingForecastWithDifferencing(t *testing.T) {
	// Random walk with drift: ARIMA(0,1,1)/(1,1,0) style models should
	// produce finite, tracking forecasts.
	r := &rng{s: 10}
	n := 1200
	xs := make([]float64, n)
	for t := 1; t < n; t++ {
		xs[t] = xs[t-1] + 0.1 + 0.5*r.norm()
	}
	m, err := Fit(xs[:1000], Config{P: 1, D: 1, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	preds := m.RollingForecast(xs[1000:])
	mae := metrics.MAE(xs[1000:], preds)
	if math.IsNaN(mae) || mae > 1.5 {
		t.Fatalf("rolling MAE on random walk = %g", mae)
	}
}

// stableAR draws AR(p) coefficients of a stationary process: partial
// autocorrelations uniform in (-0.9, 0.9), stepped up by Durbin's recursion.
func stableAR(r *rng, p int) []float64 {
	phi := make([]float64, 0, p)
	for k := 0; k < p; k++ {
		kappa := 1.8*r.uniform() - 0.9
		next := make([]float64, k+1)
		for j := 0; j < k; j++ {
			next[j] = phi[j] - kappa*phi[k-1-j]
		}
		next[k] = kappa
		phi = next
	}
	return phi
}

// genAR simulates x_t = Σ φ_j x_{t-j} + e_t with unit innovations.
func genAR(n int, phi []float64, seed uint64) []float64 {
	r := &rng{s: seed}
	xs := make([]float64, n)
	for t := range xs {
		x := r.norm()
		for j, f := range phi {
			if t > j {
				x += f * xs[t-1-j]
			}
		}
		xs[t] = x
	}
	return xs
}

// TestSolveToeplitzResidual holds Levinson–Durbin to the system it solves:
// for the autocorrelations of random stable AR(p) series, p = 1…6, the dense
// Toeplitz matrix built here times the solution reproduces b — the
// Yule–Walker right-hand side and a random one — to 1e-10 of its scale.
func TestSolveToeplitzResidual(t *testing.T) {
	r := &rng{s: 5}
	for p := 1; p <= 6; p++ {
		for trial := 0; trial < 10; trial++ {
			acf := stats.ACF(genAR(2000, stableAR(r, p), uint64(100*p+trial+1)), p)
			random := make([]float64, p)
			for i := range random {
				random[i] = r.norm()
			}
			for _, b := range [][]float64{acf[1:], random} {
				x, err := solveToeplitz(acf[:p], b)
				if err != nil {
					t.Fatalf("p=%d trial %d: %v", p, trial, err)
				}
				var res, scale float64
				for i := 0; i < p; i++ {
					tx := 0.0
					for j := 0; j < p; j++ {
						d := i - j
						if d < 0 {
							d = -d
						}
						tx += acf[d] * x[j]
					}
					res = math.Max(res, math.Abs(tx-b[i]))
					scale = math.Max(scale, math.Abs(b[i]))
				}
				if res > 1e-10*scale {
					t.Fatalf("p=%d trial %d: max|T·x − b| = %g, max|b| = %g", p, trial, res, scale)
				}
			}
		}
	}
}

func TestSolveToeplitzSingular(t *testing.T) {
	if _, err := solveToeplitz([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("expected error for zero diagonal")
	}
}

// TestFitAgreesWithYuleWalker: on pure AR(1) and AR(2) series the CSS fit
// refined by Nelder–Mead lands within 0.05 of the Yule–Walker estimate it
// starts from.
func TestFitAgreesWithYuleWalker(t *testing.T) {
	for i, phi := range [][]float64{{0.7}, {-0.4}, {0.5, 0.3}, {1.2, -0.5}} {
		xs := genAR(2000, phi, uint64(31+i))
		m, err := Fit(xs, Config{P: len(phi)})
		if err != nil {
			t.Fatal(err)
		}
		yw, err := yuleWalker(xs, len(phi))
		if err != nil {
			t.Fatal(err)
		}
		for j := range phi {
			if math.Abs(m.AR[j]-yw[j]) > 0.05 {
				t.Errorf("AR%v: CSS φ = %v, Yule–Walker φ = %v", phi, m.AR, yw)
				break
			}
		}
	}
}
