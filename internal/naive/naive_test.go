package naive

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

func TestPersistence(t *testing.T) {
	p := &Persistence{}
	if err := p.Fit(nil); err == nil {
		t.Fatal("expected error on empty series")
	}
	if err := p.Fit([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if p.OneStep() != 3 {
		t.Fatalf("OneStep = %g", p.OneStep())
	}
	p.Update(7)
	if p.OneStep() != 7 {
		t.Fatal("Update did not advance")
	}
	f := p.Forecast(3)
	if len(f) != 3 || f[0] != 7 || f[2] != 7 {
		t.Fatalf("Forecast = %v", f)
	}
}

func TestDriftExtrapolatesTrend(t *testing.T) {
	d := &Drift{}
	if err := d.Fit([]float64{5}); err == nil {
		t.Fatal("expected error on 1-point series")
	}
	// Perfect line y = 2t: slope 2.
	if err := d.Fit([]float64{0, 2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	if got := d.OneStep(); math.Abs(got-8) > 1e-12 {
		t.Fatalf("OneStep = %g, want 8", got)
	}
	f := d.Forecast(3)
	if math.Abs(f[2]-12) > 1e-12 {
		t.Fatalf("Forecast = %v", f)
	}
	d.Update(8)
	if got := d.OneStep(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("after update OneStep = %g, want 10", got)
	}
}

func TestMovingAverageWindow(t *testing.T) {
	m := &MovingAverage{Window: 3}
	if err := m.Fit([]float64{2, 4, 6, 8}); err != nil {
		t.Fatal(err)
	}
	if got := m.OneStep(); math.Abs(got-6) > 1e-12 { // mean(4,6,8)
		t.Fatalf("OneStep = %g, want 6", got)
	}
	m.Update(10) // window now 6,8,10
	if got := m.OneStep(); math.Abs(got-8) > 1e-12 {
		t.Fatalf("after update = %g, want 8", got)
	}
	if err := (&MovingAverage{Window: 0}).Fit([]float64{1}); err == nil {
		t.Fatal("expected error for window 0")
	}
}

func TestMovingAveragePartialFill(t *testing.T) {
	m := &MovingAverage{Window: 5}
	if err := m.Fit([]float64{3, 5}); err != nil {
		t.Fatal(err)
	}
	if got := m.OneStep(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("partial window mean = %g, want 4", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := &EWMA{Alpha: 0.5}
	if err := e.Fit([]float64{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e.Update(10)
	}
	if math.Abs(e.OneStep()-10) > 1e-6 {
		t.Fatalf("EWMA level = %g, want ≈ 10", e.OneStep())
	}
	if err := (&EWMA{Alpha: 0}).Fit([]float64{1}); err == nil {
		t.Fatal("expected error for alpha 0")
	}
	if err := (&EWMA{Alpha: 1.5}).Fit([]float64{1}); err == nil {
		t.Fatal("expected error for alpha > 1")
	}
}

func TestEWMAAlphaOneIsPersistence(t *testing.T) {
	e := &EWMA{Alpha: 1}
	if err := e.Fit([]float64{1, 5, 9}); err != nil {
		t.Fatal(err)
	}
	if e.OneStep() != 9 {
		t.Fatalf("alpha=1 EWMA = %g, want 9", e.OneStep())
	}
}

func TestHoltTracksLinearTrend(t *testing.T) {
	ho := &Holt{Alpha: 0.8, Beta: 0.8}
	series := make([]float64, 50)
	for i := range series {
		series[i] = 3 * float64(i)
	}
	if err := ho.Fit(series); err != nil {
		t.Fatal(err)
	}
	if got := ho.OneStep(); math.Abs(got-150) > 1 {
		t.Fatalf("Holt one-step = %g, want ≈ 150", got)
	}
	f := ho.Forecast(10)
	if math.Abs(f[9]-177) > 3 {
		t.Fatalf("Holt 10-step = %g, want ≈ 177", f[9])
	}
}

func TestHoltValidation(t *testing.T) {
	if err := (&Holt{Alpha: 0.5, Beta: 0}).Fit([]float64{1, 2}); err == nil {
		t.Fatal("expected error for beta 0")
	}
	if err := (&Holt{Alpha: 0.5, Beta: 0.5}).Fit([]float64{1}); err == nil {
		t.Fatal("expected error for short series")
	}
}

func TestRollingForecastBeatsRandomOnAR(t *testing.T) {
	// Persistence on a smooth AR(1) should have low error.
	s := uint64(7)
	next := func() float64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return float64((s*0x2545f4914f6cdd1d)>>11)/(1<<53) - 0.5
	}
	series := make([]float64, 1000)
	for i := 1; i < len(series); i++ {
		series[i] = 0.98*series[i-1] + 0.05*next()
	}
	p := &Persistence{}
	if err := p.Fit(series[:800]); err != nil {
		t.Fatal(err)
	}
	preds := RollingForecast(p, series[800:])
	if mse := metrics.MSE(series[800:], preds); mse > 0.001 {
		t.Fatalf("persistence MSE on smooth AR = %g", mse)
	}
}

func TestAllForecastersImplementInterface(t *testing.T) {
	fs := []Forecaster{
		&Persistence{}, &Drift{},
		&MovingAverage{Window: 2}, &EWMA{Alpha: 0.5}, &Holt{Alpha: 0.5, Beta: 0.5},
	}
	series := []float64{1, 2, 3, 4, 5, 6}
	for _, f := range fs {
		if err := f.Fit(series); err != nil {
			t.Fatalf("%T: %v", f, err)
		}
		if got := f.Forecast(4); len(got) != 4 {
			t.Fatalf("%T Forecast length %d", f, len(got))
		}
		preds := RollingForecast(f, []float64{7, 8})
		if len(preds) != 2 {
			t.Fatalf("%T rolling length %d", f, len(preds))
		}
	}
}
