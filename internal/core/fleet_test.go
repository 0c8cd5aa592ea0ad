package core

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/trace"
)

func fleetEntities(n, samples int, seed uint64) [][][]float64 {
	es := trace.Generate(trace.GeneratorConfig{
		Entities: n, Kind: trace.Container, Samples: samples, Seed: seed,
	})
	out := make([][][]float64, n)
	for i, e := range es {
		out[i] = e.Matrix()
	}
	return out
}

func TestFitFleetPoolsEntities(t *testing.T) {
	ents := fleetEntities(3, 600, 61)
	p := NewPredictor(PredictorConfig{
		Scenario: MulExp, Window: 16, Horizon: 1, Epochs: 5, Seed: 1,
		Model: Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16},
	})
	if err := p.FitFleet(ents, int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	rep, err := p.TestMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.MSE) || rep.MSE <= 0 {
		t.Fatalf("fleet MSE = %g", rep.MSE)
	}
	// Pooled test set must cover all three entities' test windows: at
	// least 3× a single entity's test size minus slack.
	truth, _, err := p.TestSeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) < 250 {
		t.Fatalf("pooled test windows = %d, want ~3 entities' worth", len(truth))
	}
	if rep.MSE >= stats.Variance(truth) {
		t.Fatalf("fleet model no better than mean: %g vs %g", rep.MSE, stats.Variance(truth))
	}
}

func TestFitFleetServesAnyEntity(t *testing.T) {
	ents := fleetEntities(2, 600, 62)
	p := NewPredictor(PredictorConfig{
		Scenario: MulExp, Window: 16, Horizon: 2, Epochs: 3, Seed: 2,
		Model: Config{Channels: []int{8}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
	})
	if err := p.FitFleet(ents, int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	// A fresh, unseen entity must be servable.
	fresh := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 120, Seed: 63,
	})[0]
	f, err := p.ForecastFrom(fresh.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 {
		t.Fatalf("forecast = %v", f)
	}
	// Forecast() must also work (uses the last entity's tail).
	if _, err := p.Forecast(); err != nil {
		t.Fatal(err)
	}
}

func TestFitFleetValidation(t *testing.T) {
	p := NewPredictor(PredictorConfig{Window: 16, Epochs: 1})
	if err := p.FitFleet(nil, 0); err == nil {
		t.Fatal("expected error for no entities")
	}
	ents := fleetEntities(2, 600, 64)
	if err := p.FitFleet(ents, 99); err == nil {
		t.Fatal("expected error for bad target")
	}
	ragged := [][][]float64{ents[0], {{1, 2, 3}}}
	if err := p.FitFleet(ragged, 0); err == nil {
		t.Fatal("expected error for mismatched indicator counts")
	}
	tiny := [][][]float64{{{1, 2}, {3, 4}}}
	p2 := NewPredictor(PredictorConfig{Window: 16, Epochs: 1})
	if err := p2.FitFleet(tiny, 0); err == nil {
		t.Fatal("expected error for too-short entity")
	}
}

func TestFitFleetSingleEntityMatchesFitShape(t *testing.T) {
	ents := fleetEntities(1, 600, 65)
	pf := NewPredictor(PredictorConfig{
		Scenario: Mul, Window: 16, Horizon: 1, Epochs: 2, Seed: 3,
		Model: Config{Channels: []int{8}, KernelSize: 3, FCWidth: 8},
	})
	if err := pf.FitFleet(ents, int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	ps := NewPredictor(PredictorConfig{
		Scenario: Mul, Window: 16, Horizon: 1, Epochs: 2, Seed: 3,
		Model: Config{Channels: []int{8}, KernelSize: 3, FCWidth: 8},
	})
	if err := ps.Fit(ents[0], int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	// Same data through both paths: identical screening and channel count.
	if len(pf.SelectedIndicators()) != len(ps.SelectedIndicators()) {
		t.Fatal("fleet screening differs from single-entity screening")
	}
	if pf.Model().Cfg.InChannels != ps.Model().Cfg.InChannels {
		t.Fatal("fleet channels differ from single-entity channels")
	}
}

// TestFitFleetPublishesLikeFit: one entity through FitFleet and through
// Fit trains the same weights, and FitFleet publishes them as Fit does —
// generation 1, the profiler on every stage, a frozen model — so the two
// serve the same bits.
func TestFitFleetPublishesLikeFit(t *testing.T) {
	ents := fleetEntities(1, 600, 66)
	cfg := PredictorConfig{
		Scenario: MulExp, Window: 16, Horizon: 2, Epochs: 2, Seed: 4,
		Model: Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
	}
	fleetProf, fitProf := nn.NewProfiler(), nn.NewProfiler()
	cfg.Profiler = fleetProf
	pf := NewPredictor(cfg)
	if err := pf.FitFleet(ents, int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	cfg.Profiler = fitProf
	ps := NewPredictor(cfg)
	if err := ps.Fit(ents[0], int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	if pf.Generation() != 1 || ps.Generation() != 1 {
		t.Fatalf("generations: FitFleet %d, Fit %d, want 1", pf.Generation(), ps.Generation())
	}
	fleetProf.Reset()
	win := servingWindows(ps, len(ents[0]), 1)[0]
	got, err := pf.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ps.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, "FitFleet vs Fit forecast", got, want)
	stats := fleetProf.Stats()
	if len(stats) != 6 { // tcn[0], tcn[1], last, fc, attention, out
		t.Fatalf("FitFleet profiled %d stages, want 6", len(stats))
	}
	for _, s := range stats {
		if s.FwdCalls != 1 {
			t.Errorf("stage %s counted %d calls for one forecast", s.Name, s.FwdCalls)
		}
	}
	// A frozen model serves its baked conv kernels: kernel weights written
	// behind its back do not reach the forecast.
	for _, prm := range pf.Model().tcn.Params() {
		if prm.Name == "conv.B" {
			continue // biases are read as they stand
		}
		for i := range prm.Value.Data {
			prm.Value.Data[i] *= 1.5
		}
	}
	if again, err := pf.ForecastFrom(win); err != nil || math.Float64bits(again[0]) != math.Float64bits(got[0]) {
		t.Fatalf("FitFleet's model is not frozen: %v then %v (%v)", got, again, err)
	}
}
