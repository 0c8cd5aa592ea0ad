package core

import (
	"fmt"
	"testing"

	"repro/internal/par"
	"repro/internal/train"
)

// genPredictor fits a small MulExp predictor for the swap suite.
func genPredictor(t *testing.T) (*Predictor, [][]float64) {
	t.Helper()
	series := syntheticSeries(200)
	p := NewPredictor(PredictorConfig{
		Scenario:     MulExp,
		Window:       12,
		Horizon:      2,
		ExpandFactor: 2,
		Epochs:       3,
		BatchSize:    8,
		Seed:         9,
		Model:        Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
	})
	if err := p.Fit(series, 0); err != nil {
		t.Fatal(err)
	}
	return p, series
}

// shifted returns the series with a level shift on every indicator —
// enough regime change for a fine-tune to move the weights.
func shifted(series [][]float64, delta float64) [][]float64 {
	out := make([][]float64, len(series))
	for i, row := range series {
		s := make([]float64, len(row))
		for j, v := range row {
			s[j] = v + delta
		}
		out[i] = s
	}
	return out
}

// TestCloneIsIndependent: mutating a clone's weights must not perturb
// the original's forecasts by a single bit.
func TestCloneIsIndependent(t *testing.T) {
	p, series := genPredictor(t)
	win := servingWindows(p, len(series), 1)[0]
	before, err := p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	clone := p.Model().Clone()
	for _, prm := range clone.Params() {
		for i := range prm.Value.Data {
			prm.Value.Data[i] += 0.5
		}
	}
	after, err := p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, "forecast after clone mutation", before, after)
}

// TestSwapModelGenerationsAndRollback walks fit→swap→rollback: the
// generation increments on every swap (rollback included), the swapped
// model's forecasts match what FineTune produced, and rolling back the
// returned previous model restores the generation-1 forecasts bitwise.
func TestSwapModelGenerationsAndRollback(t *testing.T) {
	p, series := genPredictor(t)
	if g := p.Generation(); g != 1 {
		t.Fatalf("generation after Fit = %d, want 1", g)
	}
	win := servingWindows(p, len(series), 1)[0]
	gen1Forecast, err := p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}

	cand, eval, hist, err := p.FineTune(shifted(series, 0.2), FineTuneConfig{Epochs: 2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if hist == nil || len(hist.TrainLoss) == 0 {
		t.Fatal("fine-tune produced no history")
	}
	in, err := p.PrepareInput(win)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := engineForecast(p.NewCandidateInferencer(cand), in)
	if err != nil {
		t.Fatal(err)
	}

	prev, prevEval, gen, err := p.SwapModel(cand, eval)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || p.Generation() != 2 {
		t.Fatalf("generation after swap = %d/%d, want 2", gen, p.Generation())
	}
	gen2Forecast, err := p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	// The shadow inferencer and the serving path must agree bitwise on
	// the promoted model — shadow scores are transferable to serving.
	requireBitwiseEqual(t, "shadow vs serving on candidate", shadow, gen2Forecast)

	// Roll back: the old model serves again, as a NEW generation.
	if _, _, gen, err = p.SwapModel(prev, prevEval); err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("generation after rollback = %d, want 3", gen)
	}
	rolledBack, err := p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, "rollback restores generation-1 forecasts", gen1Forecast, rolledBack)
}

// TestSwapModelRejectsShapeMismatch: a candidate with a different input
// layout must be refused, leaving serving untouched.
func TestSwapModelRejectsShapeMismatch(t *testing.T) {
	p, series := genPredictor(t)
	bad := p.Model().Clone()
	bad.Cfg.InChannels++ // simulate a mismatched architecture
	if _, _, _, err := p.SwapModel(bad, train.Dataset{}); err == nil {
		t.Fatal("shape-mismatched swap accepted")
	}
	if _, _, _, err := p.SwapModel(nil, train.Dataset{}); err == nil {
		t.Fatal("nil swap accepted")
	}
	if p.Generation() != 1 {
		t.Fatalf("failed swaps bumped generation to %d", p.Generation())
	}
	win := servingWindows(p, len(series), 1)[0]
	if _, err := p.ForecastFrom(win); err != nil {
		t.Fatalf("serving broken after refused swap: %v", err)
	}
}

// TestFineTuneDeterministic: same windows + same config ⇒ bitwise
// identical candidate weights and forecasts, run to run.
func TestFineTuneDeterministic(t *testing.T) {
	p, series := genPredictor(t)
	fresh := shifted(series, 0.15)
	cfg := FineTuneConfig{Epochs: 2, Seed: 41}
	a, _, _, err := p.FineTune(fresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := p.FineTune(fresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		requireBitwiseEqual(t, fmt.Sprintf("param %d", i), pa[i].Value.Data, pb[i].Value.Data)
	}
}

// TestPostSwapForecastDeterministicAcrossWorkers pins the acceptance
// criterion: for a fixed generation, forecasts are bitwise identical at
// any worker count (the GOMAXPROCS proxy for the compute kernels).
func TestPostSwapForecastDeterministicAcrossWorkers(t *testing.T) {
	p, series := genPredictor(t)
	cand, eval, _, err := p.FineTune(shifted(series, 0.2), FineTuneConfig{Epochs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.SwapModel(cand, eval); err != nil {
		t.Fatal(err)
	}
	win := servingWindows(p, len(series), 1)[0]
	ref, err := p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		prev := par.SetWorkers(workers)
		got, err := p.ForecastFrom(win)
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, fmt.Sprintf("workers=%d", workers), ref, got)
	}
}

// TestForecastSerializesWithSwap: Forecast reads the serving model under
// the same lock as every other forward, so it can run against a stream
// of promotions and rollbacks (run under -race), and once the original
// weights are back it answers as it did before.
func TestForecastSerializesWithSwap(t *testing.T) {
	p, series := genPredictor(t)
	before, err := p.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	cand, eval, _, err := p.FineTune(shifted(series, 0.2), FineTuneConfig{Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := p.Forecast(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		prev, prevEval, _, err := p.SwapModel(cand, eval)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := p.SwapModel(prev, prevEval); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	after, err := p.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, "Forecast after rollback", before, after)
}
