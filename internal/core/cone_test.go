package core

import (
	"bytes"
	"testing"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/train"
)

// requireServesForward demands that the arena path of m — the receptive
// cone on whatever kernels m holds baked — equals the stage-by-stage
// forward on the weights now in place (every step of every convolution;
// see everyStep) bitwise, on a fresh arena and on a replayed one. The
// reference runs on a clone, which starts unfrozen, so it bakes its
// kernels from those weights and never reads one m has cached.
func requireServesForward(t *testing.T, what string, m *Model, window int) {
	t.Helper()
	x := tensor.RandN(tensor.NewRNG(123), 3, m.Cfg.InChannels, window)
	want := everyStep{m.Clone()}.Forward(x, false)
	arena := nn.NewInferArena()
	for pass := 0; pass < 2; pass++ {
		arena.Reset()
		requireBitwiseEqual(t, what, m.InferForward(arena, x).Data, want.Data)
	}
}

// TestFrozenModelFollowsEveryWeightWriter serves a forecast from a
// published (frozen) model and then moves its weights each way the
// system can — an optimizer step, LoadParams, a fit's best-weight
// restore, fine-tune + hot-swap, rollback swap — checking after each
// that serving still equals the stage-by-stage forward on the weights
// now in place, i.e. that no stale baked kernel survives.
func TestFrozenModelFollowsEveryWeightWriter(t *testing.T) {
	p, series := genPredictor(t)
	win := servingWindows(p, len(series), 1)[0]
	if _, err := p.ForecastFrom(win); err != nil {
		t.Fatal(err)
	}
	w := p.Cfg.Window
	m := p.Model()
	requireServesForward(t, "after Fit", m, w)

	x := tensor.RandN(tensor.NewRNG(5), 4, m.Cfg.InChannels, w)
	nn.ZeroGrad(m)
	y := m.Forward(x, true)
	m.Backward(y)
	opt.NewAdam(1e-2).Step(m.Params())
	requireServesForward(t, "after an optimizer step", m, w)

	var other bytes.Buffer
	if err := nn.SaveParams(&other, NewModel(tensor.NewRNG(99), m.Cfg)); err != nil {
		t.Fatal(err)
	}
	nn.Freeze(m)
	if err := nn.LoadParams(&other, m); err != nil {
		t.Fatal(err)
	}
	requireServesForward(t, "after LoadParams", m, w)

	nn.Freeze(m)
	test := p.serving.Load().test
	train.Fit(m, test, test, train.Config{
		Epochs: 3, BatchSize: 8, Optimizer: opt.NewAdam(1e-2), Loss: &nn.MSELoss{}, RestoreBest: true,
	})
	requireServesForward(t, "after a fit's best-weight restore", m, w)

	cand, eval := swapCandidate(t, p, series)
	prev, prevEval, _, err := p.SwapModel(cand, eval)
	if err != nil {
		t.Fatal(err)
	}
	requireServesForward(t, "after fine-tune + swap", p.Model(), w)
	if _, _, _, err := p.SwapModel(prev, prevEval); err != nil {
		t.Fatal(err)
	}
	requireServesForward(t, "after rollback swap", p.Model(), w)
}

// TestProfiledPredictorServesTheCone: with a Profiler attached every
// stage is timed, and the cone must still match the stage-by-stage
// forward bitwise and count one inference call per stage per forward,
// across a hot-swap's re-profiling.
func TestProfiledPredictorServesTheCone(t *testing.T) {
	prof := nn.NewProfiler()
	series := syntheticSeries(200)
	p := NewPredictor(PredictorConfig{
		Scenario: MulExp, Window: 12, Horizon: 2, ExpandFactor: 2, Epochs: 2, BatchSize: 8, Seed: 9,
		Model:    Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
		Profiler: prof,
	})
	if err := p.Fit(series, 0); err != nil {
		t.Fatal(err)
	}
	serve := func(what string) {
		t.Helper()
		requireServesForward(t, what, p.Model(), p.Cfg.Window)
		prof.Reset()
		const n = 3
		for _, win := range servingWindows(p, len(series), n) {
			if _, err := p.ForecastFrom(win); err != nil {
				t.Fatal(err)
			}
		}
		stats := prof.Stats()
		if len(stats) != 6 { // tcn[0], tcn[1], last, fc, attention, out
			t.Fatalf("%s: %d profiled stages, want 6", what, len(stats))
		}
		for _, s := range stats {
			if s.FwdCalls != n {
				t.Errorf("%s: stage %s counted %d inference calls for %d forecasts", what, s.Name, s.FwdCalls, n)
			}
		}
	}
	serve("profiled")
	cand, eval := swapCandidate(t, p, series)
	if _, _, _, err := p.SwapModel(cand, eval); err != nil {
		t.Fatal(err)
	}
	serve("profiled, after swap")
}

// TestModelSharedByArenasAndBatchSizes is the standing benchmark's replay
// pattern: one serving model driven through ForecastBatch's pooled arenas
// and, in between, directly through a caller's own arenas at other batch
// sizes. Nothing the model caches may belong to one arena or one batch
// size.
func TestModelSharedByArenasAndBatchSizes(t *testing.T) {
	p, series := genPredictor(t)
	m, w := p.Model(), p.Cfg.Window
	win := servingWindows(p, len(series), 1)[0]
	want, err := p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(31)
	arenas := map[int]*nn.InferArena{1: nn.NewInferArena(), 5: nn.NewInferArena()}
	for round := 0; round < 3; round++ {
		for _, batch := range []int{1, 5, 1} {
			x := tensor.RandN(r, batch, m.Cfg.InChannels, w)
			ref := everyStep{m}.Forward(x, false)
			arenas[batch].Reset()
			requireBitwiseEqual(t, "own arena", m.InferForward(arenas[batch], x).Data, ref.Data)
			got, err := p.ForecastFrom(win)
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseEqual(t, "ForecastBatch in between", got, want)
		}
	}
}
