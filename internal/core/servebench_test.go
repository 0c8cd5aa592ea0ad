package core

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// servingPredictor is the shared fixture for the serving-path benchmarks:
// a fitted RPTCN predictor plus 32 prepared request windows.
func servingPredictor(b *testing.B) (*Predictor, []*PreparedInput) {
	series := syntheticSeries(200)
	p := NewPredictor(PredictorConfig{
		Scenario:  Mul,
		Window:    32,
		Horizon:   1,
		Epochs:    1,
		BatchSize: 16,
		Seed:      4,
		Model:     Config{Channels: []int{16, 16, 16}, KernelSize: 3, WeightNorm: true},
	})
	if err := p.Fit(series, 0); err != nil {
		b.Fatal(err)
	}
	wins := servingWindows(p, len(series), 32)
	inputs := make([]*PreparedInput, len(wins))
	for i, w := range wins {
		in, err := p.PrepareInput(w)
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = in
	}
	return p, inputs
}

// BenchmarkServingBatchedArena32 is 32 requests fused into one
// grad-free arena forward.
func BenchmarkServingBatchedArena32(b *testing.B) {
	p, inputs := servingPredictor(b)
	if _, err := p.ForecastBatch(inputs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ForecastBatch(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// lastStepModel is the standing benchmark's serving model — 12 input
// channels into 16/16/16 temporal blocks, k=3, d=1/2/4, window 32,
// weight norm on — published the way Fit publishes one, plus a batch of
// random windows.
func lastStepModel(batch int) (*Model, *tensor.Tensor) {
	r := tensor.NewRNG(9)
	m := NewModel(r, Config{InChannels: 12, Channels: []int{16, 16, 16}, KernelSize: 3, WeightNorm: true, Horizon: 5})
	nn.Freeze(m)
	return m, tensor.RandN(r, batch, 12, 32)
}

func benchInferLastStep(b *testing.B, batch int) {
	m, x := lastStepModel(batch)
	arena := nn.NewInferArena()
	m.InferForward(arena, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		m.InferForward(arena, x)
	}
}

// BenchmarkInferLastStep* time the model forward alone — the cone under
// LastStep on frozen kernels — at the two batch sizes serving sees.
func BenchmarkInferLastStepB1(b *testing.B)  { benchInferLastStep(b, 1) }
func BenchmarkInferLastStepB32(b *testing.B) { benchInferLastStep(b, 32) }

// BenchmarkInferStreamStep is the ingest-one/forecast-one pattern through
// an engine, on the standing benchmark's serving model (Mul-Exp, 12
// channels into 16/16/16 blocks, k=3, d=1/2/4, window 32): each op moves
// the entity's ring on by one sample and reads its forecast, which is a
// miss of the stored forecast, a PrepareInput of the window, a batch-1
// forward and the store. It is what an advance by one sample would cut.
func BenchmarkInferStreamStep(b *testing.B) {
	p, raw := streamPredictor(b, PredictorConfig{Scenario: MulExp, Window: 32,
		Model: Config{Channels: []int{16, 16, 16}, KernelSize: 3, Dilations: []int{1, 2, 4}, WeightNorm: true, FCWidth: 32}})
	si := p.NewShardInferencer()
	mh := p.MinHistory()
	var slot any
	total := mh
	win := make([][]float64, len(raw))
	window := func() [][]float64 { // the ring's views of its last mh samples
		for i, s := range raw {
			win[i] = s[total-mh : total]
		}
		return win
	}
	streamRead(si, window(), total, &slot)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if total++; total > len(raw[0]) {
			total = mh + 1
		}
		if _, o, err := streamRead(si, window(), total, &slot); err != nil || o != StreamRefill {
			b.Fatal(o, err)
		}
	}
}

// trainStepModel is the standing benchmark's model as Fit sees it: not
// frozen, spatial dropout on.
func trainStepModel(batch int) (*Model, *tensor.Tensor) {
	r := tensor.NewRNG(9)
	m := NewModel(r, Config{InChannels: 12, Channels: []int{16, 16, 16}, KernelSize: 3, Dropout: 0.1, WeightNorm: true, Horizon: 5})
	return m, tensor.RandN(r, batch, 12, 32)
}

// BenchmarkRPTCNTrainStep is one training batch of 32 windows without
// the optimizer: ZeroGrad, Forward(x, true) and Backward, both inside
// the receptive cone.
func BenchmarkRPTCNTrainStep(b *testing.B) {
	m, x := trainStepModel(32)
	grad := tensor.RandN(tensor.NewRNG(10), 32, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrad(m)
		m.Forward(x, true)
		m.Backward(grad)
	}
}

// BenchmarkRPTCNEval256 is Forward(x, false) at the 256-window batch
// train.EvaluateLoss and train.Predict run: the per-epoch validation
// pass.
func BenchmarkRPTCNEval256(b *testing.B) {
	m, x := trainStepModel(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}
