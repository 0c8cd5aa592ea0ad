package core

import (
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/tensor"
	"repro/internal/train"
)

// everyStep is the oracle of the receptive-cone chains: a model's stages
// (Model.Children, a Sequential's Layers) called one by one, so that no
// run of blocks is recognised — every convolution computes every step of
// the window, LastStep itself picks the final one, and its Backward
// builds the tensor of zeros the cone never does. It skips Model's fault
// points and trains like the model it wraps.
type everyStep struct{ nn.Layer }

// Children implements nn.ChildLayers, so Freeze, Unfreeze and RNGStates
// reach the wrapped model's layers.
func (o everyStep) Children() []nn.Layer { return o.Layer.(nn.ChildLayers).Children() }

func (o everyStep) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range o.Children() {
		x = l.Forward(x, train)
	}
	return x
}

func (o everyStep) Backward(grad *tensor.Tensor) *tensor.Tensor {
	stages := o.Children()
	for i := len(stages) - 1; i >= 0; i-- {
		grad = stages[i].Backward(grad)
	}
	return grad
}

// randomDataset is n windows of noise with noise targets: enough to move
// every weight.
func randomDataset(r *tensor.RNG, n, channels, window, horizon int) train.Dataset {
	return train.Dataset{X: tensor.RandN(r, n, channels, window), Y: tensor.RandN(r, n, horizon)}
}

// TestFitWeightsBitwiseThroughOracle trains RPTCN and the paper's TCN
// baseline twice from the same seed — once as they are, forward and
// backward inside the receptive cone, once driven stage by stage through
// the everyStep oracle — with dropout, a ragged last batch, gradient
// clipping and best-weight restoration, and demands the same loss
// history and the same final weights to the bit.
func TestFitWeightsBitwiseThroughOracle(t *testing.T) {
	const channels, window, horizon = 5, 20, 2
	builders := map[string]func() nn.Layer{
		"RPTCN": func() nn.Layer {
			return NewModel(tensor.NewRNG(3), Config{
				InChannels: channels, Channels: []int{6, 6, 6}, KernelSize: 3,
				Dropout: 0.1, WeightNorm: true, FCWidth: 8, Horizon: horizon,
			})
		},
		"TCN baseline": func() nn.Layer {
			return models.NewPlainTCN(tensor.NewRNG(3), models.TCNConfig{
				InChannels: channels, Channels: []int{6, 6}, KernelSize: 3,
				Dropout: 0.1, WeightNorm: true, Horizon: horizon,
			})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			r := tensor.NewRNG(8)
			tr, va := randomDataset(r, 70, channels, window, horizon), randomDataset(r, 20, channels, window, horizon)
			fit := func(m nn.Layer) *train.History {
				return train.Fit(m, tr, va, train.Config{
					Epochs: 2, BatchSize: 16, Optimizer: opt.NewAdam(1e-2), Loss: &nn.MSELoss{},
					ClipNorm: 0.5, Shuffle: true, Seed: 4, RestoreBest: true,
				})
			}
			model, ref := build(), build()
			got, want := fit(model), fit(everyStep{ref})
			requireBitwiseEqual(t, "training losses", got.TrainLoss, want.TrainLoss)
			requireBitwiseEqual(t, "validation losses", got.ValidLoss, want.ValidLoss)
			if len(got.ValidLoss) != 2 || got.BestEpoch != want.BestEpoch {
				t.Fatalf("history %+v, oracle %+v", got, want)
			}
			for i, p := range model.Params() {
				requireBitwiseEqual(t, p.Name, p.Value.Data, ref.Params()[i].Value.Data)
			}
			x := tensor.RandN(r, 3, channels, window)
			requireBitwiseEqual(t, "forecast after the fit", model.Forward(x, false).Data, everyStep{ref}.Forward(x, false).Data)
		})
	}
}

// TestProfiledStagesCountTrainingCalls: inside a fused run the stage
// chain times each stage's share into the stage's timer — and every
// stage, the blocks and LastStep included, must count one forward and
// one backward per training batch, each with time on it. It trains
// at 2 pool workers, so each batch of 16 runs as two row chunks whose
// stage timers are fed from two goroutines at once: under -race this is
// the profiled step's race test.
func TestProfiledStagesCountTrainingCalls(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(2))
	prof := nn.NewProfiler()
	m := NewModel(tensor.NewRNG(3), Config{InChannels: 5, Channels: []int{6, 6, 6}, WeightNorm: true, FCWidth: 8})
	m.Profile(prof)
	tr := randomDataset(tensor.NewRNG(8), 70, 5, 20, 1)
	train.Fit(m, tr, train.Dataset{}, train.Config{Epochs: 2, BatchSize: 16})
	const batches = 2 * 5 // 70 windows in batches of 16, twice
	stats := prof.Stats()
	if len(stats) != 7 { // tcn[0..2], last, fc, attention, out
		t.Fatalf("%d profiled stages, want 7: %+v", len(stats), stats)
	}
	for _, s := range stats {
		if s.FwdCalls != batches || s.BwdCalls != batches {
			t.Errorf("stage %s: %d forward and %d backward calls over %d batches", s.Name, s.FwdCalls, s.BwdCalls, batches)
		}
		if s.Fwd <= 0 || s.Bwd <= 0 {
			t.Errorf("stage %s: no time recorded (fwd %v, bwd %v)", s.Name, s.Fwd, s.Bwd)
		}
	}
}
