package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/tensor"
	"repro/internal/train"
)

// synthDataset builds a deterministic synthetic supervised dataset with
// [n, channels, window] inputs.
func synthDataset(seed uint64, n, channels, window int) train.Dataset {
	r := tensor.NewRNG(seed)
	x := tensor.New(n, channels, window)
	y := tensor.New(n, 1)
	for i := range x.Data {
		x.Data[i] = r.Float64()*2 - 1
	}
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < window; j++ {
			s += x.Data[i*channels*window+j]
		}
		y.Data[i] = s / float64(window)
	}
	return train.Dataset{X: x, Y: y}
}

// fitHistory trains a freshly built model with the given worker count and
// batch size and returns the raw loss histories.
func fitHistory(t *testing.T, workers, batch int, build func(r *tensor.RNG) nn.Layer) (trainLoss, validLoss []float64) {
	t.Helper()
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)

	ds := synthDataset(11, 48, 3, 16)
	tr := ds.Subset(0, 32)
	va := ds.Subset(32, 48)
	model := build(tensor.NewRNG(7))
	hist := train.Fit(model, tr, va, train.Config{
		Epochs:    3,
		BatchSize: batch,
		Optimizer: opt.NewAdam(1e-2),
		Shuffle:   true,
		Seed:      5,
	})
	return hist.TrainLoss, hist.ValidLoss
}

// requireBitwiseEqual fails unless a and b are identical float64 sequences
// down to the last bit.
func requireBitwiseEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Errorf("%s[%d]: %x (%.17g) vs %x (%.17g)",
				name, i, math.Float64bits(a[i]), a[i], math.Float64bits(b[i]), b[i])
		}
	}
}

// TestFitDeterministicAcrossWorkerCounts verifies the internal/par
// determinism contract end to end: a full training run produces
// bitwise-identical loss histories no matter how many workers execute the
// parallel kernels. Chunk boundaries and reduction order depend only on
// the problem shape, never on the worker count. CNN-LSTM draws spatial
// dropout masks, which every chunk of a pass shares. Batches of 12 — not a
// divisor of 32 — split into a row chunk and a short one and end in a
// tail of exactly one chunk; batches of 5 are each smaller than a chunk.
func TestFitDeterministicAcrossWorkerCounts(t *testing.T) {
	builders := map[string]func(r *tensor.RNG) nn.Layer{
		"RPTCN": func(r *tensor.RNG) nn.Layer {
			return NewModel(r, Config{
				InChannels: 3,
				Channels:   []int{8, 8},
				KernelSize: 3,
				Dropout:    0.1,
				WeightNorm: true,
				FCWidth:    16,
				Horizon:    1,
			})
		},
		"LSTM": func(r *tensor.RNG) nn.Layer {
			return models.NewLSTM(r, models.LSTMConfig{InChannels: 3, Hidden: 12, Horizon: 1})
		},
		"CNN-LSTM": func(r *tensor.RNG) nn.Layer {
			return models.NewCNNLSTM(r, models.CNNLSTMConfig{InChannels: 3, ConvChannels: 6, Hidden: 12, Horizon: 1, Dropout: 0.2})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for _, batch := range []int{12, 5} {
				t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
					refTrain, refValid := fitHistory(t, 1, batch, build)
					if len(refTrain) == 0 {
						t.Fatal("empty training history")
					}
					for _, workers := range []int{2, 4} {
						gotTrain, gotValid := fitHistory(t, workers, batch, build)
						requireBitwiseEqual(t, "TrainLoss", refTrain, gotTrain)
						requireBitwiseEqual(t, "ValidLoss", refValid, gotValid)
					}
				})
			}
		})
	}
}
