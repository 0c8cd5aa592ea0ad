package train

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// sineDataset builds a toy regression problem y = sin(3x).
func sineDataset(n int) Dataset {
	x := tensor.New(n, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		v := float64(i)/float64(n)*2 - 1
		x.Data[i] = v
		y.Data[i] = math.Sin(3 * v)
	}
	return Dataset{X: x, Y: y}
}

func TestSplitProportionsAndOrder(t *testing.T) {
	d := sineDataset(100)
	tr, va, te, err := Split(d, 0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 60 || va.Len() != 20 || te.Len() != 20 {
		t.Fatalf("split sizes = %d/%d/%d", tr.Len(), va.Len(), te.Len())
	}
	// Chronological: first train sample is the first overall, first test
	// sample is number 80.
	if tr.X.Data[0] != d.X.Data[0] || te.X.Data[0] != d.X.Data[80] {
		t.Fatal("split must be chronological")
	}
}

func TestSplitRejectsBadFractions(t *testing.T) {
	d := sineDataset(10)
	if _, _, _, err := Split(d, 0.9, 0.2); err == nil {
		t.Fatal("expected error when fractions exceed 1")
	}
	if _, _, _, err := Split(d, 0, 0.2); err == nil {
		t.Fatal("expected error for zero train fraction")
	}
	if _, _, _, err := Split(sineDataset(2), 0.6, 0.2); err == nil {
		t.Fatal("expected error for too-small dataset")
	}
}

func TestSubsetAndGatherCopy(t *testing.T) {
	d := sineDataset(10)
	s := d.Subset(2, 5)
	if s.Len() != 3 || s.X.Data[0] != d.X.Data[2] {
		t.Fatalf("Subset wrong: %v", s.X.Data)
	}
	s.X.Data[0] = 999
	if d.X.Data[2] == 999 {
		t.Fatal("Subset must copy")
	}
	g := d.GatherInto([]int{7, 1}, Dataset{})
	if g.X.Data[0] != d.X.Data[7] || g.X.Data[1] != d.X.Data[1] {
		t.Fatalf("GatherInto wrong: %v", g.X.Data)
	}
}

func TestFitReducesLoss(t *testing.T) {
	r := tensor.NewRNG(1)
	model := nn.NewSequential(nn.NewDense(r, 1, 16), &nn.Tanh{}, nn.NewDense(r, 16, 1))
	d := sineDataset(200)
	tr, va, _, err := Split(d, 0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	hist := Fit(model, tr, va, Config{
		Epochs: 100, BatchSize: 16, Optimizer: opt.NewAdam(0.01), Shuffle: true, Seed: 2,
	})
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	if last >= first/5 {
		t.Fatalf("training did not reduce loss: %g -> %g", first, last)
	}
}

func TestEarlyStoppingTriggers(t *testing.T) {
	r := tensor.NewRNG(3)
	model := nn.NewSequential(nn.NewDense(r, 1, 4), &nn.Tanh{}, nn.NewDense(r, 4, 1))
	// Unlearnable validation target: pure noise mapped from constant input.
	trX := tensor.Full(0.5, 40, 1)
	trY := tensor.Full(0.5, 40, 1)
	vaX := tensor.Full(0.5, 20, 1)
	vaY := tensor.RandN(r, 20, 1)
	hist := Fit(model, Dataset{trX, trY}, Dataset{vaX, vaY}, Config{
		Epochs: 500, BatchSize: 8, Optimizer: opt.NewAdam(0.05), Patience: 5,
	})
	if !hist.Stopped {
		t.Fatal("early stopping never triggered on unlearnable validation set")
	}
	if len(hist.TrainLoss) >= 500 {
		t.Fatal("ran every epoch despite early stopping")
	}
}

func TestRestoreBestWeights(t *testing.T) {
	r := tensor.NewRNG(4)
	model := nn.NewSequential(nn.NewDense(r, 1, 8), &nn.Tanh{}, nn.NewDense(r, 8, 1))
	d := sineDataset(100)
	tr, va, _, err := Split(d, 0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	hist := Fit(model, tr, va, Config{
		Epochs: 60, BatchSize: 16, Optimizer: opt.NewAdam(0.02),
		Patience: 10, RestoreBest: true, Shuffle: true, Seed: 5,
	})
	got := EvaluateLoss(model, va, &nn.MSELoss{})
	want := hist.ValidLoss[hist.BestEpoch]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("restored model valid loss %g != best recorded %g", got, want)
	}
}

func TestHistoryLengthsMatch(t *testing.T) {
	r := tensor.NewRNG(6)
	model := nn.NewSequential(nn.NewDense(r, 1, 2), nn.NewDense(r, 2, 1))
	d := sineDataset(50)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	hist := Fit(model, tr, va, Config{Epochs: 7, BatchSize: 10})
	if len(hist.TrainLoss) != 7 || len(hist.ValidLoss) != 7 {
		t.Fatalf("history lengths %d/%d, want 7/7", len(hist.TrainLoss), len(hist.ValidLoss))
	}
	if hist.BestEpoch < 0 || hist.BestEpoch >= 7 {
		t.Fatalf("BestEpoch = %d", hist.BestEpoch)
	}
}

func TestEvaluateLossMatchesDirectComputation(t *testing.T) {
	r := tensor.NewRNG(7)
	model := nn.NewDense(r, 1, 1)
	d := sineDataset(300) // spans multiple eval batches
	loss := &nn.MSELoss{}
	got := EvaluateLoss(model, d, loss)
	pred := model.Forward(d.X, false)
	want := loss.Forward(pred, d.Y)
	if math.Abs(got-want) > 1e-10 {
		t.Fatalf("EvaluateLoss = %g, want %g", got, want)
	}
}

func TestPredictShapeAndValues(t *testing.T) {
	r := tensor.NewRNG(8)
	model := nn.NewDense(r, 1, 1)
	d := sineDataset(10)
	preds := Predict(model, d)
	if len(preds) != 10 {
		t.Fatalf("Predict length = %d", len(preds))
	}
	direct := model.Forward(d.X, false)
	for i := range preds {
		if math.Abs(preds[i]-direct.At(i, 0)) > 1e-12 {
			t.Fatal("Predict disagrees with direct forward")
		}
	}
}

func TestPredictAllMultiOutput(t *testing.T) {
	r := tensor.NewRNG(9)
	model := nn.NewDense(r, 2, 3)
	x := tensor.RandN(r, 4, 2)
	y := tensor.New(4, 3)
	rows := PredictAll(model, Dataset{X: x, Y: y})
	if len(rows) != 4 || len(rows[0]) != 3 {
		t.Fatalf("PredictAll shape = %dx%d", len(rows), len(rows[0]))
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	build := func() nn.Layer {
		r := tensor.NewRNG(10)
		return nn.NewSequential(nn.NewDense(r, 1, 4), &nn.Tanh{}, nn.NewDense(r, 4, 1))
	}
	d := sineDataset(80)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	run := func() []float64 {
		m := build()
		h := Fit(m, tr, va, Config{Epochs: 10, BatchSize: 8, Optimizer: opt.NewAdam(0.01), Shuffle: true, Seed: 11})
		return h.TrainLoss
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training is not reproducible with a fixed seed")
		}
	}
}

func TestFitWithClipNormStable(t *testing.T) {
	r := tensor.NewRNG(12)
	model := nn.NewSequential(nn.NewDense(r, 1, 8), &nn.ReLU{}, nn.NewDense(r, 8, 1))
	d := sineDataset(60)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	hist := Fit(model, tr, va, Config{
		Epochs: 20, BatchSize: 8, Optimizer: opt.NewSGD(0.5, 0.9), ClipNorm: 1.0,
	})
	for _, l := range hist.TrainLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatal("training diverged despite gradient clipping")
		}
	}
}

// TestFitConvScratchSettles pins the grow-only im2col scratch of the
// convolutions. An epoch alternates between training batches of 32, a
// ragged last batch, and evaluation batches of 256 plus their own ragged
// tail; scratch sized to the current batch would be reallocated at each
// of those switches, every epoch. Once a first Fit has grown the buffers,
// an epoch must allocate less than one evaluation-sized set of them —
// the per-pass activations and gradients fit well inside that, the
// thrash does not.
func TestFitConvScratchSettles(t *testing.T) {
	const in, ch, k, steps = 8, 16, 3, 16
	r := tensor.NewRNG(5)
	model := nn.NewSequential(
		nn.NewTCN(r, nn.TCNConfig{InChannels: in, Channels: []int{ch}, KernelSize: k}),
		&nn.LastStep{},
		nn.NewDense(r, ch, 1),
	)
	tr := Dataset{X: tensor.RandN(r, 40, in, steps), Y: tensor.RandN(r, 40, 1)}
	va := Dataset{X: tensor.RandN(r, 300, in, steps), Y: tensor.RandN(r, 300, 1)}
	const epochs = 2
	fit := func() { Fit(model, tr, va, Config{Epochs: epochs, BatchSize: 32}) }
	fit()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fit()
	runtime.ReadMemStats(&after)
	perEpoch := (after.TotalAlloc - before.TotalAlloc) / epochs

	// acol [in·k, b·t] + ycol [b·t, out] of conv1, conv2 and the 1×1
	// downsample at the evaluation batch size.
	scratch := uint64((in*k+ch)+(ch*k+ch)+(in+ch)) * 256 * steps * 8
	if perEpoch >= scratch {
		t.Fatalf("steady-state epoch allocates %d bytes, want < %d (one evaluation-sized scratch set)", perEpoch, scratch)
	}
}

// TestRestoreUnfreezes: a best-weight restore writes parameters behind
// the layers' backs, so it must leave a frozen model unfrozen — the arena
// path has to serve the restored weights, not the kernel baked before.
// The reference is a fresh, never-frozen model holding the restored
// weights, so it bakes its kernel from them.
func TestRestoreUnfreezes(t *testing.T) {
	build := func(r *tensor.RNG) *nn.Sequential {
		return nn.NewSequential(
			nn.NewTCN(r, nn.TCNConfig{InChannels: 2, Channels: []int{3}, KernelSize: 3, WeightNorm: true}),
			&nn.LastStep{},
			nn.NewDense(r, 3, 1),
		)
	}
	r := tensor.NewRNG(3)
	model := build(r)
	best := snapshotInto(model, nil)
	for _, v := range best {
		for i := range v.Data {
			v.Data[i] *= 1.5
		}
	}
	nn.Freeze(model)
	restore(model, best)
	fresh := build(tensor.NewRNG(0))
	for i, p := range fresh.Params() {
		p.Value.CopyFrom(best[i])
	}
	x := tensor.RandN(r, 2, 2, 8)
	want := fresh.Forward(x, false)
	got := nn.Infer(model, nn.NewInferArena(), x)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("elem %d: arena path %g, training path %g after restore", i, got.Data[i], want.Data[i])
		}
	}
}
