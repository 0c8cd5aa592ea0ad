package nn

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

const gradTol = 1e-5

func requireGrad(t *testing.T, l Layer, x *tensor.Tensor) {
	t.Helper()
	err, detail := GradCheck(l, x, 7, 1e-6)
	if err > gradTol {
		t.Fatalf("gradient check failed: relerr=%.3g at %s", err, detail)
	}
}

func TestDenseForwardKnown(t *testing.T) {
	r := tensor.NewRNG(1)
	d := NewDense(r, 2, 3)
	d.W.Value = tensor.FromSlice([]float64{1, 0, 0, 1, 1, 1}, 3, 2)
	d.B.Value = tensor.FromSlice([]float64{10, 20, 30}, 3)
	x := tensor.FromSlice([]float64{2, 5}, 1, 2)
	y := d.Forward(x, false)
	want := []float64{12, 25, 37}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("Dense forward = %v, want %v", y.Data, want)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	r := tensor.NewRNG(2)
	d := NewDense(r, 4, 3)
	x := tensor.RandN(r, 5, 4)
	requireGrad(t, d, x)
}

func TestReLUGradients(t *testing.T) {
	r := tensor.NewRNG(3)
	x := tensor.RandN(r, 4, 6)
	// Keep values away from the kink at 0 so finite differences are valid.
	for i, v := range x.Data {
		if math.Abs(v) < 0.05 {
			x.Data[i] = 0.1
		}
	}
	requireGrad(t, &ReLU{}, x)
}

func TestTanhGradients(t *testing.T) {
	r := tensor.NewRNG(4)
	requireGrad(t, &Tanh{}, tensor.RandN(r, 3, 5))
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	r := tensor.NewRNG(5)
	x := tensor.RandN(r, 4, 7).ScaleInPlace(10)
	s := tensor.NewLike(x)
	softmaxRowsInto(x, s)
	for row := 0; row < 4; row++ {
		sum := 0.0
		for c := 0; c < 7; c++ {
			v := s.At(row, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of range: %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row sums to %g", sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := tensor.FromSlice([]float64{1000, 1001, 999}, 1, 3)
	s := tensor.NewLike(x)
	softmaxRowsInto(x, s)
	for _, v := range s.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", s.Data)
		}
	}
}

func TestCausalConv1DCausality(t *testing.T) {
	// Perturbing a future input sample must not change past outputs.
	r := tensor.NewRNG(6)
	c := NewCausalConv1D(r, 2, 3, 3, 2, false)
	x := tensor.RandN(r, 1, 2, 12)
	y1 := c.Forward(x, false)
	x2 := x.Clone()
	x2.Set(x2.At(0, 0, 9)+100, 0, 0, 9) // bump t=9
	y2 := c.Forward(x2, false)
	for co := 0; co < 3; co++ {
		for tt := 0; tt < 9; tt++ {
			if y1.At(0, co, tt) != y2.At(0, co, tt) {
				t.Fatalf("future input leaked into past output at t=%d", tt)
			}
		}
		if y1.At(0, co, 9) == y2.At(0, co, 9) {
			t.Fatal("perturbation had no effect at its own time step")
		}
	}
}

func TestCausalConv1DIdentityKernel(t *testing.T) {
	// A kernel that is 1 at the last tap and 0 elsewhere must reproduce the
	// input (the last tap corresponds to the current sample).
	r := tensor.NewRNG(7)
	c := NewCausalConv1D(r, 1, 1, 3, 1, false)
	c.W.Value.Zero()
	c.W.Value.Set(1, 0, 0, 2)
	c.B.Value.Zero()
	x := tensor.RandN(r, 2, 1, 8)
	y := c.Forward(x, false)
	if !y.Equal(x, 1e-12) {
		t.Fatal("identity kernel did not reproduce input")
	}
}

func TestCausalConv1DShiftKernel(t *testing.T) {
	// Kernel 1 at the first tap with dilation d delays the signal by (K−1)·d.
	r := tensor.NewRNG(8)
	c := NewCausalConv1D(r, 1, 1, 2, 3, false)
	c.W.Value.Zero()
	c.W.Value.Set(1, 0, 0, 0) // tap at (K−1−0)·d = 3 samples back
	c.B.Value.Zero()
	x := tensor.RandN(r, 1, 1, 10)
	y := c.Forward(x, false)
	for tt := 0; tt < 10; tt++ {
		want := 0.0
		if tt >= 3 {
			want = x.At(0, 0, tt-3)
		}
		if math.Abs(y.At(0, 0, tt)-want) > 1e-12 {
			t.Fatalf("shift kernel wrong at t=%d: got %g want %g", tt, y.At(0, 0, tt), want)
		}
	}
}

func TestCausalConv1DReceptiveField(t *testing.T) {
	r := tensor.NewRNG(9)
	c := NewCausalConv1D(r, 1, 1, 3, 4, false)
	if got := c.ReceptiveField(); got != 9 {
		t.Fatalf("ReceptiveField = %d, want 9", got)
	}
}

func TestCausalConv1DGradients(t *testing.T) {
	r := tensor.NewRNG(10)
	c := NewCausalConv1D(r, 2, 3, 3, 2, false)
	x := tensor.RandN(r, 2, 2, 9)
	requireGrad(t, c, x)
}

func TestCausalConv1DWeightNormGradients(t *testing.T) {
	r := tensor.NewRNG(11)
	c := NewCausalConv1D(r, 2, 2, 2, 1, true)
	x := tensor.RandN(r, 2, 2, 6)
	requireGrad(t, c, x)
}

func TestWeightNormInitializationMatchesPlain(t *testing.T) {
	// At init, g = ‖V‖ so the effective kernel equals V.
	r := tensor.NewRNG(12)
	c := NewCausalConv1D(r, 2, 3, 3, 1, true)
	w := c.effectiveKernel()
	if !w.Equal(c.V.Value, 1e-10) {
		t.Fatal("weight-norm effective kernel at init should equal V")
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	r := tensor.NewRNG(13)
	d := NewDropout(r, 0.5)
	x := tensor.RandN(r, 3, 4)
	y := d.Forward(x, false)
	if !y.Equal(x, 0) {
		t.Fatal("dropout must be identity in eval mode")
	}
	g := tensor.RandN(r, 3, 4)
	if !d.Backward(g).Equal(g, 0) {
		t.Fatal("dropout backward must be identity in eval mode")
	}
}

func TestDropoutTrainPreservesMeanAndMasksGrad(t *testing.T) {
	r := tensor.NewRNG(14)
	d := NewDropout(r, 0.3)
	x := tensor.Full(1, 200, 50)
	y := d.Forward(x, true)
	if m := y.Mean(); math.Abs(m-1) > 0.05 {
		t.Fatalf("inverted dropout mean = %g, want ~1", m)
	}
	// Backward must use exactly the same mask.
	g := tensor.Full(1, 200, 50)
	gb := d.Backward(g)
	for i := range y.Data {
		if (y.Data[i] == 0) != (gb.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestSpatialDropoutDropsWholeChannels(t *testing.T) {
	r := tensor.NewRNG(15)
	d := NewSpatialDropout1D(r, 0.5)
	x := tensor.Full(1, 8, 16, 10)
	y := d.Forward(x, true)
	for b := 0; b < 8; b++ {
		for c := 0; c < 16; c++ {
			zero, nonzero := 0, 0
			for tt := 0; tt < 10; tt++ {
				if y.At(b, c, tt) == 0 {
					zero++
				} else {
					nonzero++
				}
			}
			if zero != 0 && nonzero != 0 {
				t.Fatal("spatial dropout must drop entire channels")
			}
		}
	}
}

func TestTemporalBlockResidualIdentity(t *testing.T) {
	// With all conv weights zeroed (same channel count, no downsample), the
	// block must reduce to o = ReLU(x + bias-path); with zero biases that is
	// ReLU(x).
	r := tensor.NewRNG(16)
	b := NewTemporalBlock(r, TemporalBlockConfig{
		InChannels: 3, OutChannels: 3, KernelSize: 3, Dilation: 1, Dropout: 0, WeightNorm: false,
	})
	b.conv1.W.Value.Zero()
	b.conv1.B.Value.Zero()
	b.conv2.W.Value.Zero()
	b.conv2.B.Value.Zero()
	x := tensor.RandN(r, 2, 3, 7)
	y := b.Forward(x, false)
	want := (&ReLU{}).Forward(x, false)
	if !y.Equal(want, 1e-12) {
		t.Fatal("zeroed temporal block should equal ReLU(x)")
	}
}

func TestTemporalBlockGradients(t *testing.T) {
	r := tensor.NewRNG(17)
	b := NewTemporalBlock(r, TemporalBlockConfig{
		InChannels: 2, OutChannels: 3, KernelSize: 2, Dilation: 2, Dropout: 0, WeightNorm: true,
	})
	x := tensor.RandN(r, 2, 2, 8)
	requireGrad(t, b, x)
}

func TestTCNReceptiveFieldGrowth(t *testing.T) {
	r := tensor.NewRNG(18)
	tcn := NewTCN(r, TCNConfig{
		InChannels: 1, Channels: []int{4, 4, 4}, KernelSize: 3, Dropout: 0, WeightNorm: true,
	})
	// Per block: 2(K−1)d+1 with d = 1,2,4 → rf = 1 + 4 + 8 + 16 = 29.
	if got := tcn.ReceptiveField(); got != 29 {
		t.Fatalf("TCN receptive field = %d, want 29", got)
	}
}

func TestTCNGradients(t *testing.T) {
	r := tensor.NewRNG(19)
	tcn := NewTCN(r, TCNConfig{
		InChannels: 2, Channels: []int{3, 3}, KernelSize: 2, Dropout: 0, WeightNorm: false,
	})
	x := tensor.RandN(r, 2, 2, 8)
	requireGrad(t, tcn, x)
}

func TestTCNCausality(t *testing.T) {
	r := tensor.NewRNG(20)
	tcn := NewTCN(r, TCNConfig{
		InChannels: 1, Channels: []int{4, 4}, KernelSize: 3, Dropout: 0, WeightNorm: true,
	})
	x := tensor.RandN(r, 1, 1, 20)
	y1 := tcn.Forward(x, false)
	x2 := x.Clone()
	x2.Set(99, 0, 0, 15)
	y2 := tcn.Forward(x2, false)
	for c := 0; c < 4; c++ {
		for tt := 0; tt < 15; tt++ {
			if y1.At(0, c, tt) != y2.At(0, c, tt) {
				t.Fatalf("TCN leaked future info at t=%d", tt)
			}
		}
	}
}

func TestFeatureAttentionOutputBounded(t *testing.T) {
	// g = a ⊙ x with a ∈ (0,1): |g_i| ≤ |x_i| elementwise.
	r := tensor.NewRNG(21)
	a := NewFeatureAttention(r, 6)
	x := tensor.RandN(r, 4, 6)
	y := a.Forward(x, false)
	for i := range y.Data {
		if math.Abs(y.Data[i]) > math.Abs(x.Data[i])+1e-12 {
			t.Fatal("attention glimpse exceeded input magnitude")
		}
	}
	w := a.Weights()
	for row := 0; row < 4; row++ {
		sum := 0.0
		for c := 0; c < 6; c++ {
			sum += w.At(row, c)
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("attention weights row sum = %g", sum)
		}
	}
}

func TestFeatureAttentionGradients(t *testing.T) {
	r := tensor.NewRNG(22)
	a := NewFeatureAttention(r, 5)
	x := tensor.RandN(r, 3, 5)
	requireGrad(t, a, x)
}

func TestLSTMShapes(t *testing.T) {
	r := tensor.NewRNG(23)
	l := NewLSTM(r, 3, 4)
	x := tensor.RandN(r, 2, 3, 6)
	y := l.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 4 {
		t.Fatalf("LSTM last-state shape = %v", y.Shape())
	}
}

func TestLSTMGradientsLastState(t *testing.T) {
	r := tensor.NewRNG(25)
	l := NewLSTM(r, 2, 3)
	x := tensor.RandN(r, 2, 2, 5)
	requireGrad(t, l, x)
}

// oneChunk runs a Sequential's chain as one chunk of the machinery a
// split pass runs: each unit readies and runs all its rows, then its
// parameter gradients right after its data path. It is the reference a
// split pass is held to.
type oneChunk struct{ *Sequential }

func (o oneChunk) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for c := (chain{layers: o.Layers}); len(c.layers) > 0; {
		var u unit
		u, c = c.next()
		y := u.begin(nil, x, train)
		u.rows(nil, x, y, 0, x.Dim(0))
		x = y
	}
	return x
}

func (o oneChunk) Backward(grad *tensor.Tensor) *tensor.Tensor {
	us := chainUnits(chain{layers: o.Layers})
	for i := len(us) - 1; i >= 0; i-- {
		dx := us[i].beginBackward(grad)
		us[i].backwardRows(grad, dx, 0, grad.Dim(0))
		for _, job := range us[i].gradJobs(nil) {
			job.run()
		}
		grad = dx
	}
	return grad
}

// requireSplitMatchesOneChunk builds two copies of a chain and holds a
// training step of one, in the chunks chunkRows gives, to the same step
// of the other as oneChunk: at batch 12 (chunks of 8 and 4) and batch 5
// (one chunk either way), at 1 and 2 workers, over two steps with the
// weights moved in between, the output, the input gradient, every
// parameter gradient and the dropout streams agree bitwise.
func requireSplitMatchesOneChunk(t *testing.T, name string, build func(r *tensor.RNG) *Sequential, in, win, out int) {
	t.Helper()
	for _, batch := range []int{12, 5} {
		for _, workers := range []int{1, 2} {
			split, whole := build(tensor.NewRNG(28)), build(tensor.NewRNG(28))
			r := tensor.NewRNG(uint64(batch))
			prev := par.SetWorkers(workers)
			for step := 0; step < 2; step++ {
				x, g := tensor.RandN(r, batch, in, win), tensor.RandN(r, batch, out)
				if got, want := chunkRows(x), min(batch, rowGrain); got != want {
					t.Fatalf("%s, batch %d: chunks of %d, want %d", name, batch, got, want)
				}
				got, ref := trainStep(split, x, g), trainStep(oneChunk{whole}, x, g)
				requireSameStep(t, fmt.Sprintf("%s, batch %d, workers %d, step %d", name, batch, workers, step), got, ref, split, whole)
				nudge(split, whole)
			}
			par.SetWorkers(prev)
		}
	}
}

// TestLSTMRowSplitMatchesOneChunk: LSTM → Dense splits rows and matches
// the same chain run as one chunk (see requireSplitMatchesOneChunk). A
// 2-D batch, whatever its size, is one chunk.
func TestLSTMRowSplitMatchesOneChunk(t *testing.T) {
	requireSplitMatchesOneChunk(t, "LSTM → Dense", func(r *tensor.RNG) *Sequential {
		return NewSequential(NewLSTM(r, 3, 6), NewDense(r, 6, 2))
	}, 3, 7, 2)
	if got := chunkRows(tensor.New(12, 6)); got != 12 {
		t.Fatalf("a 2-D batch of 12 runs chunks of %d, want one chunk", got)
	}
}

// TestChainsSplitMatchOneChunk: the chains whose standalone activations,
// dropouts and Flatten are row layers — CNN-LSTM's, and one of Tanh,
// plain Dropout and Flatten — split rows and match one chunk bitwise,
// dropout in force (see requireSplitMatchesOneChunk).
func TestChainsSplitMatchOneChunk(t *testing.T) {
	requireSplitMatchesOneChunk(t, "CNN-LSTM", func(r *tensor.RNG) *Sequential {
		return NewSequential(NewCausalConv1D(r, 3, 4, 3, 1, false), &ReLU{}, NewSpatialDropout1D(r, 0.3),
			NewLSTM(r, 4, 6), NewDense(r, 6, 2))
	}, 3, 7, 2)
	requireSplitMatchesOneChunk(t, "Tanh → Dropout → Flatten → Dense", func(r *tensor.RNG) *Sequential {
		return NewSequential(&Tanh{}, NewDropout(r, 0.3), &Flatten{}, NewDense(r, 3*7, 2))
	}, 3, 7, 2)
}

// TestChainRefusesNestedSequential: a chain runs row layers and temporal
// blocks; a Sequential inside one is refused by name.
func TestChainRefusesNestedSequential(t *testing.T) {
	r := tensor.NewRNG(29)
	model := NewSequential(NewSequential(NewDense(r, 3, 3)), NewDense(r, 3, 1))
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "*nn.Sequential") {
			t.Fatalf("a nested Sequential: recovered %q, want a panic naming *nn.Sequential", msg)
		}
	}()
	model.Forward(tensor.RandN(r, 2, 3), false)
}

// clone is a copy of p, value and gradient.
func clone(p *Param) *Param {
	return &Param{Name: p.Name, Value: p.Value.Clone(), Grad: p.Grad.Clone()}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := &Flatten{}
	x := tensor.RandN(tensor.NewRNG(27), 2, 3, 4)
	y := f.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("Flatten shape = %v", y.Shape())
	}
	g := f.Backward(y)
	if g.Dim(1) != 3 || g.Dim(2) != 4 {
		t.Fatalf("Flatten backward shape = %v", g.Shape())
	}
}

func TestLastStepSelectsFinalColumn(t *testing.T) {
	l := &LastStep{}
	x := tensor.FromSlice([]float64{
		1, 2, 3, // b0 c0
		4, 5, 6, // b0 c1
	}, 1, 2, 3)
	y := l.Forward(x, false)
	if y.At(0, 0) != 3 || y.At(0, 1) != 6 {
		t.Fatalf("LastStep = %v", y.Data)
	}
	g := l.Backward(tensor.FromSlice([]float64{10, 20}, 1, 2))
	if g.At(0, 0, 2) != 10 || g.At(0, 1, 2) != 20 || g.At(0, 0, 0) != 0 {
		t.Fatalf("LastStep backward = %v", g.Data)
	}
}

func TestLastStepGradients(t *testing.T) {
	r := tensor.NewRNG(28)
	x := tensor.RandN(r, 2, 3, 4)
	requireGrad(t, &LastStep{}, x)
}

func TestSequentialGradients(t *testing.T) {
	r := tensor.NewRNG(29)
	m := NewSequential(
		NewCausalConv1D(r, 1, 2, 2, 1, true),
		&LastStep{},
		NewDense(r, 2, 3),
		&Tanh{},
		NewDense(r, 3, 1),
	)
	x := tensor.RandN(r, 2, 1, 6)
	requireGrad(t, m, x)
}

func TestMSELossValueAndGrad(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2, 3}, 3)
	targ := tensor.FromSlice([]float64{0, 2, 5}, 3)
	l := &MSELoss{}
	if got := l.Forward(pred, targ); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Fatalf("MSE = %g, want %g", got, 5.0/3.0)
	}
	g := l.Backward()
	want := []float64{2.0 / 3, 0, -4.0 / 3}
	for i := range want {
		if math.Abs(g.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("MSE grad = %v, want %v", g.Data, want)
		}
	}
}

func TestMAELossValueAndGrad(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2, 3}, 3)
	targ := tensor.FromSlice([]float64{0, 2, 5}, 3)
	l := &MAELoss{}
	if got := l.Forward(pred, targ); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MAE = %g, want 1", got)
	}
	g := l.Backward()
	want := []float64{1.0 / 3, 0, -1.0 / 3}
	for i := range want {
		if math.Abs(g.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("MAE grad = %v, want %v", g.Data, want)
		}
	}
}

func TestLossGradientNumerically(t *testing.T) {
	r := tensor.NewRNG(30)
	pred := tensor.RandN(r, 2, 3)
	targ := tensor.RandN(r, 2, 3)
	for _, tc := range []struct {
		name string
		loss Loss
	}{
		{"mse", &MSELoss{}},
		{"mae", &MAELoss{}},
	} {
		tc.loss.Forward(pred, targ)
		g := tc.loss.Backward()
		const eps = 1e-6
		for i := range pred.Data {
			orig := pred.Data[i]
			pred.Data[i] = orig + eps
			lp := tc.loss.Forward(pred, targ)
			pred.Data[i] = orig - eps
			lm := tc.loss.Forward(pred, targ)
			pred.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-g.Data[i]) > 1e-6 {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", tc.name, i, g.Data[i], num)
			}
		}
	}
}

func TestParamCount(t *testing.T) {
	r := tensor.NewRNG(31)
	d := NewDense(r, 4, 3)
	if got := ParamCount(d); got != 4*3+3 {
		t.Fatalf("ParamCount = %d, want 15", got)
	}
}

func TestZeroGrad(t *testing.T) {
	r := tensor.NewRNG(32)
	d := NewDense(r, 2, 2)
	x := tensor.RandN(r, 3, 2)
	d.Forward(x, true)
	d.Backward(tensor.RandN(r, 3, 2))
	ZeroGrad(d)
	for _, p := range d.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatal("ZeroGrad left nonzero gradient")
			}
		}
	}
}

// TestLSTMAllocationsDoNotGrowWithBatch: a warmed-up LSTM forward and
// backward allocates per pass, never per row chunk — the same count at
// batch 32, 64 and 256 — and at most 74 times (BenchmarkLSTMForwardBackward's
// layer and shapes). The collector is off while counting: a collection
// empties the sync.Pool that holds par's tasks, and refilling it
// allocates a varying few times that depend on the heap, not the pass.
func TestLSTMAllocationsDoNotGrowWithBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var first float64
	for _, batch := range []int{32, 64, 256} {
		r := tensor.NewRNG(4)
		l := NewLSTM(r, 12, 32)
		x, g := tensor.RandN(r, batch, 12, 32), tensor.RandN(r, batch, 32)
		step := func() {
			l.Forward(x, true)
			l.Backward(g)
		}
		step()
		allocs := testing.AllocsPerRun(10, step)
		t.Logf("batch %d: %.0f allocations per forward+backward", batch, allocs)
		if batch == 32 {
			first = allocs
		}
		if allocs != first || allocs > 74 {
			t.Fatalf("batch %d: %.0f allocations per forward+backward, want %.0f (batch 32's) and at most 74", batch, allocs, first)
		}
	}
}
