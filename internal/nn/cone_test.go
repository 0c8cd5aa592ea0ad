package nn

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// coneStack is a TCN feeding LastStep and a linear head: the shape the
// chains prune to the receptive cone.
func coneStack(k int, dilations []int, in, ch int, weightNorm bool, dropout float64) (*Sequential, *TCN) {
	r := tensor.NewRNG(uint64(1000*k + 10*len(dilations) + in))
	channels := make([]int, len(dilations))
	for i := range channels {
		channels[i] = ch
	}
	tcn := NewTCN(r, TCNConfig{
		InChannels: in, Channels: channels, KernelSize: k, Dilations: dilations,
		Dropout: dropout, WeightNorm: weightNorm,
	})
	return NewSequential(tcn, &LastStep{}, NewDense(r, ch, 2)), tcn
}

// everyStep is the oracle of the chains: the same layers called one by
// one, so that no run is recognised — every convolution computes every
// step of the window through the kernel TestCausalConv1DMatchesDenseOracle
// holds to the full-length path, LastStep itself picks the final one, and
// its Backward builds the tensor of zeros the cone never does.
type everyStep struct{ *Sequential }

func (o everyStep) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range o.Layers {
		x = l.Forward(x, train)
	}
	return x
}

func (o everyStep) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(o.Layers) - 1; i >= 0; i-- {
		grad = o.Layers[i].Backward(grad)
	}
	return grad
}

// coneGrid visits the structural grid of the cone tests: kernel sizes,
// dilation schedules (ascending, flat, descending, receptive field
// beyond the window), a 1×1 downsample or none, weight norm on and off,
// window lengths down to 1 and three batch sizes; trimmed under -short.
func coneGrid(visit func(name string, k int, dil []int, in, ch int, wn bool, win, batch int)) {
	kernels := []int{1, 2, 3, 5}
	schedules := [][]int{{1, 2, 4}, {1, 1, 1}, {4, 2, 1}, {1, 2, 4, 8}}
	windows := []int{1, 5, 32, 33}
	batches := []int{1, 7, 32}
	if testing.Short() {
		kernels, batches = []int{2, 3}, []int{1, 32}
	}
	const ch = 6
	for _, k := range kernels {
		for _, dil := range schedules {
			for _, in := range []int{4, ch} { // 4→6 downsamples, 6→6 does not
				for _, wn := range []bool{true, false} {
					for _, win := range windows {
						for _, batch := range batches {
							name := fmt.Sprintf("k%d/d%v/in%d/wn%v/t%d/b%d", k, dil, in, wn, win, batch)
							visit(name, k, dil, in, ch, wn, win, batch)
						}
					}
				}
			}
		}
	}
}

// TestConeMatchesForwardGrid holds the pruned forward — on the arena
// and off it — to the layer-by-layer forward that computes every step,
// bitwise, over coneGrid and three worker counts.
func TestConeMatchesForwardGrid(t *testing.T) {
	coneGrid(func(name string, k int, dil []int, in, ch int, wn bool, win, batch int) {
		model, _ := coneStack(k, dil, in, ch, wn, 0.1)
		x := tensor.RandN(tensor.NewRNG(uint64(win*100+batch)), batch, in, win)
		want := everyStep{model}.Forward(x, false)
		for _, workers := range []int{1, 2, 4} {
			prev := par.SetWorkers(workers)
			arena := NewInferArena()
			for pass := 0; pass < 2; pass++ {
				arena.Reset()
				requireBitwiseTensors(t, Infer(model, arena, x), want, name+" arena")
				requireBitwiseTensors(t, model.Forward(x, false), want, name+" Forward")
			}
			par.SetWorkers(prev)
		}
	})
}

// trainStep runs one training step of m — a Sequential or its everyStep
// oracle — and returns the output, dx and every parameter gradient.
func trainStep(m Layer, x, grad *tensor.Tensor) []*tensor.Tensor {
	ZeroGrad(m)
	out := []*tensor.Tensor{m.Forward(x, true)}
	out = append(out, m.Backward(grad))
	for _, p := range m.Params() {
		out = append(out, p.Grad)
	}
	return out
}

// requireSameStep demands that two trainSteps agree bitwise, and that
// the dropout streams of the two models stand at the same state.
func requireSameStep(t *testing.T, name string, got, want []*tensor.Tensor, m, ref Layer) {
	t.Helper()
	for i := range want {
		requireBitwiseTensors(t, got[i], want[i], fmt.Sprintf("%s: tensor %d (0 output, 1 dx, then gradients)", name, i))
	}
	if !slices.Equal(RNGStates(m), RNGStates(ref)) {
		t.Fatalf("%s: dropout streams diverged", name)
	}
}

// nudge moves every weight of both models against its gradient by the
// same amount, standing for the optimizer between two steps.
func nudge(m, ref Layer) {
	for i, p := range m.Params() {
		q := ref.Params()[i]
		for j, g := range p.Grad.Data {
			p.Value.Data[j] -= 0.01 * g
			q.Value.Data[j] -= 0.01 * g
		}
	}
}

// TestTrainOnConeMatchesEveryStep is the training half of the grid: a
// training step through the chains — forward and backward inside the
// cone — against the same step through the layer-by-layer oracle (at
// one worker), over coneGrid, dropout off and on, at 1, 2 and 4 workers,
// two steps each with the weights moved in between: output, dx, every
// parameter gradient and the dropout streams afterwards, bitwise.
func TestTrainOnConeMatchesEveryStep(t *testing.T) {
	coneGrid(func(name string, k int, dil []int, in, ch int, wn bool, win, batch int) {
		for _, dropout := range []float64{0, 0.3} {
			for _, workers := range []int{1, 2, 4} {
				model, _ := coneStack(k, dil, in, ch, wn, dropout)
				ref, _ := coneStack(k, dil, in, ch, wn, dropout)
				r := tensor.NewRNG(uint64(win*100 + batch))
				for step := 0; step < 2; step++ {
					x, grad := tensor.RandN(r, batch, in, win), tensor.RandN(r, batch, 2)
					x0, grad0 := x.Clone(), grad.Clone()
					want := trainStep(everyStep{ref}, x, grad)
					prev := par.SetWorkers(workers)
					got := trainStep(model, x, grad)
					par.SetWorkers(prev)
					what := fmt.Sprintf("%s/p%g/w%d/step%d", name, dropout, workers, step)
					requireSameStep(t, what, got, want, model, ref)
					requireBitwiseTensors(t, x, x0, what+": caller's input")
					requireBitwiseTensors(t, grad, grad0, what+": caller's gradient")
					nudge(model, ref)
				}
			}
		}
	})
}

// reachesLastStep traces dependencies by brute force: it marks input
// step s0 of blocks[0], pushes the mark forward through every tap and
// residual of every block, and reports whether it arrives at the final
// time step of the last block's output.
func reachesLastStep(blocks []*TemporalBlock, t, s0 int) bool {
	mark := make([]bool, t)
	mark[s0] = true
	conv := func(in []bool, k, d int) []bool {
		out := make([]bool, t)
		for s := range out {
			for j := 0; j < k && s-j*d >= 0; j++ {
				out[s] = out[s] || in[s-j*d]
			}
		}
		return out
	}
	for _, b := range blocks {
		k, d := b.conv1.KernelSize, b.conv1.Dilation
		h := conv(conv(mark, k, d), k, d)
		for s := range h {
			h[s] = h[s] || mark[s]
		}
		mark = h
	}
	return mark[t-1]
}

// TestConeStepsMatchDependencyTrace is the property the pruning rests
// on: for random stacks and windows, the input steps each block plans to
// read are exactly the steps the final time step depends on, and each
// block is asked for exactly what the next one reads.
func TestConeStepsMatchDependencyTrace(t *testing.T) {
	r := tensor.NewRNG(77)
	for trial := 0; trial < 200; trial++ {
		k := 1 + int(r.Uint64()%5)
		dil := make([]int, 1+r.Uint64()%4)
		for i := range dil {
			dil[i] = 1 + int(r.Uint64()%8)
		}
		win := 1 + int(r.Uint64()%40)
		model, tcn := coneStack(k, dil, 2, 3, false, 0.1)
		Infer(model, NewInferArena(), tensor.RandN(r, 1, 2, win))
		for i, b := range tcn.Blocks {
			var want []int
			for s := 0; s < win; s++ {
				if reachesLastStep(tcn.Blocks[i:], win, s) {
					want = append(want, s)
				}
			}
			what := fmt.Sprintf("k=%d dilations=%v window=%d block %d", k, dil, win, i)
			if !slices.Equal(b.plan.in, want) {
				t.Fatalf("%s: plans to read %v, the last step depends on %v", what, b.plan.in, want)
			}
			next := []int{win - 1}
			if i+1 < len(tcn.Blocks) {
				next = tcn.Blocks[i+1].plan.in
			}
			if !slices.Equal(b.plan.out, next) {
				t.Fatalf("%s: produces %v, the next layer reads %v", what, b.plan.out, next)
			}
		}
	}
}

// TestFreezeLifecycle pins what Freeze promises. A frozen model serves
// from the kernels baked and the weights packed at Freeze — shown by
// scribbling on every weight behind its back — and each way weights
// legitimately change (a training-mode Forward, a Backward, LoadParams,
// Unfreeze) puts the arena path back in bitwise step with the
// layer-by-layer forward of the weights in place. That forward runs on a fresh, never-frozen stack
// holding a copy of them, so it never reads a kernel model cached.
func TestFreezeLifecycle(t *testing.T) {
	model, _ := coneStack(3, []int{1, 2}, 4, 6, true, 0.1)
	r := tensor.NewRNG(5)
	x := tensor.RandN(r, 3, 4, 16)
	forward := func() *tensor.Tensor {
		fresh, _ := coneStack(3, []int{1, 2}, 4, 6, true, 0.1)
		for i, p := range model.Params() {
			fresh.Params()[i].Value.CopyFrom(p.Value)
		}
		return everyStep{fresh}.Forward(x, false)
	}
	arena := NewInferArena()
	infer := func() *tensor.Tensor {
		arena.Reset()
		return Infer(model, arena, x).Clone()
	}
	scribble := func() {
		for _, p := range model.Params() {
			for i := range p.Value.Data {
				p.Value.Data[i] *= 1.1
			}
		}
	}
	var saved bytes.Buffer
	if err := SaveParams(&saved, model); err != nil {
		t.Fatal(err)
	}

	Freeze(model)
	before := infer()
	requireBitwiseTensors(t, before, forward(), "frozen")
	scribble()
	requireBitwiseTensors(t, infer(), before, "frozen model must serve the baked kernel")
	Unfreeze(model)
	requireBitwiseTensors(t, infer(), forward(), "after Unfreeze")

	writers := map[string]func(){
		"training forward": func() { model.Forward(x, true) },
		"backward": func() {
			y := model.Forward(x, false)
			model.Backward(tensor.RandN(r, y.Shape()...))
		},
		"LoadParams": func() {
			if err := LoadParams(bytes.NewReader(saved.Bytes()), model); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, write := range writers {
		Freeze(model)
		write()
		scribble() // stands for the optimizer step that follows
		requireBitwiseTensors(t, infer(), forward(), "after "+name)
	}
}

// convsOf lists every convolution under l.
func convsOf(l Layer) []*CausalConv1D {
	var cs []*CausalConv1D
	VisitLayers(l, func(l Layer) {
		if c, ok := l.(*CausalConv1D); ok {
			cs = append(cs, c)
		}
	})
	return cs
}

// TestConvReadsTapsInPlace pins where the convolution's taps come from.
// The reference cone — k=3, dilations 1/2/4, 16 channels, window 32 —
// plans every tap list on a grid, so a fit (training steps split into
// chunks, an evaluation pass) and a frozen model's served forward read
// every input in place: no convolution allocates acol, and no arena
// forward gathers. A convolution that computes every step of the window
// (CNN-LSTM's), or a cone whose receptive field exceeds the window,
// reads causal padding and takes the gather path.
func TestConvReadsTapsInPlace(t *testing.T) {
	r := tensor.NewRNG(21)
	model, tcn := coneStack(3, []int{1, 2, 4}, 4, 16, true, 0.1)
	x := tensor.RandN(r, 32, 4, 32)
	for range 2 {
		trainStep(model, x, tensor.RandN(r, 32, 2))
	}
	model.Forward(tensor.RandN(r, 256, 4, 32), false)
	Freeze(model)
	Infer(model, NewInferArena(), x.Rows(0, 1))
	for i, blk := range tcn.Blocks {
		p := blk.plan
		for name, taps := range map[string]tapList{"conv1": p.taps1, "conv2": p.taps2, "residual": p.res} {
			if !taps.onGrid {
				t.Errorf("block %d: %s taps %v are not on a grid", i, name, taps.idx)
			}
		}
	}
	for i, c := range convsOf(model) {
		if c.acol != nil {
			t.Errorf("reference cone: conv %d allocated acol %v", i, c.acol.Shape())
		}
	}

	cnnLSTM := NewSequential(NewCausalConv1D(r, 4, 16, 3, 1, false), &ReLU{}, NewLSTM(r, 16, 8), NewDense(r, 8, 2))
	trainStep(cnnLSTM, x, tensor.RandN(r, 32, 2))
	if c := convsOf(cnnLSTM)[0]; c.acol == nil || c.taps.onGrid {
		t.Error("CNN-LSTM's every-step conv did not gather its taps")
	}

	wide, _ := coneStack(3, []int{1, 2, 4}, 4, 16, true, 0.1)
	trainStep(wide, tensor.RandN(r, 9, 4, 8), tensor.RandN(r, 9, 2))
	gathers := 0
	for _, c := range convsOf(wide) {
		if c.acol != nil {
			gathers++
		}
	}
	if gathers == 0 {
		t.Error("a cone whose receptive field (29) exceeds the window (8) gathered nothing")
	}
}
