package nn

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// This file is the inference path of the convolutional layers. A causal
// convolution is computed only at the time steps somebody reads: a run
// of temporal blocks feeding a LastStep needs the final step of the last
// block, which needs K steps of the convolution before it, and so on
// down the receptive cone — 73 conv output columns instead of 224 for
// the serving model (k=3, d=1/2/4, window 32). A convolution nobody
// prunes (CNN-LSTM's, a bare TCN) runs the same kernel with every step
// listed. Each kept output is the bias-seeded FMA chain ascending over
// (in-channel, tap) that Forward computes, so the result is bitwise
// equal to Forward(x, false) wherever it is defined.
//
// The step lists are plain ints, planned once per (block, window length).

// steps addresses activations as (sample, channel, position): the
// element sits at data[bi·sb + ci·sc + pos·sp]. Two layouts occur: a
// model input [batch, channels, time], where position is the time step,
// and a GEMM output [batch·n, channels], where position indexes the
// ascending list of the n time steps that were computed.
type steps struct {
	data       []float64
	b, c       int
	sb, sc, sp int
}

func denseSteps(data []float64, b, c, t int) steps {
	return steps{data: data, b: b, c: c, sb: c * t, sc: t, sp: 1}
}

func compactSteps(data []float64, b, c, n int) steps {
	return steps{data: data, b: b, c: c, sb: n * c, sc: 1, sp: c}
}

// gatherTaps is im2col over the listed steps only: row p = ci·k + kk of
// acol ([in·k, batch·n]) holds, for every (sample, step), the input
// position tap kk of that step reads, or zero where it falls in the
// causal padding.
func gatherTaps(acol []float64, x steps, k int, taps []int) {
	n := len(taps) / k
	m := x.b * n
	for p := 0; p < x.c*k; p++ {
		ci, kk := p/k, p%k
		idx := taps[kk*n : (kk+1)*n]
		for bi := 0; bi < x.b; bi++ {
			src := x.data[bi*x.sb+ci*x.sc:]
			dst := acol[p*m+bi*n : p*m+(bi+1)*n]
			for j, pos := range idx {
				if pos < 0 {
					dst[j] = 0
				} else {
					dst[j] = src[pos*x.sp]
				}
			}
		}
	}
}

// seedRows fills every row of y with bias, the start of each FMA chain.
func seedRows(y, bias []float64) {
	for i := 0; i < len(y); i += len(bias) {
		copy(y[i:], bias)
	}
}

func rectify(xs []float64) {
	for i, v := range xs {
		if !(v > 0) {
			xs[i] = 0
		}
	}
}

// residualReLU sets h = ReLU(h + res) on compact h, reading the
// residual of output step j at position pos[j] of res.
func residualReLU(h []float64, res steps, pos []int) {
	n, c := len(pos), res.c
	for bi := 0; bi < res.b; bi++ {
		for j, p := range pos {
			row := h[(bi*n+j)*c : (bi*n+j+1)*c]
			src := res.data[bi*res.sb+p*res.sp:]
			for ci, hv := range row {
				if v := hv + src[ci*res.sc]; v > 0 {
					row[ci] = v
				} else {
					row[ci] = 0
				}
			}
		}
	}
}

// scatterSteps copies compact h, which holds every step of the window,
// back into the [batch, channels, time] layout.
func scatterSteps(y []float64, h steps, t int) {
	for u := 0; u < h.b*h.c; u++ {
		bi, ci := u/h.c, u%h.c
		src := h.data[bi*h.sb+ci:]
		for tt := range y[u*t : (u+1)*t] {
			y[u*t+tt] = src[tt*h.sp]
		}
	}
}

// convTaps lists, tap-major ([k][len(out)]), the input position each tap
// of each output step reads: tap kk of step s reads time s − (k−1−kk)·d,
// which sits at its index in the ascending step list in (nil: the input
// holds every step, so position is time). −1 marks the causal padding.
func convTaps(k, d int, out, in []int) []int {
	taps := make([]int, 0, k*len(out))
	for kk := 0; kk < k; kk++ {
		for _, s := range out {
			q := s - (k-1-kk)*d
			if q >= 0 && in != nil {
				q, _ = slices.BinarySearch(in, q) // planned, so present
			}
			taps = append(taps, max(q, -1))
		}
	}
	return taps
}

// tapSteps returns, ascending, the time steps a (k, d) convolution
// reads to produce out, united with also.
func tapSteps(t, k, d int, out, also []int) []int {
	need := make([]bool, t)
	for _, s := range also {
		need[s] = true
	}
	for _, s := range out {
		for q := s; q >= 0 && q > s-k*d; q -= d {
			need[q] = true
		}
	}
	var in []int
	for s, ok := range need {
		if ok {
			in = append(in, s)
		}
	}
	return in
}

func stepRange(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// blockSteps is one TemporalBlock's share of a cone: the ascending time
// steps held at its output and read at its input, and where in its
// input each convolution and the residual find what they read.
type blockSteps struct {
	t            int
	dense        bool  // the input is the model's, holding every step; else the block before's out = in
	out, in      []int // in is what the block before must produce
	taps1, taps2 []int // conv1 into the input, conv2 into conv1's steps
	res          []int // input position of each out step: the residual, and the 1×1 downsample's taps
	seq          []int // 0..len(out)−1: where the downsample's own output holds them
}

// planSteps returns the block's plan for producing the steps out (nil:
// every step) of a length-t window, cached until an argument changes.
func (b *TemporalBlock) planSteps(t int, out []int, dense bool) *blockSteps {
	if p := b.plan; p != nil && p.t == t && p.dense == dense &&
		(slices.Equal(p.out, out) || out == nil && len(p.out) == t) {
		return p
	}
	k, d := b.conv1.KernelSize, b.conv1.Dilation
	p := &blockSteps{t: t, dense: dense, out: slices.Clone(out)}
	if out == nil {
		p.out = stepRange(t)
	}
	mid := tapSteps(t, k, d, p.out, nil)
	p.in = tapSteps(t, k, d, mid, p.out)
	in := p.in
	if dense {
		in = nil
	}
	p.taps1 = convTaps(k, d, mid, in)
	p.taps2 = convTaps(k, d, p.out, mid)
	p.res = convTaps(1, 1, p.out, in)
	p.seq = stepRange(len(p.out))
	b.plan = p
	return p
}

// coneBlocks returns the temporal blocks l consists of — a TCN's, or a
// TemporalBlock itself (in one, so the hot path allocates nothing) —
// seen through a profiling wrapper; nil for any other layer.
func coneBlocks(l Layer, one *[1]*TemporalBlock) []*TemporalBlock {
	if w, ok := l.(*Profiled); ok {
		l = w.inner
	}
	switch v := l.(type) {
	case *TCN:
		return v.Blocks
	case *TemporalBlock:
		one[0] = v
		return one[:]
	}
	return nil
}

// coneLen reports how many leading layers form a run of temporal blocks
// that feeds a LastStep, the LastStep included; 0 when layers does not
// start with such a run. This is the one place the pair is recognised,
// for Sequential and core.Model alike.
func coneLen(layers []Layer) int {
	var one [1]*TemporalBlock
	for i, l := range layers {
		if coneBlocks(l, &one) != nil {
			continue
		}
		if w, ok := l.(*Profiled); ok {
			l = w.inner
		}
		if _, ok := l.(*LastStep); ok && i > 0 {
			return i + 1
		}
		break
	}
	return 0
}

// runBlocks runs the temporal blocks of layers over x. With lastOnly
// the final block produces the last time step alone and every earlier
// convolution just the steps under it; otherwise every step. The plan
// is walked back to front (each block's input steps are the outputs
// required of the block before), the arithmetic front to back, and each
// layer's share is timed into its profiling wrapper if it has one.
func runBlocks(a *InferArena, layers []Layer, x steps, t int, lastOnly bool) steps {
	var one [1]*TemporalBlock
	var last [1]int
	var out []int
	if lastOnly {
		last[0] = t - 1
		out = last[:]
	}
	for i := len(layers) - 1; i >= 0; i-- {
		blocks := coneBlocks(layers[i], &one)
		for j := len(blocks) - 1; j >= 0; j-- {
			out = blocks[j].planSteps(t, out, i == 0 && j == 0).in
		}
	}
	for _, l := range layers {
		w, _ := l.(*Profiled)
		t0 := w.start()
		for _, b := range coneBlocks(l, &one) {
			x = inferBlock(a, b, x)
		}
		w.observe(t0)
	}
	return x
}

// inferBlock is TemporalBlock's forward at the planned steps, kept in
// the GEMM's compact layout throughout: ReLU in place on each
// convolution's output (dropout is the identity at inference), then the
// residual add and final ReLU of eq. 5 in place on conv2's.
func inferBlock(a *InferArena, b *TemporalBlock, x steps) steps {
	p := b.plan
	h := b.conv1.inferTaps(a, x, p.taps1)
	rectify(h.data)
	h = b.conv2.inferTaps(a, h, p.taps2)
	rectify(h.data)
	res, pos := x, p.res
	if b.downsample != nil {
		res, pos = b.downsample.inferTaps(a, x, p.res), p.seq
	}
	residualReLU(h.data, res, pos)
	return h
}

// inferTaps is the convolution's inference kernel, for the full-length
// and the cone paths alike: gather the listed taps (see convTaps), seed
// the output rows with the bias and accumulate acolᵀ·wt on the packed
// GEMM. The [batch·n, out] output comes back as compact steps.
func (c *CausalConv1D) inferTaps(a *InferArena, x steps, taps []int) steps {
	n := c.stepCount(x.c, taps)
	acol := a.Get(c.InChannels*c.KernelSize, x.b*n)
	ycol := a.Get(x.b*n, c.OutChannels)
	gatherTaps(acol.Data, x, c.KernelSize, taps)
	if !c.frozen {
		c.bakeKernel()
	}
	seedRows(ycol.Data, c.B.Value.Data)
	acol.TMatMulAcc(c.wtInfer, ycol)
	return compactSteps(ycol.Data, x.b, c.OutChannels, n)
}

// stepCount checks the input's channel count and returns how many steps
// taps lists.
func (c *CausalConv1D) stepCount(channels int, taps []int) int {
	if channels != c.InChannels {
		panic(fmt.Sprintf("nn: CausalConv1D channel mismatch: input %d, layer %d", channels, c.InChannels))
	}
	return len(taps) / c.KernelSize
}

// requireSeq panics unless x is [batch, channels, time].
func requireSeq(layer string, x *tensor.Tensor) {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: %s requires [batch, channels, time], got %v", layer, x.Shape()))
	}
}

// fullTaps returns the taps of every step of a length-t window, for a
// convolution that is not part of a temporal block.
func (c *CausalConv1D) fullTaps(t int) []int {
	if len(c.taps) != c.KernelSize*t {
		c.taps = convTaps(c.KernelSize, c.Dilation, stepRange(t), nil)
	}
	return c.taps
}

// InferForward implements InferLayer.
func (c *CausalConv1D) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	requireSeq("CausalConv1D", x)
	b, t := x.Dim(0), x.Dim(2)
	h := c.inferTaps(a, denseSteps(x.Data, b, x.Dim(1), t), c.fullTaps(t))
	y := a.Get(b, h.c, t)
	scatterSteps(y.Data, h, t)
	return y
}

// inferRun runs a run of temporal-block layers on the arena path. When
// last (the LastStep the run feeds, possibly profiled) is non-nil only
// the cone under the final time step is computed and the result is
// LastStep's [batch, channels]; otherwise it is the full [batch,
// channels, time].
func inferRun(a *InferArena, layers []Layer, last Layer, x *tensor.Tensor) *tensor.Tensor {
	requireSeq("TemporalBlock", x)
	b, t := x.Dim(0), x.Dim(2)
	h := runBlocks(a, layers, denseSteps(x.Data, b, x.Dim(1), t), t, last != nil)
	shape := []int{b, h.c, t}
	if last != nil {
		shape = shape[:2]
	}
	y := a.Get(shape...)
	finishRun(y.Data, h, t, last)
	return y
}

// finishRun writes a run's result to y: every step back in the [batch,
// channels, time] layout, or — the cone's single step per sample already
// being LastStep's output — a copy timed as last's share.
func finishRun(y []float64, h steps, t int, last Layer) {
	if last == nil {
		scatterSteps(y, h, t)
		return
	}
	w, _ := last.(*Profiled)
	t0 := w.start()
	copy(y, h.data)
	w.observe(t0)
}

// InferChain runs layers in order on the arena path, as
// Sequential.InferForward does, except that a run of temporal blocks
// feeding a LastStep computes the receptive cone of the final time step
// only. The output is bitwise what layer-by-layer Forward(x, false)
// gives.
func InferChain(a *InferArena, layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	for i := 0; i < len(layers); i++ {
		if n := coneLen(layers[i:]); n > 0 {
			x = inferRun(a, layers[i:i+n-1], layers[i+n-1], x)
			i += n - 1
			continue
		}
		x = Infer(layers[i], a, x)
	}
	return x
}

// bakeKernel writes the effective kernel (weight norm applied) into
// wtInfer in the transposed [in·k, out] layout the GEMM consumes.
func (c *CausalConv1D) bakeKernel() {
	kk, out := c.InChannels*c.KernelSize, c.OutChannels
	if c.wtInfer == nil {
		c.wtInfer = tensor.New(kk, out)
	}
	w := c.effectiveKernel()
	for p := 0; p < kk; p++ {
		wrow := c.wtInfer.Data[p*out : (p+1)*out]
		for co := range wrow {
			wrow[co] = w.Data[co*kk+p]
		}
	}
}

// Freeze bakes the inference kernel of every convolution under l once,
// for a model whose weights will not change until it is replaced: the
// arena path then skips the weight norm and the transpose on every
// call. Call it where a model is published. A training-mode Forward or a
// Backward unfreezes the convolution it runs through, and code that
// writes weights any other way calls Unfreeze; an unfrozen convolution
// bakes per call, so it is never stale.
func Freeze(l Layer) { setFrozen(l, true) }

// Unfreeze makes every convolution under l derive its inference kernel
// from its weights per call again.
func Unfreeze(l Layer) { setFrozen(l, false) }

func setFrozen(l Layer, frozen bool) {
	VisitLayers(l, func(l Layer) {
		if c, ok := l.(*CausalConv1D); ok {
			if frozen {
				c.bakeKernel()
			}
			c.frozen = frozen
		}
	})
}
