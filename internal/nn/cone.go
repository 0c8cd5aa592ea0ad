package nn

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// This file is the training and the inference path of the convolutional
// layers: one kernel (forwardTaps, backwardTaps) and one block body
// (forwardSteps, backwardSteps). A causal convolution is computed only at
// the time steps somebody reads: a run of temporal blocks feeding a
// LastStep needs the final step of the last block, which needs K steps
// of the convolution before it, and so on down the receptive cone — 73
// conv output columns instead of 224 for the reference model (k=3,
// d=1/2/4, window 32). The gradient that comes back through LastStep is
// non-zero at that one step, so the backward pass stays inside the same
// cone. A convolution nobody prunes (CNN-LSTM's, a bare TCN) runs the
// same kernel with every step listed. Each kept output is a bias-seeded
// FMA chain ascending over (in-channel, tap), and each kept gradient an
// ascending chain or sum to which every step left out would have added
// an exact zero, so both passes are bitwise what computing every step
// gives wherever they are defined.
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

// n is the number of positions a sample holds, in either layout.
func (x steps) n() int { return x.sb / x.c }

// tapRun reports whether idx, the positions one tap reads, is pad steps
// of causal padding followed by consecutive positions — what gatherTaps
// and foldTaps move as one run when the positions are also unit-stride.
func tapRun(idx []int) (pad int, ok bool) {
	for pad < len(idx) && idx[pad] < 0 {
		pad++
	}
	for j := pad + 1; j < len(idx); j++ {
		if idx[j] != idx[j-1]+1 {
			return 0, false
		}
	}
	return pad, true
}

// gatherTaps is im2col over the listed steps only: row p = ci·k + kk of
// acol ([in·k, batch·n]) holds, for every (sample, step), the input
// position tap kk of that step reads, or zero where it falls in the
// causal padding.
func gatherTaps(acol []float64, x steps, k int, taps []int) {
	n := len(taps) / k
	m := x.b * n
	for kk := 0; kk < k; kk++ {
		idx := taps[kk*n : (kk+1)*n]
		pad, run := tapRun(idx)
		run = run && x.sp == 1
		for ci := 0; ci < x.c; ci++ {
			row := acol[(ci*k+kk)*m : (ci*k+kk+1)*m]
			for bi := 0; bi < x.b; bi++ {
				src := x.data[bi*x.sb+ci*x.sc:]
				dst := row[bi*n : (bi+1)*n]
				if run {
					clear(dst[:pad])
					if pad < n {
						copy(dst[pad:], src[idx[pad]:])
					}
					continue
				}
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
}

// foldTaps is gatherTaps' adjoint (col2im): row ci·k + kk of dacol is
// added onto the positions of dx that tap kk was gathered from, taps
// ascending, so every dx element is a fixed ascending sum over taps.
// Columns gathered from the causal padding go nowhere.
func foldTaps(dx steps, dacol []float64, k int, taps []int) {
	n := len(taps) / k
	m := dx.b * n
	for kk := 0; kk < k; kk++ {
		idx := taps[kk*n : (kk+1)*n]
		pad, run := tapRun(idx)
		run = run && dx.sp == 1
		for ci := 0; ci < dx.c; ci++ {
			row := dacol[(ci*k+kk)*m : (ci*k+kk+1)*m]
			for bi := 0; bi < dx.b; bi++ {
				dst := dx.data[bi*dx.sb+ci*dx.sc:]
				src := row[bi*n : (bi+1)*n]
				if run {
					if pad < n {
						dst = dst[idx[pad]:]
						for j, v := range src[pad:] {
							dst[j] += v
						}
					}
					continue
				}
				for j, pos := range idx {
					if pos >= 0 {
						dst[pos*dx.sp] += src[j]
					}
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

// rectify applies ReLU to xs in place and, given a mask, records which
// elements passed (see ReLU.passMask).
func rectify(xs []float64, mask []bool) {
	for i, v := range xs {
		pass := v > 0
		if !pass {
			xs[i] = 0
		}
		if mask != nil {
			mask[i] = pass
		}
	}
}

// residualReLU sets h = ReLU(h + res) on compact h, reading the
// residual of output step j at position pos[j] of res, and records the
// pass mask like rectify.
func residualReLU(h []float64, res steps, pos []int, mask []bool) {
	n, c := len(pos), res.c
	for bi := 0; bi < res.b; bi++ {
		for j, p := range pos {
			at := (bi*n + j) * c
			row := h[at : at+c]
			src := res.data[bi*res.sb+p*res.sp:]
			for ci, hv := range row {
				v := hv + src[ci*res.sc]
				pass := v > 0
				if !pass {
					v = 0
				}
				row[ci] = v
				if mask != nil {
					mask[at+ci] = pass
				}
			}
		}
	}
}

// addResidual is the adjoint of the residual read: row j of compact g is
// added onto position pos[j] of dx.
func addResidual(dx steps, g []float64, pos []int) {
	n, c := len(pos), dx.c
	for bi := 0; bi < dx.b; bi++ {
		for j, p := range pos {
			dst := dx.data[bi*dx.sb+p*dx.sp:]
			for ci, v := range g[(bi*n+j)*c : (bi*n+j+1)*c] {
				dst[ci*dx.sc] += v
			}
		}
	}
}

// scatterSteps copies compact h, which holds every step of the window,
// back into the [batch, channels, time] layout.
func scatterSteps(y []float64, h steps, t int) {
	for u := 0; u < h.b*h.c; u++ {
		src := h.data[u/h.c*h.sb+u%h.c:]
		row := y[u*t : (u+1)*t]
		for tt := range row {
			row[tt] = src[tt*h.sp]
		}
	}
}

// gatherSteps is scatterSteps' inverse: a [batch, channels, time]
// gradient into the compact layout of every step.
func gatherSteps(h steps, y []float64, t int) {
	for u := 0; u < h.b*h.c; u++ {
		dst := h.data[u/h.c*h.sb+u%h.c:]
		for tt, v := range y[u*t : (u+1)*t] {
			dst[tt*h.sp] = v
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
// for Sequential and core.Model, forward and backward alike.
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
func runBlocks(a *InferArena, layers []Layer, x steps, t int, lastOnly, train bool) steps {
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
			x = b.forwardSteps(a, x, train)
		}
		w.observe(t0, false)
	}
	return x
}

// forwardSteps is TemporalBlock's forward at the planned steps, for
// training, evaluation and serving alike, kept in the GEMM's compact
// layout throughout: ReLU and spatial dropout in place on each
// convolution's output, then the residual add and final ReLU of eq. 5 in
// place on conv2's. On the arena it is grad-free: dropout is the
// identity and nothing Backward reads — plan, masks, columns — is
// written. Otherwise all of it is kept on the layers.
func (b *TemporalBlock) forwardSteps(a *InferArena, x steps, train bool) steps {
	p, keep := b.plan, a == nil
	if keep {
		b.fwd = p
	}
	h := b.conv1.forwardTaps(a, x, p.taps1, train)
	rectify(h.data, b.relu1.passMask(len(h.data), keep))
	if keep {
		b.drop1.draw(h.b*h.c, train)
		b.drop1.scale(h)
	}
	h = b.conv2.forwardTaps(a, h, p.taps2, train)
	rectify(h.data, b.relu2.passMask(len(h.data), keep))
	if keep {
		b.drop2.draw(h.b*h.c, train)
		b.drop2.scale(h)
	}
	res, pos := x, p.res
	if b.downsample != nil {
		res, pos = b.downsample.forwardTaps(a, x, p.res, train), p.seq
	}
	residualReLU(h.data, res, pos, b.finalReLU.passMask(len(h.data), keep))
	return h
}

// backwardSteps is forwardSteps' mirror. g, the gradient of the block's
// compact output, is the block's to overwrite. The result is the
// gradient of the block's input in that input's layout: [batch,
// channels, time] for the first block of a run (zero outside the cone),
// compact at the planned input steps otherwise.
func (b *TemporalBlock) backwardSteps(g *tensor.Tensor) *tensor.Tensor {
	p, c1, c2 := b.fwd, b.conv1, b.conv2
	nOut, nMid := len(p.out), len(p.taps1)/c1.KernelSize
	bn := g.Dim(0) / nOut
	b.finalReLU.maskGrad(g.Data)
	// The residual branch reads g as it stands; F(x) works on a copy.
	gf := c2.outGrad(g.Dim(0))
	copy(gf.Data, g.Data)
	b.drop2.scale(compactSteps(gf.Data, bn, c2.OutChannels, nOut))
	b.relu2.maskGrad(gf.Data)
	gm := c1.outGrad(bn * nMid)
	gm.Zero()
	mid := compactSteps(gm.Data, bn, c1.OutChannels, nMid)
	c2.backwardTaps(gf, mid, p.taps2)
	b.drop1.scale(mid)
	b.relu1.maskGrad(gm.Data)

	var dx *tensor.Tensor
	var in steps
	if p.dense {
		dx = tensor.New(bn, c1.InChannels, p.t)
		in = denseSteps(dx.Data, bn, c1.InChannels, p.t)
	} else {
		dx = tensor.New(bn*len(p.in), c1.InChannels)
		in = compactSteps(dx.Data, bn, c1.InChannels, len(p.in))
	}
	c1.backwardTaps(gm, in, p.taps1)
	if b.downsample != nil {
		b.downsample.backwardTaps(g, in, p.res)
	} else {
		addResidual(in, g.Data, p.res)
	}
	return dx
}

// forwardTaps is the convolution's forward kernel, the only one: gather
// the listed taps (see convTaps), bake the kernel unless frozen, seed the
// output rows with the bias and accumulate acolᵀ·wt on the packed GEMM.
// The [batch·n, out] output comes back as compact steps. Serving draws
// both buffers from the arena; with a nil arena they are the layer's
// own, grow-only, acol stays for backwardTaps, and the kernel is always
// baked from the weights as they are — only the arena trusts Freeze.
func (c *CausalConv1D) forwardTaps(a *InferArena, x steps, taps []int, train bool) steps {
	if x.c != c.InChannels {
		panic(fmt.Sprintf("nn: CausalConv1D channel mismatch: input %d, layer %d", x.c, c.InChannels))
	}
	if train {
		c.frozen = false // the weights are about to move
	}
	kk, m := c.InChannels*c.KernelSize, x.b*len(taps)/c.KernelSize
	var acol, ycol *tensor.Tensor
	if a != nil {
		acol, ycol = a.Get(kk, m), a.Get(m, c.OutChannels)
	} else {
		c.acol, c.ycol = scratch2D(c.acol, kk, m), scratch2D(c.ycol, m, c.OutChannels)
		acol, ycol = c.acol, c.ycol
	}
	gatherTaps(acol.Data, x, c.KernelSize, taps)
	if a == nil || !c.frozen {
		c.bakeKernel()
	}
	seedRows(ycol.Data, c.B.Value.Data)
	acol.TMatMulAcc(c.wt, ycol)
	return compactSteps(ycol.Data, x.b, c.OutChannels, m/x.b)
}

// backwardTaps is the convolution's backward kernel. g is the gradient
// of the compact output of the last forwardTaps off the arena, whose
// taps the caller hands back. Both products run on the packed GEMM
// against what that forward kept: the kernel gradient is dwt = acol·g,
// the bias gradient g's column sums, and the gradient of the gathered
// columns dacol = wt·gᵀ, which foldTaps adds onto dx. Every element of
// dwt and dacol is one ascending FMA chain and every dx element a fixed
// ascending sum over taps, so the results do not depend on the worker
// count, and a sample's dx does not depend on the rest of the batch.
func (c *CausalConv1D) backwardTaps(g *tensor.Tensor, dx steps, taps []int) {
	c.frozen = false
	in, out, k := c.InChannels, c.OutChannels, c.KernelSize
	kk, m := in*k, g.Dim(0)
	c.dacol = scratch2D(c.dacol, kk, m)
	if c.dwt == nil {
		c.dwt = tensor.New(kk, out)
		c.dwScratch = tensor.New(out, in, k)
	}
	db := c.B.Grad.Data[:out]
	for i := 0; i < m; i++ {
		for co, v := range g.Data[i*out : (i+1)*out] {
			db[co] += v
		}
	}
	c.acol.MatMulInto(g, c.dwt)
	dW := c.dwScratch
	for p := 0; p < kk; p++ {
		for co, v := range c.dwt.Data[p*out : (p+1)*out] {
			dW.Data[co*kk+p] = v
		}
	}
	c.accumulateKernelGrad(dW)
	c.wt.MatMulTInto(g, c.dacol)
	foldTaps(dx, c.dacol.Data, k, taps)
}

// outGrad returns the layer's scratch for the gradient of a compact
// output of the given row count; contents are unspecified.
func (c *CausalConv1D) outGrad(rows int) *tensor.Tensor {
	c.gcol = scratch2D(c.gcol, rows, c.OutChannels)
	return c.gcol
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

// everyStep is the forward of a convolution nobody prunes, behind both
// Forward (nil arena) and InferForward.
func (c *CausalConv1D) everyStep(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	requireSeq("CausalConv1D", x)
	b, t := x.Dim(0), x.Dim(2)
	h := c.forwardTaps(a, denseSteps(x.Data, b, x.Dim(1), t), c.fullTaps(t), train)
	y := a.Get(b, h.c, t)
	scatterSteps(y.Data, h, t)
	return y
}

// forwardRun runs a run of temporal-block layers. When last (the
// LastStep the run feeds, possibly profiled) is non-nil only the cone
// under the final time step is computed and the result is LastStep's
// [batch, channels] — a copy, timed as last's share, because the cone's
// single step per sample sits in a buffer the next forward overwrites;
// otherwise it is the full [batch, channels, time]. The result comes
// from the arena, or is fresh when a is nil.
func forwardRun(a *InferArena, layers []Layer, last Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	requireSeq("TemporalBlock", x)
	b, t := x.Dim(0), x.Dim(2)
	h := runBlocks(a, layers, denseSteps(x.Data, b, x.Dim(1), t), t, last != nil, train)
	if last == nil {
		y := a.Get(b, h.c, t)
		scatterSteps(y.Data, h, t)
		return y
	}
	w, _ := last.(*Profiled)
	t0 := w.start()
	y := a.Get(b, h.c)
	copy(y.Data, h.data)
	w.observe(t0, false)
	return y
}

// backwardRun is the mirror of a forwardRun off the arena: grad is
// [batch, channels] when the run fed last — LastStep's tensor of zeros
// is never built — and [batch, channels, time] otherwise; the result is
// the gradient of the run's [batch, channels, time] input. grad is the
// caller's and is copied before the blocks mask it in place.
func backwardRun(layers []Layer, last Layer, grad *tensor.Tensor) *tensor.Tensor {
	var g *tensor.Tensor
	if last != nil {
		w, _ := last.(*Profiled)
		t0 := w.start()
		g = grad.Clone()
		w.observe(t0, true)
	} else {
		requireSeq("TemporalBlock", grad)
		b, c, t := grad.Dim(0), grad.Dim(1), grad.Dim(2)
		g = tensor.New(b*t, c)
		gatherSteps(compactSteps(g.Data, b, c, t), grad.Data, t)
	}
	var one [1]*TemporalBlock
	for i := len(layers) - 1; i >= 0; i-- {
		w, _ := layers[i].(*Profiled)
		t0 := w.start()
		blocks := coneBlocks(layers[i], &one)
		for j := len(blocks) - 1; j >= 0; j-- {
			g = blocks[j].backwardSteps(g)
		}
		w.observe(t0, true)
	}
	return g
}

// runChain runs layers in order — on the arena path when a is non-nil,
// through Forward(x, train) otherwise — except that a run of temporal
// blocks feeding a LastStep computes the receptive cone of the final
// time step only. The output is bitwise what calling the layers one by
// one gives.
func runChain(a *InferArena, layers []Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	for i := 0; i < len(layers); i++ {
		switch n := coneLen(layers[i:]); {
		case n > 0:
			x = forwardRun(a, layers[i:i+n-1], layers[i+n-1], x, train)
			i += n - 1
		case a != nil:
			x = Infer(layers[i], a, x)
		default:
			x = layers[i].Forward(x, train)
		}
	}
	return x
}

// ForwardChain is Sequential's and core.Model's Forward: see runChain.
func ForwardChain(layers []Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, layers, x, train)
}

// InferChain is their InferForward: see runChain.
func InferChain(a *InferArena, layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	return runChain(a, layers, x, false)
}

// BackwardChain is the mirror of ForwardChain, splitting layers into the
// same runs: the gradient crosses a run of temporal blocks and its
// LastStep inside the cone, and every other layer through its Backward.
func BackwardChain(layers []Layer, grad *tensor.Tensor) *tensor.Tensor {
	if len(layers) == 0 {
		return grad
	}
	n := coneLen(layers)
	grad = BackwardChain(layers[max(n, 1):], grad)
	if n > 0 {
		return backwardRun(layers[:n-1], layers[n-1], grad)
	}
	return layers[0].Backward(grad)
}

// bakeKernel writes the effective kernel (weight norm applied) into wt
// in the transposed [in·k, out] layout the GEMM consumes.
func (c *CausalConv1D) bakeKernel() {
	kk, out := c.InChannels*c.KernelSize, c.OutChannels
	if c.wt == nil {
		c.wt = tensor.New(kk, out)
	}
	w := c.effectiveKernel()
	for p := 0; p < kk; p++ {
		wrow := c.wt.Data[p*out : (p+1)*out]
		for co := range wrow {
			wrow[co] = w.Data[co*kk+p]
		}
	}
}

// Freeze bakes the kernel of every convolution under l once, for a
// model whose weights will not change until it is replaced: the arena
// path then skips the weight norm and the transpose on every call. Call
// it where a model is published. A training-mode Forward or a Backward
// unfreezes the convolution it runs through, and code that writes
// weights any other way calls Unfreeze; an unfrozen convolution bakes
// per call, so it is never stale.
func Freeze(l Layer) { setFrozen(l, true) }

// Unfreeze makes every convolution under l derive its arena-path kernel
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
