package nn

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// This file is the training and the inference path of the convolutional
// layers: one kernel (forwardTaps; backwardTaps and paramGrads) and one
// block body (forwardSteps, backwardSteps), each working on the batch
// rows of one chunk of a pass (see chain.go). A causal convolution is
// computed only at the time steps somebody reads: a run of temporal
// blocks feeding a LastStep needs the final step of the last block, which
// needs K steps of the convolution before it, and so on down the
// receptive cone — 73 conv output columns instead of 224 for the
// reference model (k=3, d=1/2/4, window 32). The gradient that comes back
// through LastStep is non-zero at that one step, so the backward pass
// stays inside the same cone. A convolution nobody prunes (CNN-LSTM's, a
// bare TCN) runs the same kernel with every step listed. Each kept output
// is a bias-seeded FMA chain ascending over (in-channel, tap), and each
// kept gradient an ascending chain or sum to which every step left out
// would have added an exact zero, so both passes are bitwise what
// computing every step gives wherever they are defined.
//
// The step lists are plain ints, planned once per (block, window length).
// Where a tap list lies on a grid — tap kk of output step j reading input
// position b + a·j + δ·kk, none of them in the causal padding — the
// im2col matrix is a two-level strided view of the input (tensor.View),
// and the GEMM reads the taps in place in both passes: no copy. Every
// list of a cone inside the window is on a grid; a list that reads the
// padding (a convolution over every step) is gathered first.

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

// rows returns the view of samples [lo, hi) of x.
func (x steps) rows(lo, hi int) steps {
	x.data, x.b = x.data[lo*x.sb:hi*x.sb], hi-lo
	return x
}

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

// gatherTaps copies the listed taps of the samples x holds into acol, for
// a tap list that is not on a grid (see tapList): tap kk of step j of
// channel ci of sample bi lands at ((bi·c + ci)·k + kk)·n + j, or is
// zero where it falls in the causal padding. Seen as gathered steps the
// copy has its taps on a grid (see gathered), so the GEMM reads it
// through the same view as an input whose taps need no copy.
func gatherTaps(acol []float64, x steps, k int, taps []int) {
	n := len(taps) / k
	for kk := 0; kk < k; kk++ {
		idx := taps[kk*n : (kk+1)*n]
		pad, run := tapRun(idx)
		run = run && x.sp == 1
		for bi := 0; bi < x.b; bi++ {
			for ci := 0; ci < x.c; ci++ {
				src := x.data[bi*x.sb+ci*x.sc:]
				at := ((bi*x.c+ci)*k + kk) * n
				dst := acol[at : at+n]
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

// gathered is acol, where gatherTaps copied k taps of n steps of x's
// samples, as steps — per channel, the k·n positions of its taps — and
// the grid they lie on: tap kk of step j at position kk·n + j.
func gathered(acol []float64, x steps, k, n int) (steps, tapGrid) {
	return steps{data: acol, b: x.b, c: x.c, sb: x.c * k * n, sc: k * n, sp: 1}, tapGrid{a: 1, d: n}
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
// elements passed (see ReLU.rows).
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
func convTaps(k, d int, out, in []int) tapList {
	idx := make([]int, 0, k*len(out))
	for kk := 0; kk < k; kk++ {
		for _, s := range out {
			q := s - (k-1-kk)*d
			if q >= 0 && in != nil {
				q, _ = slices.BinarySearch(in, q) // planned, so present
			}
			idx = append(idx, max(q, -1))
		}
	}
	return newTapList(idx, k)
}

// tapGrid places tap kk of output step j at input position b + a·j + d·kk.
type tapGrid struct{ b, a, d int }

// view is the im2col matrix of x's samples — row (sample, step j < n),
// step (channel, tap kk < k) — for taps on g: x itself, read in place.
func (g tapGrid) view(x steps, k, n int) tensor.View {
	return tensor.View{Off: g.b * x.sp, M2: n, T1: x.sb, T2: g.a * x.sp, K2: k, S1: x.sc, S2: g.d * x.sp}
}

// viewT is view's transpose: row (channel, tap), step (sample, step).
func (g tapGrid) viewT(x steps, k, n int) tensor.View {
	return tensor.View{Off: g.b * x.sp, M2: k, T1: x.sc, T2: g.d * x.sp, K2: n, S1: x.sb, S2: g.a * x.sp}
}

// tapList is a planned tap list: idx as convTaps lists it and, when every
// tap lies on one grid and none in the causal padding (onGrid), that
// grid. The GEMM reads the taps of such a list from the input in place;
// any other list is gathered first (gatherTaps). Every list planned for
// a cone inside the window is on a grid.
type tapList struct {
	idx    []int
	n      int // output steps
	grid   tapGrid
	onGrid bool
}

func newTapList(idx []int, k int) tapList {
	n := len(idx) / k
	t := tapList{idx: idx, n: n}
	if n == 0 {
		return t
	}
	g := tapGrid{b: idx[0]}
	if n > 1 {
		g.a = idx[1] - idx[0]
	}
	if k > 1 {
		g.d = idx[n] - idx[0]
	}
	if g.b < 0 || g.a < 0 || g.d < 0 {
		return t
	}
	for kk := 0; kk < k; kk++ {
		for j, pos := range idx[kk*n : (kk+1)*n] {
			if pos != g.b+g.a*j+g.d*kk {
				return t
			}
		}
	}
	t.grid, t.onGrid = g, true
	return t
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
	dense        bool    // the input is the model's, holding every step; else the block before's out = in
	out, in      []int   // in is what the block before must produce
	taps1, taps2 tapList // conv1 into the input, conv2 into conv1's steps
	res          tapList // input position of each out step: the residual, and the 1×1 downsample's taps
	seq          []int   // 0..len(out)−1: where the downsample's own output holds them
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
// TemporalBlock itself (in one, so the hot path allocates nothing); nil
// for any other layer.
func coneBlocks(l Layer, one *[1]*TemporalBlock) []*TemporalBlock {
	switch v := l.(type) {
	case *TCN:
		return v.Blocks
	case *TemporalBlock:
		one[0] = v
		return one[:]
	}
	return nil
}

// blockRun is a stretch of temporal-block layers — a TCN's blocks, or
// TemporalBlocks staged one by one — with their timers, and whether they
// feed a LastStep (last, timed into lastT). With last the run computes
// the receptive cone of the final time step and its output is LastStep's
// [batch, channels]; without, every step, [batch, channels, time]. In
// between, activations stay in the GEMM's compact layout.
type blockRun struct {
	chain
	last  bool
	lastT *stepTimes

	// The last backward's blocks back to front, the timer of the layer
	// each belongs to, and the gradients between them: gs[k] is the
	// output gradient of blocks[k], gs[k+1] its input gradient.
	blocks []*TemporalBlock
	owners []*stepTimes
	gs     []*tensor.Tensor
}

// plan plans the run's steps for a length-t window — back to front, each
// block's input steps being the outputs required of the block before.
func (r *blockRun) plan(t int) {
	var one [1]*TemporalBlock
	var last [1]int
	var out []int
	if r.last {
		last[0] = t - 1
		out = last[:]
	}
	for i := len(r.layers) - 1; i >= 0; i-- {
		blocks := coneBlocks(r.layers[i], &one)
		for j := len(blocks) - 1; j >= 0; j-- {
			out = blocks[j].planSteps(t, out, i == 0 && j == 0).in
		}
	}
}

// begin plans the run's steps for x's window, readies every block for the
// batch, and returns the output buffer.
func (r *blockRun) begin(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	requireSeq("TemporalBlock", x)
	b, t := x.Dim(0), x.Dim(2)
	r.plan(t)
	var one [1]*TemporalBlock
	h := denseSteps(x.Data, b, x.Dim(1), t)
	for i, l := range r.layers {
		r.timer(i).count(false)
		for _, blk := range coneBlocks(l, &one) {
			h = blk.prepare(a, h, train)
		}
	}
	c := h.c
	if !r.last {
		return a.Get(b, c, t)
	}
	r.lastT.count(false)
	return a.Get(b, c)
}

// rows runs samples [lo, hi) through the blocks, each layer's share timed
// into its timer, and writes their rows of y: the final step
// — copied, timed as last's share, because it sits in a buffer the next
// forward overwrites — or every step.
func (r *blockRun) rows(a *InferArena, x, y *tensor.Tensor, lo, hi int) {
	t := x.Dim(2)
	h := denseSteps(x.Data, x.Dim(0), x.Dim(1), t).rows(lo, hi)
	var one [1]*TemporalBlock
	for i, l := range r.layers {
		tm := r.timer(i)
		t0 := tm.start()
		for _, blk := range coneBlocks(l, &one) {
			h = blk.forwardSteps(a, h, lo)
		}
		tm.observe(t0, false)
	}
	if !r.last {
		scatterSteps(y.Data[lo*h.c*t:], h, t)
		return
	}
	t0 := r.lastT.start()
	copy(y.Data[lo*h.c:hi*h.c], h.data)
	r.lastT.observe(t0, false)
}

// beginBackward readies the backward of the run's last pass off the
// arena. grad is [batch, channels] when the run fed last — LastStep's
// tensor of zeros is never built — and [batch, channels, time]
// otherwise; the blocks mask their output gradient in place, so the rows
// copy grad into a buffer of the run's own. The result is the run's
// input gradient, [batch, channels, time], zero outside the cone.
func (r *blockRun) beginBackward(grad *tensor.Tensor) *tensor.Tensor {
	b := grad.Dim(0)
	var g *tensor.Tensor
	if r.last {
		r.lastT.count(true)
		g = tensor.New(b, grad.Dim(1))
	} else {
		requireSeq("TemporalBlock", grad)
		g = tensor.New(b*grad.Dim(2), grad.Dim(1))
	}
	r.blocks, r.owners, r.gs = r.blocks[:0], r.owners[:0], append(r.gs[:0], g)
	var one [1]*TemporalBlock
	for i := len(r.layers) - 1; i >= 0; i-- {
		tm := r.timer(i)
		tm.count(true)
		blocks := coneBlocks(r.layers[i], &one)
		for j := len(blocks) - 1; j >= 0; j-- {
			r.blocks, r.owners = append(r.blocks, blocks[j]), append(r.owners, tm)
			r.gs = append(r.gs, blocks[j].beginBackward(b))
		}
	}
	return r.gs[len(r.gs)-1]
}

// backwardRows runs samples [lo, hi) of the gradient back through the
// blocks.
func (r *blockRun) backwardRows(grad *tensor.Tensor, lo, hi int) {
	g := r.gs[0]
	if r.last {
		t0 := r.lastT.start()
		c := grad.Dim(1)
		copy(g.Data[lo*c:hi*c], grad.Data[lo*c:hi*c])
		r.lastT.observe(t0, true)
	} else {
		c, t := grad.Dim(1), grad.Dim(2)
		gatherSteps(compactSteps(g.Data, grad.Dim(0), c, t).rows(lo, hi), grad.Data[lo*c*t:], t)
	}
	for k, blk := range r.blocks {
		t0 := r.owners[k].start()
		blk.backwardSteps(r.gs[k], r.gs[k+1], lo, hi)
		r.owners[k].observe(t0, true)
	}
}

// gradJobs appends the parameter-gradient jobs of every block, the
// first block's (the largest) first.
func (r *blockRun) gradJobs(jobs []gradJob) []gradJob {
	for k := len(r.blocks) - 1; k >= 0; k-- {
		jobs = r.blocks[k].gradJobs(jobs, r.owners[k], r.gs[k])
	}
	return jobs
}

// prepare readies the block for a pass over x, the whole batch of its
// input, on its plan: the convolutions, and off the arena the ReLU masks
// and the dropout masks — drawn here, one per (sample, channel) in
// order, the draws a whole-batch pass makes, so that chunks share them
// and the streams advance as they always have. It returns the whole
// batch of the block's output, which holds data only off the arena.
func (b *TemporalBlock) prepare(a *InferArena, x steps, train bool) steps {
	p := b.plan
	batch, nMid, nOut := x.b, p.taps1.n, len(p.out)
	mid := b.conv1.prepare(a, x, p.taps1, train)
	out := b.conv2.prepare(a, mid, p.taps2, train)
	if b.downsample != nil {
		b.downsample.prepare(a, x, p.res, train)
	}
	if a != nil {
		return out
	}
	b.fwd = p
	c := b.conv1.OutChannels
	b.relu1.size(batch * nMid * c)
	b.relu2.size(batch * nOut * c)
	b.finalReLU.size(batch * nOut * c)
	b.drop1.draw(batch*c, train)
	b.drop2.draw(batch*c, train)
	return out
}

// forwardSteps is TemporalBlock's forward body at the planned steps, for
// training, evaluation and serving alike: x holds the samples from lo on,
// and the result is their rows of the block's compact output. ReLU and
// spatial dropout run in place on each convolution's output, then the
// residual add and final ReLU of eq. 5 in place on conv2's. On the arena
// it is grad-free: dropout is the identity and nothing Backward reads is
// written.
func (b *TemporalBlock) forwardSteps(a *InferArena, x steps, lo int) steps {
	p, keep := b.plan, a == nil
	h := b.conv1.forwardTaps(a, x, lo, p.taps1)
	rectify(h.data, b.relu1.rows(h, lo, keep))
	if keep {
		b.drop1.scale(h, lo)
	}
	h = b.conv2.forwardTaps(a, h, lo, p.taps2)
	rectify(h.data, b.relu2.rows(h, lo, keep))
	if keep {
		b.drop2.scale(h, lo)
	}
	res, pos := x, p.res.idx
	if b.downsample != nil {
		res, pos = b.downsample.forwardTaps(a, x, lo, p.res), p.seq
	}
	residualReLU(h.data, res, pos, b.finalReLU.rows(h, lo, keep))
	return h
}

// beginBackward readies the backward of the block's last pass off the
// arena over batch samples and returns the buffer of its input gradient:
// for the first block of a run a fresh [batch, channels, time] tensor of
// zeros, the run's result; otherwise the block's own scratch, compact at
// the planned input steps, whose rows backwardSteps clears.
func (b *TemporalBlock) beginBackward(batch int) *tensor.Tensor {
	p, c1, c2 := b.fwd, b.conv1, b.conv2
	nOut, nMid := len(p.out), p.taps1.n
	c1.readyBackward(batch*nMid, true)
	c2.readyBackward(batch*nOut, true)
	if b.downsample != nil {
		b.downsample.readyBackward(batch*nOut, false)
	}
	if p.dense {
		return tensor.New(batch, c1.InChannels, p.t)
	}
	b.dx = scratch2D(b.dx, batch*len(p.in), c1.InChannels)
	return b.dx
}

// backwardSteps is forwardSteps' mirror for samples [lo, hi): g is the
// gradient of the block's compact output, whose rows it masks in place,
// and dx the block's input gradient, onto whose rows it adds.
func (b *TemporalBlock) backwardSteps(g, dx *tensor.Tensor, lo, hi int) {
	p, c1, c2 := b.fwd, b.conv1, b.conv2
	nOut, nMid, c := len(p.out), p.taps1.n, c2.OutChannels
	out := g.Data[lo*nOut*c : hi*nOut*c]
	maskGrad(out, b.finalReLU.mask[lo*nOut*c:])
	// The residual branch reads g as it stands; F(x) works on a copy.
	gf := c2.gcol.Data[lo*nOut*c : hi*nOut*c]
	copy(gf, out)
	b.drop2.scale(compactSteps(gf, hi-lo, c, nOut), lo)
	maskGrad(gf, b.relu2.mask[lo*nOut*c:])
	gm := c1.gcol.Data[lo*nMid*c : hi*nMid*c]
	clear(gm)
	mid := compactSteps(gm, hi-lo, c, nMid)
	c2.backwardTaps(gf, mid, lo, p.taps2.idx)
	b.drop1.scale(mid, lo)
	maskGrad(gm, b.relu1.mask[lo*nMid*c:])

	var in steps
	if p.dense {
		in = denseSteps(dx.Data, dx.Dim(0), c1.InChannels, p.t).rows(lo, hi)
	} else {
		in = compactSteps(dx.Data, dx.Dim(0)/len(p.in), c1.InChannels, len(p.in)).rows(lo, hi)
		clear(in.data)
	}
	c1.backwardTaps(gm, in, lo, p.taps1.idx)
	if b.downsample != nil {
		b.downsample.backwardTaps(out, in, lo, p.res.idx)
	} else {
		addResidual(in, out, p.res.idx)
	}
}

// gradJobs appends one job per convolution of the block: its kernel and
// bias gradients over the whole batch, timed into t. g is the block's
// output gradient, what the 1×1 downsample saw.
func (b *TemporalBlock) gradJobs(jobs []gradJob, t *stepTimes, g *tensor.Tensor) []gradJob {
	jobs = append(jobs, gradJob{t: t, row: b.conv1}, gradJob{t: t, row: b.conv2})
	if b.downsample != nil {
		b.downsample.gcol = g // the gradient of its output is the block's
		jobs = append(jobs, gradJob{t: t, row: b.downsample})
	}
	return jobs
}

// prepare readies the convolution for a pass over x, the whole batch of
// its input, at the taps listed: off the arena it sizes ycol — and acol,
// if the taps are not on a grid — and keeps where paramGrads reads the
// pass's taps: x itself, which must then stay as it is until the
// gradient jobs have run, or acol. It bakes the kernel unless the
// convolution is frozen — once per pass, before any chunk reads it. A
// frozen convolution's kernel is only read, so a published model's
// evaluation pass runs beside its serving forwards. It returns the whole
// batch of the output, compact, which holds data only off the arena.
func (c *CausalConv1D) prepare(a *InferArena, x steps, taps tapList, train bool) steps {
	if train {
		c.pwt = nil // the weights are about to move
	}
	if c.pwt == nil {
		c.bakeKernel()
	}
	k, n, out := c.KernelSize, taps.n, c.OutChannels
	y := steps{b: x.b, c: out, sb: n * out, sc: 1, sp: out}
	if a != nil {
		return y
	}
	c.ycol = scratch2D(c.ycol, x.b*n, out)
	y.data = c.ycol.Data
	c.src, c.srcGrid = x, taps.grid
	if !taps.onGrid {
		c.acol = scratch2D(c.acol, x.b, x.c*k*n)
		c.src, c.srcGrid = gathered(c.acol.Data, x, k, n)
	}
	return y
}

// forwardTaps is the convolution's forward kernel, the only one, for the
// samples x holds, the batch's from lo on: seed the output rows with the
// bias and accumulate A·wt on the GEMM against the kernel prepare baked,
// where A, the im2col matrix of the listed taps (see convTaps), is a
// view of x — or, for taps not on a grid, of their copy in acol
// (gatherTaps). The [samples·n, out] output comes back as compact steps.
// Serving draws its buffers from the arena; otherwise they are the
// chunk's rows of ycol and acol.
func (c *CausalConv1D) forwardTaps(a *InferArena, x steps, lo int, taps tapList) steps {
	if x.c != c.InChannels {
		panic(fmt.Sprintf("nn: CausalConv1D channel mismatch: input %d, layer %d", x.c, c.InChannels))
	}
	k, n := c.KernelSize, taps.n
	m := x.b * n
	var ycol *tensor.Tensor
	if a != nil {
		ycol = a.Get(m, c.OutChannels)
	} else {
		ycol = c.ycol.Rows(lo*n, lo*n+m)
	}
	src, grid := x, taps.grid
	if !taps.onGrid {
		var acol *tensor.Tensor
		if a != nil {
			acol = a.Get(x.b, x.c*k*n)
		} else {
			acol = c.acol.Rows(lo, lo+x.b)
		}
		gatherTaps(acol.Data, x, k, taps.idx)
		src, grid = gathered(acol.Data, x, k, n)
	}
	seedRows(ycol.Data, c.B.Value.Data)
	tensor.MatMulViewAcc(src.data, grid.view(src, k, n), c.wt, c.pwt, ycol)
	return compactSteps(ycol.Data, x.b, c.OutChannels, n)
}

// readyBackward readies the backward of the last pass off the arena over
// m output columns: the buffers of the gradient of the im2col matrix
// and, with out, of the gradient of the output, which the rows fill.
func (c *CausalConv1D) readyBackward(m int, out bool) {
	c.pwt = nil
	c.dacol = scratch2D(c.dacol, c.InChannels*c.KernelSize, m)
	if out {
		c.gcol = scratch2D(c.gcol, m, c.OutChannels)
	}
}

// colBlock returns the [rows, cols] block of the [rows, m] scratch buf
// that holds columns [col, col+cols) — buf itself when that is all of
// them. A chunk's columns of dacol are laid out together, each chunk's
// block after the last one's, so that the GEMM writes its block whole.
func colBlock(buf *tensor.Tensor, col, cols int) *tensor.Tensor {
	rows := buf.Dim(0)
	if col == 0 && cols == buf.Dim(1) {
		return buf
	}
	return tensor.FromSlice(buf.Data[rows*col:rows*(col+cols)], rows, cols)
}

// backwardTaps is the data half of the convolution's backward, for the
// samples dx holds, the batch's from lo on: g is the gradient of their
// compact output rows, and foldTaps adds the gradient of the im2col
// matrix, dacol = wt·gᵀ on the packed GEMM, onto dx. Every dacol element
// is one ascending FMA chain and every dx element a fixed ascending sum
// over taps, so a sample's dx depends neither on the rest of the batch
// nor on the worker count.
func (c *CausalConv1D) backwardTaps(g []float64, dx steps, lo int, taps []int) {
	m := len(g) / c.OutChannels
	dacol := colBlock(c.dacol, lo*(m/dx.b), m)
	c.wt.MatMulTInto(tensor.FromSlice(g, m, c.OutChannels), dacol)
	foldTaps(dx, dacol.Data, c.KernelSize, taps)
}

// paramGrads implements rowLayer, the parameter half: the bias gradient
// is g's column sums and the kernel gradient dwt = Aᵀ·g, where g (gcol)
// is the gradient of the last pass's whole compact output and A that
// pass's im2col matrix, read in place through the transposed view of the
// taps prepare kept — one product over the whole batch. Each dwt element
// is one FMA chain over the batch in order, so it does not depend on how
// the pass was chunked.
func (c *CausalConv1D) paramGrads() {
	in, out, k, g := c.InChannels, c.OutChannels, c.KernelSize, c.gcol
	kk, m := in*k, g.Dim(0)
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
	clear(c.dwt.Data)
	tensor.MatMulViewAcc(c.src.data, c.srcGrid.viewT(c.src, k, m/c.src.b), g, nil, c.dwt)
	dW := c.dwScratch
	for p := 0; p < kk; p++ {
		for co, v := range c.dwt.Data[p*out : (p+1)*out] {
			dW.Data[co*kk+p] = v
		}
	}
	c.accumulateKernelGrad(dW)
}

// requireSeq panics unless x is [batch, channels, time].
func requireSeq(layer string, x *tensor.Tensor) {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: %s requires [batch, channels, time], got %v", layer, x.Shape()))
	}
}

// fullTaps returns the taps of every step of a length-t window, for a
// convolution that is not part of a temporal block.
func (c *CausalConv1D) fullTaps(t int) tapList {
	if c.taps.idx == nil || c.taps.n != t {
		c.taps = convTaps(c.KernelSize, c.Dilation, stepRange(t), nil)
	}
	return c.taps
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

// Freeze readies every layer under l for a model whose weights will not
// change until it is replaced: each convolution bakes its kernel, and
// the kernel and every Dense and FeatureAttention weight matrix is packed
// into the GEMM's panels once (tensor.PackedB), so a grad-free pass
// neither re-derives nor re-packs a weight. Call it where a model is
// published. A training-mode Forward or a Backward unfreezes the layer
// it runs through, and code that writes weights any other way calls
// Unfreeze; an unfrozen layer bakes and packs per call, so it is never
// stale. Freezing a frozen layer writes nothing, so a model can be
// published again while it serves.
func Freeze(l Layer) { setFrozen(l, true) }

// Unfreeze drops what Freeze packed: every layer under l derives its
// GEMM operand from its weights per call again.
func Unfreeze(l Layer) { setFrozen(l, false) }

func setFrozen(l Layer, frozen bool) {
	VisitLayers(l, func(l Layer) {
		switch v := l.(type) {
		case *CausalConv1D:
			if frozen && v.pwt == nil {
				v.bakeKernel()
				v.pwt = tensor.PackInto(nil, v.wt, false)
			} else if !frozen && v.pwt != nil {
				v.pwt = nil
			}
		case *Dense:
			setPacked(&v.pw, frozen, v.W.Value)
		case *FeatureAttention:
			setPacked(&v.pw, frozen, v.W.Value)
		}
	})
}

// setPacked sets *pw to w's packed transpose when freezing and to nil
// when not, writing nothing when it already is one: a serving model is
// only read.
func setPacked(pw **tensor.PackedB, frozen bool, w *tensor.Tensor) {
	switch {
	case frozen && *pw == nil:
		*pw = tensor.PackInto(nil, w, true)
	case !frozen && *pw != nil:
		*pw = nil
	}
}
