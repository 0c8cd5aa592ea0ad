package nn

import (
	"repro/internal/par"
	"repro/internal/tensor"
)

// This file runs a chain of layers — Sequential's, core.Model's, a single
// layer's own Forward and Backward — over a batch. Training and
// evaluation split the batch into chunks of rowGrain samples and run the
// chunks on the par pool, one dispatch per pass:
//
//  1. Forward: every unit of the chain readies the pass over the whole
//     batch — sizes the buffers its rows write, bakes its kernels, draws
//     its dropout masks in the order a whole-batch pass draws them — then
//     each chunk runs every unit's rows, front to back.
//  2. Backward, the data path: every unit readies its input gradient,
//     then each chunk runs every unit's rows, back to front.
//  3. Backward, the parameter gradients: one job per parameter-owning
//     layer, spread over the pool, each reading the whole batch's
//     operands in ascending order, as a whole-batch pass does.
//
// Every forward and data-gradient kernel is per row, and a parameter
// gradient is one FMA chain over the batch in order (a convolution's
// reads the whole batch's taps in place, in one product), so a split
// pass is bitwise the whole-batch pass at any worker count. Below the
// pass nothing dispatches: the pool runs a Run issued inside a running
// task inline (see par.Pool).
//
// The arena (serving) path, a batch of at most rowGrain, and a chain
// holding a layer that cannot split rows (an LSTM, a standalone ReLU,
// dropout or Tanh, a nested chain) run the same machinery as one chunk:
// each unit readies and runs all its rows before the next, and a layer
// that cannot split runs through its own Forward and Backward. The arena
// path runs as the pool's task in flight (par.Inline), so nothing inside
// a served forward dispatches: serving's parallelism is across shards.

// rowGrain is the samples per chunk of a split pass. Chunk boundaries
// depend on the batch size alone. It is the fastest of the grains
// BenchmarkRPTCNTrainStep was measured at on 2 cores (README.md, "Where
// parallelism lives").
const rowGrain = 8

// rowLayer is a layer whose passes split by batch rows: Dense,
// FeatureAttention, LastStep and a standalone CausalConv1D. (Temporal
// blocks split inside a blockRun.) The begin methods run once per pass,
// serially; the rows methods once per chunk, concurrently, each writing
// only its chunk's rows of the buffers begin readied.
type rowLayer interface {
	// beginForward readies a pass over the batch x and returns the output
	// buffer the rows fill. Off the arena (a == nil) it keeps what the
	// backward reads; on it, it writes nothing the backward reads.
	beginForward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor
	// forwardRows computes samples [lo, hi) of y from those of x.
	forwardRows(a *InferArena, x, y *tensor.Tensor, lo, hi int)
	// beginBackward readies the backward of the last pass off the arena,
	// whose output gradient is g, and returns its input gradient's buffer.
	beginBackward(g *tensor.Tensor) *tensor.Tensor
	// backwardRows computes samples [lo, hi) of dx from those of g.
	backwardRows(g, dx *tensor.Tensor, lo, hi int)
	// paramGrads accumulates the parameter gradients over the whole
	// batch; the pass ran in chunks of chunk samples.
	paramGrads(g *tensor.Tensor, chunk int)
}

// unit is one step of a chain: a run of temporal blocks (run.layers
// non-nil), or one layer l, maybe profiled (w), which splits rows when
// its unwrapped self is a rowLayer (row).
type unit struct {
	run blockRun
	l   Layer
	w   *Profiled
	row rowLayer
}

// nextUnit returns the unit layers starts with and how many layers it
// takes: every temporal-block layer in a row and the LastStep they feed,
// if one follows — the one place that pair is recognised — or one layer.
func nextUnit(layers []Layer) (unit, int) {
	var one [1]*TemporalBlock
	n := 0
	for n < len(layers) && coneBlocks(layers[n], &one) != nil {
		n++
	}
	if n > 0 {
		u := unit{run: blockRun{layers: layers[:n]}}
		if n < len(layers) {
			if _, ok := unwrap(layers[n]).(*LastStep); ok {
				u.run.last = layers[n]
				n++
			}
		}
		return u, n
	}
	u := unit{l: layers[0]}
	u.w, _ = u.l.(*Profiled)
	u.row, _ = unwrap(u.l).(rowLayer)
	return u, 1
}

// unwrap sees through a profiling wrapper.
func unwrap(l Layer) Layer {
	if w, ok := l.(*Profiled); ok {
		return w.inner
	}
	return l
}

func chainUnits(layers []Layer) []unit {
	var us []unit
	for len(layers) > 0 {
		u, n := nextUnit(layers)
		us = append(us, u)
		layers = layers[n:]
	}
	return us
}

// chunkRows is the samples per chunk of a pass of batch b over layers off
// the arena: rowGrain when every unit splits rows, b — one chunk —
// otherwise. Forward and backward both ask, so they agree.
func chunkRows(layers []Layer, b int) int {
	if b <= rowGrain || len(layers) == 0 {
		return b
	}
	for len(layers) > 0 {
		u, n := nextUnit(layers)
		if !u.splits() {
			return b
		}
		layers = layers[n:]
	}
	return rowGrain
}

func (u *unit) splits() bool { return u.run.layers != nil || u.row != nil }

func (u *unit) begin(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	if u.run.layers != nil {
		return u.run.begin(a, x, train)
	}
	u.w.count(false)
	return u.row.beginForward(a, x, train)
}

func (u *unit) rows(a *InferArena, x, y *tensor.Tensor, lo, hi int) {
	if u.run.layers != nil {
		u.run.rows(a, x, y, lo, hi)
		return
	}
	t0 := u.w.start()
	u.row.forwardRows(a, x, y, lo, hi)
	u.w.observe(t0, false)
}

// forward runs the unit over the whole batch as one chunk.
func (u *unit) forward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	switch {
	case u.splits():
		y := u.begin(a, x, train)
		u.rows(a, x, y, 0, x.Dim(0))
		return y
	case a != nil:
		return Infer(u.l, a, x)
	}
	return u.l.Forward(x, train)
}

func (u *unit) beginBackward(g *tensor.Tensor) *tensor.Tensor {
	if u.run.layers != nil {
		return u.run.beginBackward(g)
	}
	u.w.count(true)
	return u.row.beginBackward(g)
}

func (u *unit) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	if u.run.layers != nil {
		u.run.backwardRows(g, lo, hi)
		return
	}
	t0 := u.w.start()
	u.row.backwardRows(g, dx, lo, hi)
	u.w.observe(t0, true)
}

// backward is the data path over the whole batch as one chunk; a layer
// that cannot split rows runs its own Backward, parameter gradients
// included.
func (u *unit) backward(g *tensor.Tensor) *tensor.Tensor {
	if !u.splits() {
		return u.l.Backward(g)
	}
	dx := u.beginBackward(g)
	u.backwardRows(g, dx, 0, g.Dim(0))
	return dx
}

// gradJobs appends the unit's parameter-gradient jobs.
func (u *unit) gradJobs(jobs []gradJob, g *tensor.Tensor, chunk int) []gradJob {
	switch {
	case u.run.layers != nil:
		return u.run.gradJobs(jobs)
	case u.row != nil:
		return append(jobs, gradJob{w: u.w, row: u.row, g: g, n: chunk})
	}
	return jobs
}

// gradJob is one layer's parameter gradients over the whole batch of a
// pass, timed into w: a convolution's (conv) from its output gradient g
// and the taps of the pass, or a row layer's from g, the pass having run
// in chunks of n samples.
type gradJob struct {
	w    *Profiled
	conv *CausalConv1D
	row  rowLayer
	g    *tensor.Tensor
	n    int
}

func (j *gradJob) run() {
	t0 := j.w.start()
	if j.conv != nil {
		j.conv.kernelGrads(j.g)
	} else {
		j.row.paramGrads(j.g, j.n)
	}
	j.w.observe(t0, true)
}

// runChain runs layers over x — on the arena path when a is non-nil —
// in row chunks when the pass splits, as one chunk otherwise (see the
// top of this file). The output is bitwise what calling the layers one
// by one gives.
func runChain(a *InferArena, layers []Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	b := x.Dim(0)
	whole := func() {
		for len(layers) > 0 {
			u, n := nextUnit(layers)
			x = u.forward(a, x, train)
			layers = layers[n:]
		}
	}
	switch {
	case a != nil:
		par.Inline(whole)
		return x
	case chunkRows(layers, b) == b:
		whole()
		return x
	}
	us := chainUnits(layers)
	xs := make([]*tensor.Tensor, len(us)+1)
	xs[0] = x
	for i := range us {
		xs[i+1] = us[i].begin(nil, xs[i], train)
	}
	par.RunChunks(b, rowGrain, func(_, lo, hi int) {
		for i := range us {
			us[i].rows(nil, xs[i], xs[i+1], lo, hi)
		}
	})
	return xs[len(us)]
}

// PlanChain plans every run of temporal blocks in layers for a length-t
// window, as the first forward over such a window would. A model shared
// by many arena forwards is planned before it is shared: a forward writes
// its blocks' plans only when the window changes, and otherwise only
// reads the model.
func PlanChain(layers []Layer, t int) {
	for len(layers) > 0 {
		u, n := nextUnit(layers)
		if u.run.layers != nil {
			u.run.plan(t)
		}
		layers = layers[n:]
	}
}

// ForwardChain is Sequential's and core.Model's Forward: see runChain.
func ForwardChain(layers []Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, layers, x, train)
}

// InferChain is their InferForward: see runChain.
func InferChain(a *InferArena, layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	return runChain(a, layers, x, false)
}

// BackwardChain is the mirror of ForwardChain over the same units and
// chunks: the data path back to front in one dispatch, then the
// parameter gradients as jobs across the pool. grad belongs to the caller
// and is left alone.
func BackwardChain(layers []Layer, grad *tensor.Tensor) *tensor.Tensor {
	b := grad.Dim(0)
	chunk := chunkRows(layers, b)
	if chunk == b {
		return backwardWhole(layers, grad)
	}
	us := chainUnits(layers)
	gs := make([]*tensor.Tensor, len(us)+1)
	gs[len(us)] = grad
	for i := len(us) - 1; i >= 0; i-- {
		gs[i] = us[i].beginBackward(gs[i+1])
	}
	par.RunChunks(b, chunk, func(_, lo, hi int) {
		for i := len(us) - 1; i >= 0; i-- {
			us[i].backwardRows(gs[i+1], gs[i], lo, hi)
		}
	})
	var jobs []gradJob
	for i := range us {
		jobs = us[i].gradJobs(jobs, gs[i+1], chunk)
	}
	par.RunGrain(len(jobs), 1, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			jobs[j].run()
		}
	})
	return gs[0]
}

// backwardWhole is BackwardChain as one chunk: unit by unit, back to
// front, each unit's parameter gradients right after its data path. It
// recurses rather than listing the units, so it allocates no list.
func backwardWhole(layers []Layer, grad *tensor.Tensor) *tensor.Tensor {
	if len(layers) == 0 {
		return grad
	}
	u, n := nextUnit(layers)
	g := backwardWhole(layers[n:], grad)
	dx := u.backward(g)
	var buf [1]gradJob
	for _, job := range u.gradJobs(buf[:0], g, g.Dim(0)) {
		job.run()
	}
	return dx
}
