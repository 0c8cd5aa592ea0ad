package nn

import (
	"repro/internal/par"
	"repro/internal/tensor"
)

// This file runs a chain of layers — a Sequential's (core.Model's stages
// are one), a single layer's own Forward and Backward — over a batch.
// Training and evaluation split the batch into chunks of rowGrain
// samples and run the chunks on the par pool, one dispatch per pass:
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
//
// A profiled chain times each step into the step's own timer (see
// Profiler): a row layer's share of each chunk, a block run's per layer
// and for its LastStep, a layer that cannot split around its own Forward
// and Backward, and every parameter-gradient job into its step's. A
// pass counts one call per step. An untimed step's timer is nil, which
// costs the pass one nil check per step.

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

// chain is the steps a pass runs: layers and, when profiled, the timer
// of each (see Profiler.WrapSequential) — timers is nil, or as long as
// layers.
type chain struct {
	layers []Layer
	timers []*stepTimes
}

// timer returns step i's timer, nil when the chain is not timed.
func (c chain) timer(i int) *stepTimes {
	if i < len(c.timers) {
		return c.timers[i]
	}
	return nil
}

// split returns c's first n steps and the rest.
func (c chain) split(n int) (chain, chain) {
	k := min(n, len(c.timers))
	return chain{c.layers[:n], c.timers[:k]}, chain{c.layers[n:], c.timers[k:]}
}

// unit is one step of a chain: a run of temporal blocks (run.layers
// non-nil), or one layer l, timed into t, which splits rows when it is a
// rowLayer (row).
type unit struct {
	run blockRun
	l   Layer
	t   *stepTimes
	row rowLayer
}

// next returns the unit c starts with and the rest of c. A unit is every
// temporal-block layer in a row and the LastStep they feed, if one
// follows — the one place that pair is recognised — or one layer.
func (c chain) next() (unit, chain) {
	var one [1]*TemporalBlock
	n := 0
	for n < len(c.layers) && coneBlocks(c.layers[n], &one) != nil {
		n++
	}
	if n == 0 {
		u := unit{l: c.layers[0], t: c.timer(0)}
		u.row, _ = u.l.(rowLayer)
		_, rest := c.split(1)
		return u, rest
	}
	run, rest := c.split(n)
	u := unit{run: blockRun{chain: run}}
	if len(rest.layers) > 0 {
		if _, ok := rest.layers[0].(*LastStep); ok {
			u.run.last, u.run.lastT = true, rest.timer(0)
			_, rest = rest.split(1)
		}
	}
	return u, rest
}

func chainUnits(c chain) []unit {
	var us []unit
	for len(c.layers) > 0 {
		var u unit
		u, c = c.next()
		us = append(us, u)
	}
	return us
}

// chunkRows is the samples per chunk of a pass of batch b over c off the
// arena: rowGrain when every unit splits rows, b — one chunk —
// otherwise. Forward and backward both ask, so they agree.
func chunkRows(c chain, b int) int {
	if b <= rowGrain || len(c.layers) == 0 {
		return b
	}
	for len(c.layers) > 0 {
		var u unit
		u, c = c.next()
		if !u.splits() {
			return b
		}
	}
	return rowGrain
}

func (u *unit) splits() bool { return u.run.layers != nil || u.row != nil }

func (u *unit) begin(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	if u.run.layers != nil {
		return u.run.begin(a, x, train)
	}
	u.t.count(false)
	return u.row.beginForward(a, x, train)
}

func (u *unit) rows(a *InferArena, x, y *tensor.Tensor, lo, hi int) {
	if u.run.layers != nil {
		u.run.rows(a, x, y, lo, hi)
		return
	}
	t0 := u.t.start()
	u.row.forwardRows(a, x, y, lo, hi)
	u.t.observe(t0, false)
}

// forward runs the unit over the whole batch as one chunk; a layer that
// cannot split rows runs its own Forward or InferForward, timed whole.
func (u *unit) forward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	if u.splits() {
		y := u.begin(a, x, train)
		u.rows(a, x, y, 0, x.Dim(0))
		return y
	}
	t0 := u.t.start()
	if a != nil {
		x = Infer(u.l, a, x)
	} else {
		x = u.l.Forward(x, train)
	}
	u.t.observe(t0, false)
	u.t.count(false)
	return x
}

func (u *unit) beginBackward(g *tensor.Tensor) *tensor.Tensor {
	if u.run.layers != nil {
		return u.run.beginBackward(g)
	}
	u.t.count(true)
	return u.row.beginBackward(g)
}

func (u *unit) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	if u.run.layers != nil {
		u.run.backwardRows(g, lo, hi)
		return
	}
	t0 := u.t.start()
	u.row.backwardRows(g, dx, lo, hi)
	u.t.observe(t0, true)
}

// backward is the data path over the whole batch as one chunk; a layer
// that cannot split rows runs its own Backward, parameter gradients
// included, timed whole.
func (u *unit) backward(g *tensor.Tensor) *tensor.Tensor {
	if u.splits() {
		dx := u.beginBackward(g)
		u.backwardRows(g, dx, 0, g.Dim(0))
		return dx
	}
	t0 := u.t.start()
	dx := u.l.Backward(g)
	u.t.observe(t0, true)
	u.t.count(true)
	return dx
}

// gradJobs appends the unit's parameter-gradient jobs.
func (u *unit) gradJobs(jobs []gradJob, g *tensor.Tensor, chunk int) []gradJob {
	switch {
	case u.run.layers != nil:
		return u.run.gradJobs(jobs)
	case u.row != nil:
		return append(jobs, gradJob{t: u.t, row: u.row, g: g, n: chunk})
	}
	return jobs
}

// gradJob is one layer's parameter gradients over the whole batch of a
// pass, timed into its step's timer t: a convolution's (conv) from its
// output gradient g and the taps of the pass, or a row layer's from g,
// the pass having run in chunks of n samples.
type gradJob struct {
	t    *stepTimes
	conv *CausalConv1D
	row  rowLayer
	g    *tensor.Tensor
	n    int
}

func (j *gradJob) run() {
	t0 := j.t.start()
	if j.conv != nil {
		j.conv.kernelGrads(j.g)
	} else {
		j.row.paramGrads(j.g, j.n)
	}
	j.t.observe(t0, true)
}

// runChain runs c over x — on the arena path when a is non-nil — in row
// chunks when the pass splits, as one chunk otherwise (see the top of
// this file). The output is bitwise what calling the layers one by one
// gives. It is Sequential's Forward and InferForward, and a single
// layer's as a chain of one.
func runChain(a *InferArena, c chain, x *tensor.Tensor, train bool) *tensor.Tensor {
	b := x.Dim(0)
	whole := func() {
		for rest := c; len(rest.layers) > 0; {
			var u unit
			u, rest = rest.next()
			x = u.forward(a, x, train)
		}
	}
	switch {
	case a != nil:
		par.Inline(whole)
		return x
	case chunkRows(c, b) == b:
		whole()
		return x
	}
	us := chainUnits(c)
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

// solo is l as a chain of one untimed step: how a layer runs its own
// Forward, InferForward and Backward.
func solo(l Layer) chain { return chain{layers: []Layer{l}} }

// PlanChain plans every run of temporal blocks in layers for a length-t
// window, as the first forward over such a window would. A model shared
// by many arena forwards is planned before it is shared: a forward writes
// its blocks' plans only when the window changes, and otherwise only
// reads the model.
func PlanChain(layers []Layer, t int) {
	for c := (chain{layers: layers}); len(c.layers) > 0; {
		var u unit
		u, c = c.next()
		if u.run.layers != nil {
			u.run.plan(t)
		}
	}
}

// backwardChain is the mirror of runChain over the same units and
// chunks: the data path back to front in one dispatch, then the
// parameter gradients as jobs across the pool. grad belongs to the caller
// and is left alone.
func backwardChain(c chain, grad *tensor.Tensor) *tensor.Tensor {
	b := grad.Dim(0)
	chunk := chunkRows(c, b)
	if chunk == b {
		return backwardWhole(c, grad)
	}
	us := chainUnits(c)
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

// backwardWhole is backwardChain as one chunk: unit by unit, back to
// front, each unit's parameter gradients right after its data path. It
// recurses rather than listing the units, so it allocates no list.
func backwardWhole(c chain, grad *tensor.Tensor) *tensor.Tensor {
	if len(c.layers) == 0 {
		return grad
	}
	u, rest := c.next()
	g := backwardWhole(rest, grad)
	dx := u.backward(g)
	var buf [1]gradJob
	for _, job := range u.gradJobs(buf[:0], g, g.Dim(0)) {
		job.run()
	}
	return dx
}
