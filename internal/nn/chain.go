package nn

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/tensor"
)

// This file runs a chain of layers — a Sequential's (core.Model's stages
// are one), a single layer's own Forward and Backward — over a batch.
// Every step of a chain is a run of temporal blocks or a row layer; a
// chain given any other layer panics, naming it. A pass over a batch of
// sequences larger than rowGrain splits it into chunks of rowGrain
// samples (chunkRows) and runs the chunks on the par pool, one dispatch
// per pass:
//
//  1. Forward: every unit of the chain readies the pass over the whole
//     batch — sizes the buffers its rows write, bakes or packs its
//     kernels, draws its dropout masks in the order a whole-batch pass
//     draws them — then each chunk runs every unit's rows, front to back.
//  2. Backward, the data path: every unit readies its input gradient,
//     then each chunk runs every unit's rows, back to front.
//  3. Backward, the parameter gradients: one job per layer, spread over
//     the pool, each reading the whole batch's operands in ascending
//     order, as a whole-batch pass does.
//
// Every forward and data-gradient kernel is per row (an LSTM's per
// sample, through every step), and a parameter gradient is one FMA chain
// over the batch in order (a convolution's reads the whole batch's taps
// in place, in one product), so a split pass is bitwise the whole-batch
// pass at any worker count. These dispatches are the only parallelism
// under a pass: no kernel below them dispatches, and the pool runs a Run
// issued inside a running task inline (see par.Pool).
//
// Any other pass (see chunkRows) and the arena (serving) path run the
// same machinery as one chunk on the caller, parameter gradients too.
// Nothing inside a served forward dispatches: serving's parallelism is
// across shards.
//
// A profiled chain times each step into the step's own timer (see
// Profiler): a row layer's share of each chunk, a block run's per layer
// and for its LastStep, and every parameter-gradient job into its
// step's. A pass counts one call per step. An untimed step's timer is
// nil, which costs the pass one nil check per step.

// rowGrain is the samples per chunk of a split pass. Chunk boundaries
// depend on the batch size alone. It is the fastest of the grains
// BenchmarkRPTCNTrainStep was measured at on 2 cores (README.md, "Where
// parallelism lives").
const rowGrain = 8

// rowLayer is a layer whose passes split by batch rows: every layer but
// Sequential and the temporal blocks, which split inside a blockRun. The
// begin methods run once per pass, serially; the rows methods once per
// chunk, concurrently, each writing only its chunk's rows of the buffers
// begin readied (or nothing, when its output is a view of its input).
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
	// batch of the last pass, from what its backward kept.
	paramGrads()
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
// non-nil) or one row layer, timed into t.
type unit struct {
	run blockRun
	row rowLayer
	t   *stepTimes
}

// next returns the unit c starts with and the rest of c. A unit is every
// temporal-block layer in a row and the LastStep they feed, if one
// follows — the one place that pair is recognised — or one row layer. A
// layer that is neither has no body a chain can run, and panics.
func (c chain) next() (unit, chain) {
	var one [1]*TemporalBlock
	n := 0
	for n < len(c.layers) && coneBlocks(c.layers[n], &one) != nil {
		n++
	}
	if n == 0 {
		row, ok := c.layers[0].(rowLayer)
		if !ok {
			panic(fmt.Sprintf("nn: a chain cannot run %T: it is neither a row layer nor a temporal block", c.layers[0]))
		}
		u := unit{row: row, t: c.timer(0)}
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
	us := make([]unit, 0, len(c.layers))
	for len(c.layers) > 0 {
		var u unit
		u, c = c.next()
		us = append(us, u)
	}
	return us
}

// chunkRows is the samples per chunk of a pass off the arena whose input
// is x (or whose input gradient is, for the backward, so forward and
// backward agree). A batch of sequences, [batch, channels, time], splits
// into chunks of rowGrain. Any other pass runs as one chunk: a batch of at
// most rowGrain, or a 2-D batch, whose rows are too little work to pay for
// a dispatch (an MLP's are ~160 mul-adds, and splitting them doubled
// BenchmarkFit at 2 procs).
func chunkRows(x *tensor.Tensor) int {
	if b := x.Dim(0); b > rowGrain && x.Dims() == 3 {
		return rowGrain
	}
	return x.Dim(0)
}

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

// gradJobs appends the unit's parameter-gradient jobs.
func (u *unit) gradJobs(jobs []gradJob) []gradJob {
	if u.run.layers != nil {
		return u.run.gradJobs(jobs)
	}
	return append(jobs, gradJob{t: u.t, row: u.row})
}

// gradJob is one layer's parameter gradients over the whole batch of a
// pass — a row layer's or a block's convolution's — timed into its
// step's timer t.
type gradJob struct {
	t   *stepTimes
	row rowLayer
}

func (j *gradJob) run() {
	t0 := j.t.start()
	j.row.paramGrads()
	j.t.observe(t0, true)
}

// runChain runs c over x — on the arena path when a is non-nil — in row
// chunks when the pass splits, as one chunk otherwise (see the top of
// this file). The output is bitwise what calling the layers one by one
// gives. It is Sequential's Forward and InferForward, and a single
// layer's Forward as a chain of one.
func runChain(a *InferArena, c chain, x *tensor.Tensor, train bool) *tensor.Tensor {
	b := x.Dim(0)
	if a != nil || chunkRows(x) == b {
		for rest := c; len(rest.layers) > 0; {
			var u unit
			u, rest = rest.next()
			y := u.begin(a, x, train)
			u.rows(a, x, y, 0, b)
			x = y
		}
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
// Forward and Backward.
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
// chunks: every unit readies its input gradient, back to front — the
// first unit's is shaped like the pass's input, from which chunkRows
// gives the forward's chunks — then the data path runs back to front in
// one dispatch, and the parameter gradients as jobs across the pool, or
// on the caller when the pass is one chunk. grad belongs to the caller
// and is left alone.
func backwardChain(c chain, grad *tensor.Tensor) *tensor.Tensor {
	us := chainUnits(c)
	gs := make([]*tensor.Tensor, len(us)+1)
	gs[len(us)] = grad
	for i := len(us) - 1; i >= 0; i-- {
		gs[i] = us[i].beginBackward(gs[i+1])
	}
	b, chunk := grad.Dim(0), chunkRows(gs[0])
	par.RunChunks(b, chunk, func(_, lo, hi int) {
		for i := len(us) - 1; i >= 0; i-- {
			us[i].backwardRows(gs[i+1], gs[i], lo, hi)
		}
	})
	jobs := make([]gradJob, 0, len(us))
	for i := range us {
		jobs = us[i].gradJobs(jobs)
	}
	grain := 1
	if chunk == b {
		grain = len(jobs)
	}
	par.RunGrain(len(jobs), grain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			jobs[j].run()
		}
	})
	return gs[0]
}
