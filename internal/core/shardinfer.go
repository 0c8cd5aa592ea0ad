package core

import (
	"errors"
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ShardInferencer is the serving engine, the only one: a private pool of
// warmed arenas over the predictor's published snapshot. Each batch loads
// the snapshot once, so a batch never mixes generations and a swap
// reaches every engine on its next batch. The snapshot's model is read
// by every engine at once and written by none (see prepareServing), so N
// engines run N forwards in parallel with neither a lock nor a copy of
// the model, and are bitwise identical to each other for one generation
// (pinned by TestShardInferencerMatchesPredictor). Every shard owns
// one, the predictor owns one behind ForecastBatchGen, and the
// adaptation supervisor scores its candidate on one pinned to it
// (NewCandidateInferencer).
//
// The arena pool survives hot-swaps: SwapModel only admits models of
// identical serving shape and the kernels keep no per-model state in the
// arena, so a swapped-in generation replays the warm arenas without
// re-recording a single slot (pinned by TestInferBufPoolSurvivesSwap);
// were a shape to change all the same, every arena slot is shape-checked
// on Get and heals itself.
//
// A ShardInferencer is not synchronized: one goroutine uses it at a
// time.
type ShardInferencer struct {
	p *Predictor
	// pin is the candidate snapshot of an engine from
	// NewCandidateInferencer; nil follows p's published one.
	pin       *snapshot
	inferBufs map[int]*inferBuf
	// ran is the snapshot of the last ForecastBatchGen, whose forecasts
	// StreamKeep stores.
	ran *snapshot
}

// inferBuf is the reusable input tensor + arena for one padded batch
// size. Keeping one per size (instead of resizing a single arena) keeps
// every slot shape-stable, so steady-state forwards allocate nothing.
type inferBuf struct {
	x     *tensor.Tensor
	arena *nn.InferArena
}

// NewShardInferencer returns an engine serving p's current (and future)
// generations.
func (p *Predictor) NewShardInferencer() *ShardInferencer {
	return &ShardInferencer{p: p}
}

// NewCandidateInferencer returns an engine pinned to m, prepared as
// publishing prepares a model but not published: the adaptation
// supervisor shadow-scores a candidate on it with the forward serving
// would run. Its forecasts report generation 0.
func (p *Predictor) NewCandidateInferencer(m *Model) *ShardInferencer {
	return &ShardInferencer{p: p, pin: p.prepareSnapshot(&snapshot{model: m})}
}

// MinHistory mirrors Predictor.MinHistory.
func (si *ShardInferencer) MinHistory() int { return si.p.MinHistory() }

// PrepareInput mirrors Predictor.PrepareInput (the pipeline is frozen at
// Fit, so prepared inputs are engine-independent).
func (si *ShardInferencer) PrepareInput(series [][]float64) (*PreparedInput, error) {
	return si.p.PrepareInput(series)
}

// ForecastBatchGen runs one grad-free forward over prepared windows and
// returns each request's denormalized Horizon-step forecast, in input
// order, with the generation that computed all of them.
func (si *ShardInferencer) ForecastBatchGen(inputs []*PreparedInput) ([][]float64, int64, error) {
	s := si.serving()
	if s == nil {
		return nil, 0, errors.New("core: predictor not fitted")
	}
	si.ran = nil
	res, err := si.run(s.model, inputs)
	if err != nil {
		return nil, 0, err
	}
	si.ran = s
	return res, s.gen, nil
}

// run stacks inputs, runs m's arena forward over them and returns each
// row denormalized through the predictor's frozen pipeline. The batch is
// zero-padded to the next power of two so a handful of arenas covers
// every size; padding rows are discarded and — by row independence —
// never influence real rows. Every input must be a window of the
// predictor's length over m's channel count: one prepared by a predictor
// of another shape is refused here, as an error, not left to panic inside
// the first convolution.
func (si *ShardInferencer) run(m *Model, inputs []*PreparedInput) ([][]float64, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	p := si.p
	c, w, h := m.Cfg.InChannels, p.Cfg.Window, p.Cfg.Horizon
	for i, in := range inputs {
		if in == nil || in.channels != c || len(in.data) != c*w {
			return nil, fmt.Errorf("core: batch input %d is not a [%d channels × %d steps] window of this model", i, c, w)
		}
	}
	padded := ceilPow2(len(inputs))
	if si.inferBufs == nil {
		si.inferBufs = make(map[int]*inferBuf)
	}
	buf := si.inferBufs[padded]
	if buf == nil {
		buf = &inferBuf{arena: nn.NewInferArena()}
		si.inferBufs[padded] = buf
	}
	if buf.x == nil || buf.x.Dim(1) != c || buf.x.Dim(2) != w {
		buf.x = tensor.New(padded, c, w)
	}
	x := buf.x
	for i, in := range inputs {
		copy(x.Data[i*c*w:(i+1)*c*w], in.data)
	}
	for i := len(inputs) * c * w; i < padded*c*w; i++ {
		x.Data[i] = 0
	}
	buf.arena.Reset()
	out := m.InferForward(buf.arena, x)

	res := make([][]float64, len(inputs))
	for i := range inputs {
		res[i] = p.norm.Inverse(p.target, out.Data[i*h:(i+1)*h])
	}
	return res, nil
}

// ceilPow2 returns the smallest power of two ≥ n.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
