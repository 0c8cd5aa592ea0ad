package core

import (
	"errors"
	"fmt"

	"repro/internal/dataprep"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the batched serving path: PrepareInput runs the
// per-request data pipeline (read-only against the fitted predictor, so
// many requests can prepare concurrently), and ForecastBatch stacks
// prepared windows into one grad-free arena forward. Because every
// forward kernel is row-independent (pinned by TestGemmRowIndependence
// and the nn equivalence suite), each row of a batched product is
// bitwise identical to running that request alone — micro-batching and
// power-of-two padding never change a single answer.

// PreparedInput is one request's model-ready window: cleaned,
// normalized, screened and expanded, flattened to [channels × window]
// row-major. Build it with Predictor.PrepareInput.
type PreparedInput struct {
	data     []float64
	channels int
}

// PrepareInput validates raw indicator history (same layout as Fit) and
// runs the stored data pipeline — clean, normalize, screen, expand —
// returning a model-ready window. It only reads the fitted predictor
// state, so it is safe to call from many goroutines at once; errors here
// are client errors (bad shape, too little history), distinct from the
// server-side failures ForecastBatch can hit.
func (p *Predictor) PrepareInput(series [][]float64) (*PreparedInput, error) {
	sel, cleanedLen, err := p.prepareServe(series)
	if err != nil {
		return nil, err
	}
	if len(sel) == 0 || len(sel[0]) < p.Cfg.Window {
		return nil, fmt.Errorf("core: need at least %d complete samples, have %d",
			p.MinHistory(), cleanedLen)
	}
	return lastWindow(sel, p.Cfg.Window), nil
}

// lastWindow flattens the trailing w samples of every prepared channel
// into a model-ready window.
func lastWindow(sel [][]float64, w int) *PreparedInput {
	c, n := len(sel), len(sel[0])
	in := &PreparedInput{data: make([]float64, c*w), channels: c}
	for ci := 0; ci < c; ci++ {
		copy(in.data[ci*w:(ci+1)*w], sel[ci][n-w:])
	}
	return in
}

// prepareServe runs the stored (frozen-at-fit) data pipeline over raw
// indicator history: clean, normalize, screen, expand. Shared by
// PrepareInput (which keeps only the trailing window) and FineTune
// (which windows the whole prepared series into supervised pairs).
// Read-only against the predictor, safe for concurrent callers — the
// fitted check reads p.norm, which is frozen at Fit/load, NOT p.model,
// which SwapModel rewrites under inferMu (a lock this path must never
// take).
func (p *Predictor) prepareServe(series [][]float64) (sel [][]float64, cleanedLen int, err error) {
	if p.norm == nil {
		return nil, 0, errors.New("core: predictor not fitted")
	}
	if len(series) != len(p.norm.Min) {
		return nil, 0, fmt.Errorf("core: expected %d indicator series, got %d", len(p.norm.Min), len(series))
	}
	cleaned := dataprep.Clean(series)
	if len(cleaned) == 0 || len(cleaned[0]) == 0 {
		return nil, 0, errors.New("core: no complete records in input")
	}
	normed := p.norm.Transform(cleaned)
	sel = dataprep.Select(normed, p.selected)
	if p.Cfg.Scenario == MulExp {
		sel = p.expandForServe(sel)
	}
	return sel, len(cleaned[0]), nil
}

// expandForServe is the concurrency-safe wrapper around expand for the
// serving path: the one mutation expand can perform — lazily fixing the
// weighted expansion factors on a loaded predictor that predates their
// serialization — happens under the predictor's mutex.
func (p *Predictor) expandForServe(sel [][]float64) [][]float64 {
	if p.Cfg.Expansion == ExpandWeighted {
		p.wfMu.Lock()
		defer p.wfMu.Unlock()
	}
	return p.expand(sel)
}

// ForecastBatch runs one grad-free forward over a stack of prepared
// windows and returns each request's denormalized Horizon-step forecast,
// in input order. The batch is zero-padded to the next power of two so a
// handful of arenas covers every size; padding rows are discarded and —
// by row independence — never influence real rows. Results are bitwise
// identical to calling ForecastFrom per request at any batch size or
// worker count.
func (p *Predictor) ForecastBatch(inputs []*PreparedInput) ([][]float64, error) {
	res, _, err := p.ForecastBatchGen(inputs)
	return res, err
}

// The float32 serving tier was deleted; this refusal survives only for
// benchmark/probes.go, which reads the error as "this number is
// float64", and goes when that probe does.
func (p *Predictor) EnableFloat32() (any, error) {
	return nil, errors.New("core: the float32 serving tier was removed")
}

// batchForward is the batched serving forward and the warmed buffers it
// runs on, one per padded batch size. Everything that serves forecasts
// embeds one and differs only in which model it passes to run and how it
// guards it: the Predictor under inferMu, a ShardInferencer on its
// private replica, an Inferencer on a fixed candidate. Not synchronized.
//
// The pool survives model hot-swaps: SwapModel only admits models of
// identical serving shape and the kernels keep no per-model state in the
// arena, so a swapped-in generation replays the warm arenas without
// re-recording a single slot (pinned by TestInferBufPoolSurvivesSwap);
// were a shape to change all the same, every arena slot is shape-checked
// on Get and heals itself.
type batchForward struct {
	inferBufs map[int]*inferBuf
}

// inferBuf is the reusable input tensor + arena for one padded batch
// size. Keeping one per size (instead of resizing a single arena) keeps
// every slot shape-stable, so steady-state forwards allocate nothing.
type inferBuf struct {
	x     *tensor.Tensor
	arena *nn.InferArena
}

// run stacks inputs, runs m's arena forward over them and returns each
// row denormalized through p's frozen pipeline. Every input must be a
// window of p's length over m's channel count: one prepared by a
// predictor of another shape is refused here, as an error, not left to
// panic inside the first convolution.
func (f *batchForward) run(p *Predictor, m *Model, inputs []*PreparedInput) ([][]float64, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	c, w, h := m.Cfg.InChannels, p.Cfg.Window, p.Cfg.Horizon
	for i, in := range inputs {
		if in == nil || in.channels != c || len(in.data) != c*w {
			return nil, fmt.Errorf("core: batch input %d is not a [%d channels × %d steps] window of this model", i, c, w)
		}
	}
	padded := ceilPow2(len(inputs))
	if f.inferBufs == nil {
		f.inferBufs = make(map[int]*inferBuf)
	}
	buf := f.inferBufs[padded]
	if buf == nil {
		buf = &inferBuf{arena: nn.NewInferArena()}
		f.inferBufs[padded] = buf
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
