// Package core implements the paper's primary contribution: RPTCN, a
// temporal convolutional network extended with a fully connected layer and
// an attention mechanism for resource-usage prediction in clouds (Fig. 5),
// plus a Predictor that runs Algorithm 1 end to end (clean → normalize →
// PCC screening → horizontal expansion → train → k-step forecast).
package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config holds the RPTCN hyperparameters. The paper's reference
// architecture uses kernel size 3 with dilations [1, 2, 4] (Fig. 5),
// weight-normalized residual blocks with spatial dropout (Fig. 6), a fully
// connected layer, and the attention head of eq. 7–8.
type Config struct {
	// InChannels is the number of input feature channels (after screening
	// and expansion).
	InChannels int
	// Channels lists the output channel count of each temporal block.
	Channels []int
	// KernelSize is the convolution kernel size K (paper: 3).
	KernelSize int
	// Dilations per block; nil means 1, 2, 4, ... (paper: [1,2,4]).
	Dilations []int
	// Dropout is the spatial dropout probability inside blocks.
	Dropout float64
	// WeightNorm toggles weight normalization in the blocks (paper: on).
	WeightNorm bool
	// FCWidth is the width of the fully connected layer (default 64).
	FCWidth int
	// Horizon is the number of future steps k to predict.
	Horizon int
	// DisableFC / DisableAttention ablate the two heads RPTCN adds to the
	// plain TCN (for the ablation benchmarks); both off by default, i.e.
	// the zero value is the paper's full architecture.
	DisableFC        bool
	DisableAttention bool
}

func (c *Config) fillDefaults() {
	if len(c.Channels) == 0 {
		c.Channels = []int{16, 16, 16}
	}
	if c.KernelSize == 0 {
		c.KernelSize = 3
	}
	if c.FCWidth == 0 {
		c.FCWidth = 64
	}
	if c.Horizon == 0 {
		c.Horizon = 1
	}
}

// validate reports why c, defaults filled, cannot be built: NewModel and
// the nn constructors under it panic on exactly these, which is right for
// a config a caller wrote and wrong for one read from a .model file.
func (c *Config) validate() error {
	switch {
	case c.InChannels < 1:
		return fmt.Errorf("core: InChannels = %d", c.InChannels)
	case c.KernelSize < 1:
		return fmt.Errorf("core: KernelSize = %d", c.KernelSize)
	case c.FCWidth < 1 || c.Horizon < 1:
		return fmt.Errorf("core: FCWidth = %d, Horizon = %d", c.FCWidth, c.Horizon)
	case !(c.Dropout >= 0 && c.Dropout < 1):
		return fmt.Errorf("core: Dropout = %g out of [0,1)", c.Dropout)
	case len(c.Dilations) != 0 && len(c.Dilations) != len(c.Channels):
		return fmt.Errorf("core: %d dilations for %d blocks", len(c.Dilations), len(c.Channels))
	}
	for _, ch := range c.Channels {
		if ch < 1 {
			return fmt.Errorf("core: Channels = %v", c.Channels)
		}
	}
	for _, d := range c.Dilations {
		if d < 1 {
			return fmt.Errorf("core: Dilations = %v", c.Dilations)
		}
	}
	return nil
}

// paramCount is the number of scalars NewModel allocates for c, defaults
// filled and valid — as a float64, so that dimensions read from a file
// cannot overflow it into a small count; it is exact below 2⁵³.
func (c *Config) paramCount() float64 {
	k, in, n := float64(c.KernelSize), float64(c.InChannels), 0.0
	for _, ch := range c.Channels {
		out := float64(ch)
		n += out*in*k + out*out*k + 2*out // two kernels and their biases
		if c.WeightNorm {
			n += 2 * out // and their magnitudes
		}
		if in != out {
			n += out*in + out // the 1×1 downsample
		}
		in = out
	}
	if !c.DisableFC {
		n += float64(c.FCWidth) * (in + 1)
		in = float64(c.FCWidth)
	}
	if !c.DisableAttention {
		n += in * (in + 1)
	}
	return n + float64(c.Horizon)*(in+1)
}

// Model is the RPTCN network. The data path follows Fig. 5:
//
//	input [batch, channels, window]
//	  → stacked temporal blocks (dilated causal conv, weight norm,
//	    ReLU, spatial dropout, residual)        — the TCN
//	  → last time step                          — sequence-to-vector
//	  → fully connected layer (eq. 6)           — feature synthesis
//	  → attention (eq. 7–8)                     — feature re-weighting
//	  → linear output projection [batch, horizon]
type Model struct {
	Cfg Config

	tcn  *nn.TCN
	last *nn.LastStep
	fc   *nn.Dense
	attn *nn.FeatureAttention
	out  *nn.Dense

	// stages is the Fig. 5 data path as one chain — each TCN block its
	// own stage, then last/fc/attention/out — and names labels it for
	// Profile. Forward and Backward run through it; the concrete fields
	// above back Params and serialization.
	stages nn.Sequential
	names  []string
}

// NewModel builds an RPTCN model. The zero-value ablation flags yield the
// paper's full architecture (FC layer + attention head).
func NewModel(r *tensor.RNG, cfg Config) *Model {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	m := &Model{Cfg: cfg, last: &nn.LastStep{}}
	m.tcn = nn.NewTCN(r, nn.TCNConfig{
		InChannels: cfg.InChannels,
		Channels:   cfg.Channels,
		KernelSize: cfg.KernelSize,
		Dilations:  cfg.Dilations,
		Dropout:    cfg.Dropout,
		WeightNorm: cfg.WeightNorm,
	})
	width := cfg.Channels[len(cfg.Channels)-1]
	if !cfg.DisableFC {
		m.fc = nn.NewDense(r, width, cfg.FCWidth)
		width = cfg.FCWidth
	}
	if !cfg.DisableAttention {
		m.attn = nn.NewFeatureAttention(r, width)
	}
	m.out = nn.NewDense(r, width, cfg.Horizon)

	stage := func(name string, l nn.Layer) {
		m.names, m.stages.Layers = append(m.names, name), append(m.stages.Layers, l)
	}
	for i, b := range m.tcn.Blocks {
		stage(fmt.Sprintf("tcn[%d]", i), b)
	}
	stage("last", m.last)
	if m.fc != nil {
		stage("fc", m.fc)
	}
	if m.attn != nil {
		stage("attention", m.attn)
	}
	stage("out", m.out)
	return m
}

// Forward implements nn.Layer. The TCN stages feed LastStep, so the
// stage chain computes them — and Backward their gradients — inside
// the receptive cone of the final time step only, in training and in
// evaluation. Two fault points cover the chaos suite: "model.forward"
// can inject a layer panic or latency, and "model.forward.out" can
// corrupt the output activations with NaN/Inf — both one atomic load
// when no injector is active.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	fault.Disrupt("model.forward")
	x = m.stages.Forward(x, train)
	fault.Corrupt("model.forward.out", x.Data)
	return x
}

// InferForward is the grad-free arena forward
// used by batched serving. It visits the same fault points as Forward
// and runs the same receptive cone through the stage chain, so its
// output is bitwise identical to Forward(x, false), but it draws every
// intermediate from the arena — a warmed-up pass allocates nothing —
// and serves from the kernels nn.Freeze baked.
func (m *Model) InferForward(a *nn.InferArena, x *tensor.Tensor) *tensor.Tensor {
	fault.Disrupt("model.forward")
	x = m.stages.InferForward(a, x)
	fault.Corrupt("model.forward.out", x.Data)
	return x
}

// Children implements nn.ChildLayers, exposing the stage pipeline so
// generic traversals reach the dropout layers' random streams for
// checkpointing.
func (m *Model) Children() []nn.Layer { return m.stages.Layers }

// Backward implements nn.Layer.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return m.stages.Backward(grad)
}

// Profile times every stage of the data path into p, yielding a
// per-stage cost breakdown (tcn[0..n], last, fc, attention, out) after
// the next forward/backward passes. The timers belong to the stage
// chain, so the layers, Params order and serialization are unaffected. A
// nil profiler is a no-op, and a model already profiled keeps its
// timers, so profiling twice counts once.
func (m *Model) Profile(p *nn.Profiler) { p.WrapSequential(&m.stages, m.names...) }

// Params implements nn.Layer.
func (m *Model) Params() []*nn.Param {
	ps := m.tcn.Params()
	if m.fc != nil {
		ps = append(ps, m.fc.Params()...)
	}
	if m.attn != nil {
		ps = append(ps, m.attn.Params()...)
	}
	return append(ps, m.out.Params()...)
}

// ReceptiveField returns the past horizon (in samples) the TCN stack sees.
func (m *Model) ReceptiveField() int { return m.tcn.ReceptiveField() }

// AttentionWeights exposes the most recent attention vector for
// interpretation, or nil when attention is ablated or not yet run.
func (m *Model) AttentionWeights() *tensor.Tensor {
	if m.attn == nil {
		return nil
	}
	return m.attn.Weights()
}
