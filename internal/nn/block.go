package nn

import "repro/internal/tensor"

// TemporalBlock is the residual block of the TCN (Fig. 6 of the paper):
// two weight-normalized dilated causal convolutions, each followed by ReLU
// and spatial dropout, plus a residual connection (with a 1×1 convolution
// when channel counts differ) and a final activation:
//
//	o = ReLU(x + F(x))   (eq. 5)
type TemporalBlock struct {
	conv1, conv2 *CausalConv1D
	relu1, relu2 ReLU
	drop1, drop2 *SpatialDropout1D
	downsample   *CausalConv1D // 1×1 conv; nil when in == out channels
	finalReLU    ReLU

	plan *blockSteps    // step plan of the last window run, the cache of planSteps (see cone.go)
	fwd  *blockSteps    // plan of the last forward off the arena, which Backward mirrors
	dx   *tensor.Tensor // input-gradient scratch when the block is not the first of its run
}

// TemporalBlockConfig holds the hyperparameters of one block.
type TemporalBlockConfig struct {
	InChannels  int
	OutChannels int
	KernelSize  int
	Dilation    int
	Dropout     float64
	WeightNorm  bool
}

// NewTemporalBlock constructs the block.
func NewTemporalBlock(r *tensor.RNG, cfg TemporalBlockConfig) *TemporalBlock {
	b := &TemporalBlock{
		conv1: NewCausalConv1D(r, cfg.InChannels, cfg.OutChannels, cfg.KernelSize, cfg.Dilation, cfg.WeightNorm),
		conv2: NewCausalConv1D(r, cfg.OutChannels, cfg.OutChannels, cfg.KernelSize, cfg.Dilation, cfg.WeightNorm),
		drop1: NewSpatialDropout1D(r, cfg.Dropout),
		drop2: NewSpatialDropout1D(r, cfg.Dropout),
	}
	if cfg.InChannels != cfg.OutChannels {
		b.downsample = NewCausalConv1D(r, cfg.InChannels, cfg.OutChannels, 1, 1, false)
	}
	return b
}

// Forward implements Layer: every step of the block's output, through
// the one block body in cone.go (a block that feeds a LastStep is pruned
// to the receptive cone by runChain). x is never written and the
// returned tensor is fresh.
func (b *TemporalBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, solo(b), x, train)
}

// Backward implements Layer. grad belongs to the caller and is left
// alone.
func (b *TemporalBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return backwardChain(solo(b), grad)
}

// Params implements Layer.
func (b *TemporalBlock) Params() []*Param {
	ps := append(b.conv1.Params(), b.conv2.Params()...)
	if b.downsample != nil {
		ps = append(ps, b.downsample.Params()...)
	}
	return ps
}

// ReceptiveField returns the past horizon covered by the block's two
// convolutions: 2·(K−1)·d + 1 samples.
func (b *TemporalBlock) ReceptiveField() int {
	return b.conv1.ReceptiveField() + b.conv2.ReceptiveField() - 1
}

// TCN stacks temporal blocks with exponentially growing dilations
// (1, 2, 4, ... by default), the standard architecture of Bai et al. that
// RPTCN extends.
type TCN struct {
	Blocks []*TemporalBlock
}

// TCNConfig configures a TCN stack.
type TCNConfig struct {
	InChannels int
	Channels   []int // output channels per block
	KernelSize int
	Dilations  []int // one per block; defaults to 1,2,4,... when nil
	Dropout    float64
	WeightNorm bool
}

// NewTCN builds the stack.
func NewTCN(r *tensor.RNG, cfg TCNConfig) *TCN {
	t := &TCN{}
	in := cfg.InChannels
	for i, out := range cfg.Channels {
		d := 1 << i
		if cfg.Dilations != nil {
			d = cfg.Dilations[i]
		}
		t.Blocks = append(t.Blocks, NewTemporalBlock(r, TemporalBlockConfig{
			InChannels:  in,
			OutChannels: out,
			KernelSize:  cfg.KernelSize,
			Dilation:    d,
			Dropout:     cfg.Dropout,
			WeightNorm:  cfg.WeightNorm,
		}))
		in = out
	}
	return t
}

// Forward implements Layer: every step, as TemporalBlock.Forward.
func (t *TCN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, solo(t), x, train)
}

// Backward implements Layer.
func (t *TCN) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return backwardChain(solo(t), grad)
}

// Params implements Layer.
func (t *TCN) Params() []*Param {
	var ps []*Param
	for _, b := range t.Blocks {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// ReceptiveField returns the total past horizon of the stack.
func (t *TCN) ReceptiveField() int {
	rf := 1
	for _, b := range t.Blocks {
		rf += b.ReceptiveField() - 1
	}
	return rf
}
