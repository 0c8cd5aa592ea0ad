// Package nn is a from-scratch neural-network library with analytic
// per-layer backpropagation. It provides every building block the RPTCN
// paper's models need: fully connected layers, causal dilated 1-D
// convolutions with weight normalization, residual temporal blocks,
// dropout, a feature attention head, and LSTM — all verified against
// numerical gradients in the test suite.
//
// Data layout conventions:
//   - Feed-forward layers take [batch, features].
//   - Sequence layers take [batch, channels, time].
package nn

import "repro/internal/tensor"

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zero gradient of matching shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward must cache whatever Backward
// needs; Backward consumes the gradient w.r.t. the layer's output and
// returns the gradient w.r.t. its input, accumulating parameter gradients
// along the way.
type Layer interface {
	// Forward computes the layer output. train toggles training-only
	// behaviour such as dropout.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates grad (dL/dOutput) and returns dL/dInput.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers, feeding each output into the next layer.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs all layers in order (see ForwardChain).
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return ForwardChain(s.Layers, x, train)
}

// InferForward implements InferLayer (see InferChain).
func (s *Sequential) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return InferChain(a, s.Layers, x)
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return BackwardChain(s.Layers, grad)
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears gradients on every parameter of the model.
func ZeroGrad(m Layer) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters in the model.
func ParamCount(m Layer) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Size()
	}
	return n
}

// Flatten reshapes [batch, d1, d2, ...] into [batch, d1*d2*...].
type Flatten struct {
	inShape []int
}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.inShape = x.Shape()
	batch := f.inShape[0]
	rest := 1
	for _, d := range f.inShape[1:] {
		rest *= d
	}
	return x.Reshape(batch, rest)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// LastStep selects the final time step of a [batch, channels, time] tensor,
// producing [batch, channels]. It is the usual head for sequence-to-one
// forecasting.
type LastStep struct {
	inShape []int
}

// Forward implements Layer (see ForwardChain).
func (l *LastStep) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return ForwardChain([]Layer{l}, x, train)
}

// InferForward implements InferLayer.
func (l *LastStep) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return InferChain(a, []Layer{l}, x)
}

// Backward implements Layer.
func (l *LastStep) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return BackwardChain([]Layer{l}, grad)
}

// beginForward implements rowLayer. The output comes from the arena; off
// it (a == nil) it is fresh and the input shape is kept for the backward.
func (l *LastStep) beginForward(a *InferArena, x *tensor.Tensor, _ bool) *tensor.Tensor {
	requireSeq("LastStep", x)
	if a == nil {
		l.inShape = x.Shape()
	}
	return a.Get(x.Dim(0), x.Dim(1))
}

// forwardRows is the layer's one forward body.
func (l *LastStep) forwardRows(_ *InferArena, x, y *tensor.Tensor, lo, hi int) {
	c, t := x.Dim(1), x.Dim(2)
	for i := lo * c; i < hi*c; i++ {
		y.Data[i] = x.Data[i*t+t-1]
	}
}

// beginBackward implements rowLayer.
func (l *LastStep) beginBackward(*tensor.Tensor) *tensor.Tensor { return tensor.New(l.inShape...) }

// backwardRows implements rowLayer: the gradient lands on the final step,
// zero elsewhere.
func (l *LastStep) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	c, t := l.inShape[1], l.inShape[2]
	for i := lo * c; i < hi*c; i++ {
		dx.Data[i*t+t-1] = g.Data[i]
	}
}

// paramGrads implements rowLayer: LastStep has none.
func (l *LastStep) paramGrads(*tensor.Tensor, int) {}

// Params implements Layer.
func (l *LastStep) Params() []*Param { return nil }
