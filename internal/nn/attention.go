package nn

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/tensor"
)

// FeatureAttention implements the paper's attention head (eq. 7–8):
//
//	a = f_φ(x) = softmax(x·Wᵀ + b)
//	g = a ⊙ x
//
// The attention network f_φ is a single linear map followed by softmax, so
// the layer learns to re-weight the features produced by the fully
// connected layer before the output projection. Input and output are
// [batch, features].
type FeatureAttention struct {
	W *Param // [features, features]
	B *Param // [features]

	x *tensor.Tensor // cached input
	a *tensor.Tensor // cached attention weights
}

// NewFeatureAttention creates the layer for the given feature width.
func NewFeatureAttention(r *tensor.RNG, features int) *FeatureAttention {
	return &FeatureAttention{
		W: NewParam("attn.W", XavierUniform(r, features, features, features, features)),
		B: NewParam("attn.B", tensor.New(features)),
	}
}

// Forward implements Layer.
func (f *FeatureAttention) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	return f.forward(nil, x)
}

// InferForward implements InferLayer.
func (f *FeatureAttention) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return f.forward(a, x)
}

// forward is the layer's one body. Scores, weights and output come from
// the arena; off it (a == nil) they are fresh, and the input and the
// weights are kept for Backward and Weights.
func (f *FeatureAttention) forward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: FeatureAttention requires [batch, features], got %v", x.Shape()))
	}
	scores := a.Get(x.Dim(0), f.W.Value.Dim(0))
	x.MatMulTInto(f.W.Value, scores)
	scores.AddRowVectorInPlace(f.B.Value)
	aw := a.GetLike(scores)
	softmaxRowsInto(scores, aw)
	if a == nil {
		f.x, f.a = x, aw
	}
	out := a.GetLike(x)
	for i, v := range aw.Data {
		out.Data[i] = v * x.Data[i]
	}
	return out
}

// Backward implements Layer.
func (f *FeatureAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	rows, cols := grad.Dim(0), grad.Dim(1)
	// dL/da = grad ⊙ x ; direct path dL/dx = grad ⊙ a.
	dA := grad.Mul(f.x)
	dx := grad.Mul(f.a)
	// Softmax Jacobian per row: ds_j = a_j (dA_j − Σ_k dA_k a_k). Rows are
	// independent, so the loop parallelizes with each row's dot product
	// reduced sequentially (worker-count independent).
	dS := tensor.New(rows, cols)
	jacobian := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			arow := f.a.Data[r*cols : (r+1)*cols]
			darow := dA.Data[r*cols : (r+1)*cols]
			dsrow := dS.Data[r*cols : (r+1)*cols]
			dot := 0.0
			for j := range arow {
				dot += darow[j] * arow[j]
			}
			for j := range arow {
				dsrow[j] = arow[j] * (darow[j] - dot)
			}
		}
	}
	if rows*cols < parFlops {
		jacobian(0, rows)
	} else {
		par.Run(rows, jacobian)
	}
	// Linear-map gradients and the indirect input path.
	dS.TMatMulAcc(f.x, f.W.Grad)
	dS.SumRowsAcc(f.B.Grad)
	dx.AddInPlace(dS.MatMul(f.W.Value))
	return dx
}

// Params implements Layer.
func (f *FeatureAttention) Params() []*Param { return []*Param{f.W, f.B} }

// Weights returns the attention vector a from the most recent Forward
// (for inspection/visualization); nil before any. The arena path leaves
// it alone.
func (f *FeatureAttention) Weights() *tensor.Tensor { return f.a }
