package nn

import (
	"fmt"

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

	scores, dA, dS *tensor.Tensor  // whole-batch scratch of the passes off the arena
	pw             *tensor.PackedB // W packed by Freeze; nil when not frozen
}

// NewFeatureAttention creates the layer for the given feature width.
func NewFeatureAttention(r *tensor.RNG, features int) *FeatureAttention {
	return &FeatureAttention{
		W: NewParam("attn.W", XavierUniform(r, features, features, features, features)),
		B: NewParam("attn.B", tensor.New(features)),
	}
}

// Forward implements Layer (see ForwardChain).
func (f *FeatureAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return ForwardChain([]Layer{f}, x, train)
}

// InferForward implements InferLayer.
func (f *FeatureAttention) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return InferChain(a, []Layer{f}, x)
}

// Backward implements Layer.
func (f *FeatureAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return BackwardChain([]Layer{f}, grad)
}

// beginForward implements rowLayer. The output comes from the arena; off
// it (a == nil) it is fresh, and the input and the attention weights —
// fresh too — are kept for the backward and Weights.
func (f *FeatureAttention) beginForward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: FeatureAttention requires [batch, features], got %v", x.Shape()))
	}
	if train {
		f.pw = nil // the weights are about to move
	}
	if a == nil {
		b, n := x.Dim(0), f.W.Value.Dim(0)
		f.x, f.a, f.scores = x, tensor.New(b, n), scratch2D(f.scores, b, n)
	}
	return a.GetLike(x)
}

// forwardRows is the layer's one forward body. Scores and weights come
// from the arena, or are the chunk's rows of the layer's.
func (f *FeatureAttention) forwardRows(a *InferArena, x, y *tensor.Tensor, lo, hi int) {
	var scores, aw *tensor.Tensor
	if a != nil {
		scores, aw = a.Get(hi-lo, f.W.Value.Dim(0)), a.Get(hi-lo, f.W.Value.Dim(0))
	} else {
		scores, aw = f.scores.Rows(lo, hi), f.a.Rows(lo, hi)
	}
	xr := x.Rows(lo, hi)
	if f.pw != nil {
		xr.MatMulPackedInto(f.pw, scores)
	} else {
		xr.MatMulTInto(f.W.Value, scores)
	}
	scores.AddRowVectorInPlace(f.B.Value)
	softmaxRowsInto(scores, aw)
	out := y.Rows(lo, hi)
	for i, v := range aw.Data {
		out.Data[i] = v * xr.Data[i]
	}
}

// beginBackward implements rowLayer.
func (f *FeatureAttention) beginBackward(g *tensor.Tensor) *tensor.Tensor {
	f.pw = nil
	b, n := g.Dim(0), g.Dim(1)
	f.dA, f.dS = scratch2D(f.dA, b, n), scratch2D(f.dS, b, n)
	return tensor.New(b, n)
}

// backwardRows implements rowLayer: the data path, row by row.
func (f *FeatureAttention) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	cols := g.Dim(1)
	span := func(t *tensor.Tensor) []float64 { return t.Data[lo*cols : hi*cols] }
	gr, xr, ar, da, ds, dxr := span(g), span(f.x), span(f.a), span(f.dA), span(f.dS), span(dx)
	// dL/da = grad ⊙ x ; direct path dL/dx = grad ⊙ a.
	for i, v := range gr {
		da[i] = v * xr[i]
		dxr[i] = v * ar[i]
	}
	// Softmax Jacobian per row: ds_j = a_j (dA_j − Σ_k dA_k a_k).
	for r := 0; r < len(gr); r += cols {
		arow, darow, dsrow := ar[r:r+cols], da[r:r+cols], ds[r:r+cols]
		dot := 0.0
		for j := range arow {
			dot += darow[j] * arow[j]
		}
		for j := range arow {
			dsrow[j] = arow[j] * (darow[j] - dot)
		}
	}
	// The indirect input path dS·W, computed into dA's rows, which the
	// Jacobian is done with.
	prod := f.dA.Rows(lo, hi)
	f.dS.Rows(lo, hi).MatMulInto(f.W.Value, prod)
	dx.Rows(lo, hi).AddInPlace(prod)
}

// paramGrads implements rowLayer: the linear map's gradients.
func (f *FeatureAttention) paramGrads(_ *tensor.Tensor, _ int) {
	f.dS.TMatMulAcc(f.x, f.W.Grad)
	f.dS.SumRowsAcc(f.B.Grad)
}

// Params implements Layer.
func (f *FeatureAttention) Params() []*Param { return []*Param{f.W, f.B} }

// Weights returns the attention vector a from the most recent Forward
// (for inspection/visualization); nil before any. The arena path leaves
// it alone.
func (f *FeatureAttention) Weights() *tensor.Tensor { return f.a }
