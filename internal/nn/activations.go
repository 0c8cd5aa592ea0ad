package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation. Temporal blocks apply theirs in
// place on their own buffers (cone.go); a standalone one, CNN-LSTM's, is a
// row layer.
type ReLU struct {
	noParams
	mask []bool
}

// Forward implements Layer (see runChain).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, solo(r), x, train)
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return backwardChain(solo(r), grad)
}

// size readies the mask for a pass over n activations.
func (r *ReLU) size(n int) {
	if cap(r.mask) < n {
		r.mask = make([]bool, n)
	}
	r.mask = r.mask[:n]
}

// rows returns the part of the mask for h, the compact activations of the
// samples from lo on — nil when keep is false: a grad-free pass records
// nothing.
func (r *ReLU) rows(h steps, lo int, keep bool) []bool {
	if !keep {
		return nil
	}
	return r.mask[lo*h.sb : lo*h.sb+len(h.data)]
}

// beginForward implements rowLayer. The output comes from the arena; off
// it (a == nil) it is fresh and the mask is sized for the backward.
func (r *ReLU) beginForward(a *InferArena, x *tensor.Tensor, _ bool) *tensor.Tensor {
	if a == nil {
		r.size(x.Size())
	}
	return a.GetLike(x)
}

// forwardRows implements rowLayer, recording the mask off the arena.
func (r *ReLU) forwardRows(a *InferArena, x, y *tensor.Tensor, lo, hi int) {
	i, j := rowSpan(x, lo, hi)
	copy(y.Data[i:j], x.Data[i:j])
	var mask []bool
	if a == nil {
		mask = r.mask[i:j]
	}
	rectify(y.Data[i:j], mask)
}

// beginBackward implements rowLayer.
func (r *ReLU) beginBackward(g *tensor.Tensor) *tensor.Tensor { return tensor.New(g.Shape()...) }

// backwardRows implements rowLayer.
func (r *ReLU) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	i, j := rowSpan(g, lo, hi)
	copy(dx.Data[i:j], g.Data[i:j])
	maskGrad(dx.Data[i:j], r.mask[i:j])
}

// maskGrad zeroes, in place, the gradient of every element a rectify
// clamped; mask is what it recorded, from grad's first element on.
func maskGrad(grad []float64, mask []bool) {
	for i, pass := range mask[:len(grad)] {
		if !pass {
			grad[i] = 0
		}
	}
}

// rowSpan returns the span [i, j) of x.Data that holds samples [lo, hi),
// x being [batch, ...]; an empty batch spans nothing.
func rowSpan(x *tensor.Tensor, lo, hi int) (i, j int) {
	n := x.Size() / max(x.Dim(0), 1)
	return lo * n, hi * n
}

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	noParams
	y *tensor.Tensor
}

// Forward implements Layer (see runChain).
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, solo(t), x, train)
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return backwardChain(solo(t), grad)
}

// beginForward implements rowLayer. The output comes from the arena; off
// it (a == nil) it is fresh and kept for the backward.
func (t *Tanh) beginForward(a *InferArena, x *tensor.Tensor, _ bool) *tensor.Tensor {
	y := a.GetLike(x)
	if a == nil {
		t.y = y
	}
	return y
}

// forwardRows implements rowLayer.
func (t *Tanh) forwardRows(_ *InferArena, x, y *tensor.Tensor, lo, hi int) {
	i, j := rowSpan(x, lo, hi)
	for k, v := range x.Data[i:j] {
		y.Data[i+k] = math.Tanh(v)
	}
}

// beginBackward implements rowLayer.
func (t *Tanh) beginBackward(g *tensor.Tensor) *tensor.Tensor { return tensor.New(g.Shape()...) }

// backwardRows implements rowLayer: dx = g·(1 − y²).
func (t *Tanh) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	i, j := rowSpan(g, lo, hi)
	for k := i; k < j; k++ {
		y := t.y.Data[k]
		dx.Data[k] = g.Data[k] * (1 - y*y)
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// softmaxRowsInto writes a numerically stable softmax of each row of the
// [batch, n] tensor x into out, each row's reduction sequential.
func softmaxRowsInto(x, out *tensor.Tensor) {
	cols := x.Dim(1)
	for r := 0; r < x.Dim(0); r++ {
		row := x.Data[r*cols : (r+1)*cols]
		orow := out.Data[r*cols : (r+1)*cols]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - maxv)
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
}
