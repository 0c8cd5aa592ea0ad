package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// dropMask is the state both dropouts share: the probability P, a random
// stream of the layer's own, and, from the last training pass off the
// arena, the keep-scale of each masked unit of span consecutive elements
// (nil when no mask is in force).
type dropMask struct {
	noParams
	P   float64
	rng *tensor.RNG

	mask []float64
	span int
}

func newDropMask(r *tensor.RNG, p float64) dropMask {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %g out of [0,1)", p))
	}
	return dropMask{P: p, rng: r.Split()}
}

// draw replaces the mask with a fresh one — one random per unit, n of
// them in order, the draws a whole-batch pass makes — and reports
// whether dropout is in force. Outside training, or with P == 0, it
// draws nothing and clears the mask.
func (d *dropMask) draw(n int, train bool) bool {
	if !train || d.P == 0 {
		d.mask = nil
		return false
	}
	if cap(d.mask) < n {
		d.mask = make([]float64, n)
	}
	d.mask = d.mask[:n]
	keep := 1 / (1 - d.P)
	for i := range d.mask {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
		} else {
			d.mask[i] = keep
		}
	}
	return true
}

// begin readies a pass over x masked in units of span elements. Off the
// arena (a == nil) it draws the mask, one random per unit (see draw), and
// with dropout in force returns a fresh output; otherwise the layer is
// the identity and its output is x itself.
func (d *dropMask) begin(a *InferArena, x *tensor.Tensor, train bool, span int) *tensor.Tensor {
	if a != nil {
		return x
	}
	d.span = span
	if !d.draw(x.Size()/span, train) {
		return x
	}
	return tensor.New(x.Shape()...)
}

// forwardRows implements rowLayer: every element of a dropped unit is
// zero, those of a kept one rescaled; nothing when the pass is the
// identity.
func (d *dropMask) forwardRows(_ *InferArena, x, y *tensor.Tensor, lo, hi int) {
	d.backwardRows(x, y, lo, hi)
}

// beginBackward implements rowLayer: with no mask in force the layer was
// the identity, and its input gradient is g.
func (d *dropMask) beginBackward(g *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return g
	}
	return tensor.New(g.Shape()...)
}

// backwardRows implements rowLayer: the forward's map, on the gradient.
// A sample's rows hold whole units, and dx starts zero.
func (d *dropMask) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	if dx == g {
		return
	}
	i, j := rowSpan(g, lo, hi)
	for u := i / d.span; u < j/d.span; u++ {
		if m := d.mask[u]; m != 0 {
			for k := u * d.span; k < (u+1)*d.span; k++ {
				dx.Data[k] = g.Data[k] * m
			}
		}
	}
}

// RNGState implements RandomStream.
func (d *dropMask) RNGState() tensor.RNGState { return d.rng.State() }

// SetRNGState implements RandomStream.
func (d *dropMask) SetRNGState(s tensor.RNGState) { d.rng.SetState(s) }

// Dropout zeroes each element independently with probability P during
// training and rescales survivors by 1/(1−P) (inverted dropout), so
// inference needs no correction.
type Dropout struct {
	dropMask
}

// NewDropout builds a Dropout layer with its own random stream.
func NewDropout(r *tensor.RNG, p float64) *Dropout {
	return &Dropout{newDropMask(r, p)}
}

// Forward implements Layer (see runChain).
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, solo(d), x, train)
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return backwardChain(solo(d), grad)
}

// beginForward implements rowLayer: a unit is an element.
func (d *Dropout) beginForward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	return d.begin(a, x, train, 1)
}

// SpatialDropout1D zeroes entire channels of a [batch, channels, time]
// tensor with probability P — the regularizer the TCN paper (and Fig. 6 of
// RPTCN) uses inside residual blocks, where adjacent time steps are highly
// correlated and elementwise dropout would be ineffective.
type SpatialDropout1D struct {
	dropMask
}

// NewSpatialDropout1D builds the layer with its own random stream.
func NewSpatialDropout1D(r *tensor.RNG, p float64) *SpatialDropout1D {
	return &SpatialDropout1D{newDropMask(r, p)}
}

// Forward implements Layer (see runChain).
func (d *SpatialDropout1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, solo(d), x, train)
}

// Backward implements Layer.
func (d *SpatialDropout1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return backwardChain(solo(d), grad)
}

// beginForward implements rowLayer: a unit is a (batch, channel), its
// time steps.
func (d *SpatialDropout1D) beginForward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	requireSeq("SpatialDropout1D", x)
	return d.begin(a, x, train, x.Dim(2))
}

// scale applies the mask to x, the batch's samples from lo on, in place,
// in either layout (see steps) — forward and backward are the same map:
// every position of a dropped (batch, channel) becomes zero, those of a
// kept one are rescaled. With no mask in force it leaves x alone.
func (d *SpatialDropout1D) scale(x steps, lo int) {
	if d.mask == nil {
		return
	}
	for bi := 0; bi < x.b; bi++ {
		mask := d.mask[(lo+bi)*x.c : (lo+bi+1)*x.c]
		for pos := 0; pos < x.n(); pos++ {
			at := x.data[bi*x.sb+pos*x.sp:]
			for ci, m := range mask {
				if m == 0 {
					at[ci*x.sc] = 0
				} else {
					at[ci*x.sc] *= m
				}
			}
		}
	}
}
