package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LSTM is a standard long short-term memory layer with full
// backpropagation through time. Input is [batch, features, time]; the
// output is the final hidden state [batch, hidden].
//
// Gate order in the stacked weight matrices is (input, forget, cell,
// output). The forget-gate bias is initialized to 1, the usual trick to
// ease gradient flow early in training.
//
// The layer is a rowLayer (see chain.go): each sample's recurrence is
// independent of the others', so a pass runs its batch in row chunks
// like every other row layer. Its state lives in scratch laid out
// time-major for the whole batch — step t of sample i is row t·B+i — and
// a chunk of samples [lo, hi) runs rows t·B+lo … t·B+hi of each step,
// through per-step products against weights packed once per pass. The
// parameter gradients are three products over all T·B rows in t-major
// order, run once after the chunks. Every output element is one FMA
// chain wherever its row sits, so the bits do not depend on the
// chunking. The scratch is reused across calls.
type LSTM struct {
	InFeatures int
	Hidden     int

	Wx *Param // [4H, F]
	Wh *Param // [4H, H]
	B  *Param // [4H]

	s lstmScratch
}

// lstmScratch holds the forward caches and backward workspaces, laid out
// t-major so step t is the contiguous row block [t*B, (t+1)*B).
type lstmScratch struct {
	b, t int // shape the buffers were sized for

	xAll  *tensor.Tensor // [T*B, F] input, time-major
	zAll  *tensor.Tensor // [T*B, 4H] x-side pre-activations
	hAll  *tensor.Tensor // [(T+1)*B, H]; block 0 is h_{-1}=0, block t+1 is h_t
	cAll  *tensor.Tensor // [(T+1)*B, H]; same layout for the cell state
	tanhC *tensor.Tensor // [T*B, H]
	gi    *tensor.Tensor // [T*B, H] input gate
	gf    *tensor.Tensor // [T*B, H] forget gate
	gg    *tensor.Tensor // [T*B, H] candidate
	go_   *tensor.Tensor // [T*B, H] output gate
	zh    *tensor.Tensor // [B, 4H] per-step recurrent projection

	// The weights of the pass, packed: Wxᵀ and Whᵀ for the forward, Wx
	// and Wh for the backward.
	wxT, whT, wx, wh *tensor.PackedB

	// Backward workspaces.
	dzAll *tensor.Tensor // [T*B, 4H]
	dh    *tensor.Tensor // [B, H]
	dc    *tensor.Tensor // [B, H]
	dxAll *tensor.Tensor // [T*B, F]
}

func (s *lstmScratch) ensure(b, t, f, h int) {
	if s.b == b && s.t == t && s.xAll != nil {
		return
	}
	s.b, s.t = b, t
	s.xAll = tensor.New(t*b, f)
	s.zAll = tensor.New(t*b, 4*h)
	s.hAll = tensor.New((t+1)*b, h)
	s.cAll = tensor.New((t+1)*b, h)
	s.tanhC = tensor.New(t*b, h)
	s.gi = tensor.New(t*b, h)
	s.gf = tensor.New(t*b, h)
	s.gg = tensor.New(t*b, h)
	s.go_ = tensor.New(t*b, h)
	s.zh = tensor.New(b, 4*h)
	s.dzAll = tensor.New(t*b, 4*h)
	s.dh = tensor.New(b, h)
	s.dc = tensor.New(b, h)
	s.dxAll = tensor.New(t*b, f)
}

// NewLSTM builds the layer with Xavier-uniform weights.
func NewLSTM(r *tensor.RNG, inFeatures, hidden int) *LSTM {
	l := &LSTM{
		InFeatures: inFeatures,
		Hidden:     hidden,
		Wx:         NewParam("lstm.Wx", XavierUniform(r, inFeatures, hidden, 4*hidden, inFeatures)),
		Wh:         NewParam("lstm.Wh", XavierUniform(r, hidden, hidden, 4*hidden, hidden)),
		B:          NewParam("lstm.B", tensor.New(4*hidden)),
	}
	// Forget-gate bias = 1.
	for j := hidden; j < 2*hidden; j++ {
		l.B.Value.Data[j] = 1
	}
	return l
}

// Forward implements Layer (see runChain).
func (l *LSTM) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, solo(l), x, train)
}

// Backward implements Layer.
func (l *LSTM) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return backwardChain(solo(l), grad)
}

// beginForward implements rowLayer: it sizes the scratch for x and packs
// the weights for the pass. The LSTM has no arena forward.
func (l *LSTM) beginForward(a *InferArena, x *tensor.Tensor, _ bool) *tensor.Tensor {
	if a != nil {
		panic(fmt.Sprintf("nn: %T has no arena forward; run it through Forward", l))
	}
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: LSTM requires [batch, features, time], got %v", x.Shape()))
	}
	if x.Dim(1) != l.InFeatures {
		panic(fmt.Sprintf("nn: LSTM feature mismatch: input %d, layer %d", x.Dim(1), l.InFeatures))
	}
	l.s.ensure(x.Dim(0), x.Dim(2), l.InFeatures, l.Hidden)
	l.s.wxT, l.s.whT = tensor.PackBT(l.Wx.Value), tensor.PackBT(l.Wh.Value)
	return tensor.New(x.Dim(0), l.Hidden)
}

// forwardRows runs the recurrence of samples [lo, hi): at step t, rows
// t·B+lo … t·B+hi of the scratch.
func (l *LSTM) forwardRows(_ *InferArena, x, y *tensor.Tensor, lo, hi int) {
	s := &l.s
	b, T, H, F := s.b, s.t, l.Hidden, l.InFeatures
	for t := 0; t < T; t++ {
		for bi := lo; bi < hi; bi++ {
			row := s.xAll.Data[(t*b+bi)*F : (t*b+bi+1)*F]
			for fi := range row {
				row[fi] = x.Data[(bi*F+fi)*T+t]
			}
		}
	}
	// h_{-1} = c_{-1} = 0.
	clear(s.hAll.Data[lo*H : hi*H])
	clear(s.cAll.Data[lo*H : hi*H])

	bias := l.B.Value.Data
	zh := s.zh.Rows(lo, hi)
	// Step t's rows of xAll, zAll and hAll: one header each, re-pointed
	// every step, so the recurrence allocates none.
	xt, zt, ht := stepRows(s.xAll, lo, hi), stepRows(s.zAll, lo, hi), stepRows(s.hAll, lo, hi)
	for t := 0; t < T; t++ {
		base := t * b // row offset of step t in the T*B-major buffers
		xt.Data = s.xAll.Data[(base+lo)*F : (base+hi)*F]
		zt.Data = s.zAll.Data[(base+lo)*4*H : (base+hi)*4*H]
		ht.Data = s.hAll.Data[(base+lo)*H : (base+hi)*H]
		xt.MatMulPackedInto(s.wxT, zt)
		ht.MatMulPackedInto(s.whT, zh)
		for bi := lo; bi < hi; bi++ {
			zrow := s.zAll.Data[(base+bi)*4*H : (base+bi+1)*4*H]
			zhrow := s.zh.Data[bi*4*H : (bi+1)*4*H]
			off := (base + bi) * H
			cPrev := s.cAll.Data[off : off+H]
			cNew := s.cAll.Data[off+b*H : off+b*H+H]
			hNew := s.hAll.Data[off+b*H : off+b*H+H]
			for j := 0; j < H; j++ {
				iv := sigmoid(zrow[j] + zhrow[j] + bias[j])
				fv := sigmoid(zrow[H+j] + zhrow[H+j] + bias[H+j])
				gv := math.Tanh(zrow[2*H+j] + zhrow[2*H+j] + bias[2*H+j])
				ov := sigmoid(zrow[3*H+j] + zhrow[3*H+j] + bias[3*H+j])
				s.gi.Data[off+j] = iv
				s.gf.Data[off+j] = fv
				s.gg.Data[off+j] = gv
				s.go_.Data[off+j] = ov
				cv := fv*cPrev[j] + iv*gv
				cNew[j] = cv
				tc := math.Tanh(cv)
				s.tanhC.Data[off+j] = tc
				hNew[j] = ov * tc
			}
		}
	}
	copy(y.Data[lo*H:hi*H], s.hAll.Data[(T*b+lo)*H:(T*b+hi)*H])
}

// beginBackward implements rowLayer: it packs the weights for the
// backward and returns the input gradient's buffer.
func (l *LSTM) beginBackward(*tensor.Tensor) *tensor.Tensor {
	l.s.wx, l.s.wh = tensor.PackB(l.Wx.Value), tensor.PackB(l.Wh.Value)
	return tensor.New(l.s.b, l.InFeatures, l.s.t)
}

// backwardRows runs the backward recurrence of samples [lo, hi), back to
// front, in the chunk's own rows of dh and dc.
func (l *LSTM) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	s := &l.s
	b, T, H, F := s.b, s.t, l.Hidden, l.InFeatures
	dh := s.dh.Rows(lo, hi)
	clear(dh.Data)
	clear(s.dc.Data[lo*H : hi*H])
	// The output is h_{T−1}: its gradient arrives at the last step.
	for i, v := range g.Data[lo*H : hi*H] {
		dh.Data[i] += v
	}

	dz, dxt := stepRows(s.dzAll, lo, hi), stepRows(s.dxAll, lo, hi)
	for t := T - 1; t >= 0; t-- {
		base := t * b
		// Elementwise gate gradients, written into the step's rows of
		// dzAll; dc becomes the gradient at c_{t−1}.
		for bi := lo; bi < hi; bi++ {
			off := (base + bi) * H
			dzrow := s.dzAll.Data[(base+bi)*4*H : (base+bi+1)*4*H]
			cPrev := s.cAll.Data[off : off+H]
			dhRow := s.dh.Data[bi*H : (bi+1)*H]
			dc := s.dc.Data[bi*H : (bi+1)*H]
			for j := 0; j < H; j++ {
				dhv := dhRow[j]
				tc := s.tanhC.Data[off+j]
				iv := s.gi.Data[off+j]
				fv := s.gf.Data[off+j]
				gv := s.gg.Data[off+j]
				ov := s.go_.Data[off+j]
				dcv := dc[j] + dhv*ov*(1-tc*tc)
				dzrow[j] = dcv * gv * iv * (1 - iv)
				dzrow[H+j] = dcv * cPrev[j] * fv * (1 - fv)
				dzrow[2*H+j] = dcv * iv * (1 - gv*gv)
				dzrow[3*H+j] = dhv * tc * ov * (1 - ov)
				dc[j] = dcv * fv
			}
		}
		// Gradient to h_{t−1} via the recurrence, and to x_t.
		dz.Data = s.dzAll.Data[(base+lo)*4*H : (base+hi)*4*H]
		dxt.Data = s.dxAll.Data[(base+lo)*F : (base+hi)*F]
		dz.MatMulPackedInto(s.wh, dh)
		dz.MatMulPackedInto(s.wx, dxt)
	}
	for t := 0; t < T; t++ {
		for bi := lo; bi < hi; bi++ {
			row := s.dxAll.Data[(t*b+bi)*F : (t*b+bi+1)*F]
			for fi, v := range row {
				dx.Data[(bi*F+fi)*T+t] = v
			}
		}
	}
}

// stepRows returns a fresh [hi−lo, cols] header on rows [lo, hi) of buf,
// which a chunk re-points at the same rows of each step's block.
func stepRows(buf *tensor.Tensor, lo, hi int) *tensor.Tensor {
	cols := buf.Dim(1)
	return tensor.FromSlice(buf.Data[lo*cols:hi*cols], hi-lo, cols)
}

// paramGrads implements rowLayer: the stacked parameter gradients over
// every step of the whole batch, t-major. Rows 0..T·B of hAll are
// exactly h_{t−1} for every step.
func (l *LSTM) paramGrads(*tensor.Tensor, int) {
	s := &l.s
	s.dzAll.TMatMulAcc(s.xAll, l.Wx.Grad)
	s.dzAll.TMatMulAcc(s.hAll.Rows(0, s.t*s.b), l.Wh.Grad)
	s.dzAll.SumRowsAcc(l.B.Grad)
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
