package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// parFlops is the mul-add count above which the LSTM's kernels fan out
// onto the internal/par pool — the tensor matmuls' crossover (see
// internal/tensor/matmul.go). An LSTM keeps a chain in one chunk (see
// chain.go), so its own kernels are where its parallelism lives.
const parFlops = 32 * 64 * 64

// LSTM is a standard long short-term memory layer with full
// backpropagation through time. Input is [batch, features, time]. When
// ReturnSequences is true the output is [batch, hidden, time]; otherwise it
// is the final hidden state [batch, hidden].
//
// Gate order in the stacked weight matrices is (input, forget, cell,
// output). The forget-gate bias is initialized to 1, the usual trick to
// ease gradient flow early in training.
//
// Instead of T small sequential matmuls, the input projection X·Wxᵀ for
// every timestep is computed as one large parallel matmul up front (and
// likewise dWx/dx as single matmuls over the stacked per-step gradients in
// the backward pass); only the h·Whᵀ recurrence remains per-step. All
// per-step state lives in contiguous scratch buffers reused across calls,
// so a steady-state training step allocates only its outputs.
type LSTM struct {
	InFeatures      int
	Hidden          int
	ReturnSequences bool

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
	zAll  *tensor.Tensor // [T*B, 4H] pre-activations (x-side, then +h-side)
	hAll  *tensor.Tensor // [(T+1)*B, H]; block 0 is h_{-1}=0, block t+1 is h_t
	cAll  *tensor.Tensor // [(T+1)*B, H]; same layout for the cell state
	tanhC *tensor.Tensor // [T*B, H]
	gi    *tensor.Tensor // [T*B, H] input gate
	gf    *tensor.Tensor // [T*B, H] forget gate
	gg    *tensor.Tensor // [T*B, H] candidate
	go_   *tensor.Tensor // [T*B, H] output gate
	zh    *tensor.Tensor // [B, 4H] per-step recurrent projection

	hPrevView []*tensor.Tensor // [B,H] views of hAll blocks 0..T-1

	// Backward workspaces.
	dzAll  *tensor.Tensor   // [T*B, 4H]
	dh     *tensor.Tensor   // [B, H]
	dc     *tensor.Tensor   // [B, H]
	dcPrev *tensor.Tensor   // [B, H]
	dxAll  *tensor.Tensor   // [T*B, F]
	dzView []*tensor.Tensor // [B,4H] views of dzAll blocks
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
	s.dcPrev = tensor.New(b, h)
	s.dxAll = tensor.New(t*b, f)
	s.hPrevView = make([]*tensor.Tensor, t)
	s.dzView = make([]*tensor.Tensor, t)
	for step := 0; step < t; step++ {
		s.hPrevView[step] = tensor.FromSlice(s.hAll.Data[step*b*h:(step+1)*b*h], b, h)
		s.dzView[step] = tensor.FromSlice(s.dzAll.Data[step*b*4*h:(step+1)*b*4*h], b, 4*h)
	}
}

// NewLSTM builds the layer with Xavier-uniform weights.
func NewLSTM(r *tensor.RNG, inFeatures, hidden int, returnSequences bool) *LSTM {
	l := &LSTM{
		InFeatures:      inFeatures,
		Hidden:          hidden,
		ReturnSequences: returnSequences,
		Wx:              NewParam("lstm.Wx", XavierUniform(r, inFeatures, hidden, 4*hidden, inFeatures)),
		Wh:              NewParam("lstm.Wh", XavierUniform(r, hidden, hidden, 4*hidden, hidden)),
		B:               NewParam("lstm.B", tensor.New(4*hidden)),
	}
	// Forget-gate bias = 1.
	for j := hidden; j < 2*hidden; j++ {
		l.B.Value.Data[j] = 1
	}
	return l
}

// gatherTimeMajor fills dst [T*B, F] (time-major) from x [B, F, T]. The
// range body lives in a named function so the small-size inline path
// allocates no closure.
func gatherTimeMajor(dst, x *tensor.Tensor, b, f, t int) {
	if t*b*f < parFlops {
		gatherTimeMajorRange(dst, x, b, f, t, 0, t*b)
		return
	}
	par.Run(t*b, func(lo, hi int) { gatherTimeMajorRange(dst, x, b, f, t, lo, hi) })
}

func gatherTimeMajorRange(dst, x *tensor.Tensor, b, f, t, lo, hi int) {
	for r := lo; r < hi; r++ {
		tt, bi := r/b, r%b
		row := dst.Data[r*f : (r+1)*f]
		for fi := 0; fi < f; fi++ {
			row[fi] = x.Data[(bi*f+fi)*t+tt]
		}
	}
}

// Forward implements Layer.
func (l *LSTM) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: LSTM requires [batch, features, time], got %v", x.Shape()))
	}
	if x.Dim(1) != l.InFeatures {
		panic(fmt.Sprintf("nn: LSTM feature mismatch: input %d, layer %d", x.Dim(1), l.InFeatures))
	}
	b, T := x.Dim(0), x.Dim(2)
	H, F := l.Hidden, l.InFeatures
	s := &l.s
	s.ensure(b, T, F, H)

	gatherTimeMajor(s.xAll, x, b, F, T)
	// The whole input projection in one parallel matmul.
	s.xAll.MatMulTInto(l.Wx.Value, s.zAll)

	// h_{-1} = c_{-1} = 0.
	for i := 0; i < b*H; i++ {
		s.hAll.Data[i] = 0
		s.cAll.Data[i] = 0
	}

	bias := l.B.Value.Data
	for t := 0; t < T; t++ {
		hPrev := s.hPrevView[t]
		hPrev.MatMulTInto(l.Wh.Value, s.zh)
		base := t * b // row offset of step t in the T*B-major buffers
		step := func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				zrow := s.zAll.Data[(base+bi)*4*H : (base+bi+1)*4*H]
				zhrow := s.zh.Data[bi*4*H : (bi+1)*4*H]
				off := (base + bi) * H
				cPrev := s.cAll.Data[t*b*H+bi*H : t*b*H+(bi+1)*H]
				cNew := s.cAll.Data[(t+1)*b*H+bi*H : (t+1)*b*H+(bi+1)*H]
				hNew := s.hAll.Data[(t+1)*b*H+bi*H : (t+1)*b*H+(bi+1)*H]
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
		if b*H < parFlops/8 {
			step(0, b)
		} else {
			par.Run(b, step)
		}
	}

	if l.ReturnSequences {
		seq := tensor.New(b, H, T)
		scatter := func(lo, hi int) {
			for r := lo; r < hi; r++ {
				bi, j := r/H, r%H
				for t := 0; t < T; t++ {
					seq.Data[r*T+t] = s.hAll.Data[(t+1)*b*H+bi*H+j]
				}
			}
		}
		if b*H*T < parFlops {
			scatter(0, b*H)
		} else {
			par.Run(b*H, scatter)
		}
		return seq
	}
	out := tensor.New(b, H)
	copy(out.Data, s.hAll.Data[T*b*H:(T+1)*b*H])
	return out
}

// Backward implements Layer.
func (l *LSTM) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s := &l.s
	b, T := s.b, s.t
	H, F := l.Hidden, l.InFeatures
	dx := tensor.New(b, F, T)
	s.dh.Zero()
	s.dc.Zero()

	for t := T - 1; t >= 0; t-- {
		// Fold in the gradient arriving at h_t from the layer output.
		if l.ReturnSequences {
			for bi := 0; bi < b; bi++ {
				for j := 0; j < H; j++ {
					s.dh.Data[bi*H+j] += grad.Data[(bi*H+j)*T+t]
				}
			}
		} else if t == T-1 {
			s.dh.AddInPlace(grad)
		}

		base := t * b
		// Elementwise gate gradients for the whole step, written into the
		// step's block of dzAll.
		stepBack := func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				off := (base + bi) * H
				dzrow := s.dzAll.Data[(base+bi)*4*H : (base+bi+1)*4*H]
				cPrev := s.cAll.Data[t*b*H+bi*H : t*b*H+(bi+1)*H]
				for j := 0; j < H; j++ {
					dhv := s.dh.Data[bi*H+j]
					tc := s.tanhC.Data[off+j]
					iv := s.gi.Data[off+j]
					fv := s.gf.Data[off+j]
					gv := s.gg.Data[off+j]
					ov := s.go_.Data[off+j]
					dcv := s.dc.Data[bi*H+j] + dhv*ov*(1-tc*tc)
					dzrow[j] = dcv * gv * iv * (1 - iv)
					dzrow[H+j] = dcv * cPrev[j] * fv * (1 - fv)
					dzrow[2*H+j] = dcv * iv * (1 - gv*gv)
					dzrow[3*H+j] = dhv * tc * ov * (1 - ov)
					s.dcPrev.Data[bi*H+j] = dcv * fv
				}
			}
		}
		if b*H < parFlops/8 {
			stepBack(0, b)
		} else {
			par.Run(b, stepBack)
		}
		// Gradient to h_{t−1} via the recurrence.
		s.dzView[t].MatMulInto(l.Wh.Value, s.dh)
		s.dc, s.dcPrev = s.dcPrev, s.dc
	}

	// Stacked parameter and input gradients as single large matmuls:
	// rows 0..T*B of hAll are exactly h_{t−1} for every step.
	hPrevAll := tensor.FromSlice(s.hAll.Data[:T*b*H], T*b, H)
	s.dzAll.TMatMulAcc(s.xAll, l.Wx.Grad)
	s.dzAll.TMatMulAcc(hPrevAll, l.Wh.Grad)
	s.dzAll.SumRowsAcc(l.B.Grad)
	s.dzAll.MatMulInto(l.Wx.Value, s.dxAll)
	scatter := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			tt, bi := r/b, r%b
			row := s.dxAll.Data[r*F : (r+1)*F]
			for fi := 0; fi < F; fi++ {
				dx.Data[(bi*F+fi)*T+tt] = row[fi]
			}
		}
	}
	if T*b*F < parFlops {
		scatter(0, T*b)
	} else {
		par.Run(T*b, scatter)
	}
	return dx
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
