package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// GRU is a gated recurrent unit layer (Cho et al. 2014) with full
// backpropagation through time — a lighter recurrent alternative to LSTM
// offered for architecture exploration beyond the paper's baselines.
//
// Update equations (gate order in the stacked matrices: reset, update,
// candidate):
//
//	r_t = σ(W_r x_t + U_r h_{t−1} + b_r)
//	z_t = σ(W_z x_t + U_z h_{t−1} + b_z)
//	ĥ_t = tanh(W_h x_t + U_h (r_t ⊙ h_{t−1}) + b_h)
//	h_t = (1 − z_t) ⊙ h_{t−1} + z_t ⊙ ĥ_t
//
// Input is [batch, features, time]; output is [batch, hidden, time] when
// ReturnSequences, else the final hidden state [batch, hidden].
//
// Like LSTM, the input projection X·Wxᵀ for every timestep is one large
// parallel matmul, per-step state lives in contiguous reused scratch, and
// the stacked parameter gradients reduce through single large matmuls, so
// results are bitwise deterministic for any worker count.
type GRU struct {
	InFeatures      int
	Hidden          int
	ReturnSequences bool

	Wx *Param // [3H, F]
	Wh *Param // [3H, H]
	B  *Param // [3H]

	s gruScratch

	// Cached (r,z)/candidate views of Wh.Value for the arena-inference
	// path, so InferForward allocates no tensor headers (see infer.go).
	inferWRZ, inferWC *tensor.Tensor
}

// gruScratch holds forward caches and backward workspaces, t-major like
// lstmScratch.
type gruScratch struct {
	b, t int

	xAll    *tensor.Tensor // [T*B, F]
	zxAll   *tensor.Tensor // [T*B, 3H] input-side pre-activations
	hAll    *tensor.Tensor // [(T+1)*B, H]; block 0 is h_{-1}=0
	rAll    *tensor.Tensor // [T*B, H] reset gate
	zgAll   *tensor.Tensor // [T*B, H] update gate
	hCanAll *tensor.Tensor // [T*B, H] candidate
	rhAll   *tensor.Tensor // [T*B, H] r ⊙ h_{t−1}
	zhRZ    *tensor.Tensor // [B, 2H] per-step recurrent projection (r,z)
	zhC     *tensor.Tensor // [B, H] per-step candidate projection

	hPrevView []*tensor.Tensor // [B,H] views of hAll blocks 0..T-1

	// Backward workspaces.
	drzAll   *tensor.Tensor   // [T*B, 2H] pre-activation grads (r,z)
	dcanAll  *tensor.Tensor   // [T*B, H] candidate pre-activation grads
	dzxAll   *tensor.Tensor   // [T*B, 3H] stacked for the x-side matmuls
	dh       *tensor.Tensor   // [B, H]
	dRH      *tensor.Tensor   // [B, H]
	dhp2     *tensor.Tensor   // [B, H] recurrent contribution scratch
	dxAll    *tensor.Tensor   // [T*B, F]
	drzView  []*tensor.Tensor // [B,2H] views of drzAll blocks
	dcanView []*tensor.Tensor // [B,H] views of dcanAll blocks
}

func (s *gruScratch) ensure(b, t, f, h int) {
	if s.b == b && s.t == t && s.xAll != nil {
		return
	}
	s.b, s.t = b, t
	s.xAll = tensor.New(t*b, f)
	s.zxAll = tensor.New(t*b, 3*h)
	s.hAll = tensor.New((t+1)*b, h)
	s.rAll = tensor.New(t*b, h)
	s.zgAll = tensor.New(t*b, h)
	s.hCanAll = tensor.New(t*b, h)
	s.rhAll = tensor.New(t*b, h)
	s.zhRZ = tensor.New(b, 2*h)
	s.zhC = tensor.New(b, h)
	s.drzAll = tensor.New(t*b, 2*h)
	s.dcanAll = tensor.New(t*b, h)
	s.dzxAll = tensor.New(t*b, 3*h)
	s.dh = tensor.New(b, h)
	s.dRH = tensor.New(b, h)
	s.dhp2 = tensor.New(b, h)
	s.dxAll = tensor.New(t*b, f)
	s.hPrevView = make([]*tensor.Tensor, t)
	s.drzView = make([]*tensor.Tensor, t)
	s.dcanView = make([]*tensor.Tensor, t)
	for step := 0; step < t; step++ {
		s.hPrevView[step] = tensor.FromSlice(s.hAll.Data[step*b*h:(step+1)*b*h], b, h)
		s.drzView[step] = tensor.FromSlice(s.drzAll.Data[step*b*2*h:(step+1)*b*2*h], b, 2*h)
		s.dcanView[step] = tensor.FromSlice(s.dcanAll.Data[step*b*h:(step+1)*b*h], b, h)
	}
}

// NewGRU builds the layer with Xavier-uniform weights.
func NewGRU(r *tensor.RNG, inFeatures, hidden int, returnSequences bool) *GRU {
	return &GRU{
		InFeatures:      inFeatures,
		Hidden:          hidden,
		ReturnSequences: returnSequences,
		Wx:              NewParam("gru.Wx", XavierUniform(r, inFeatures, hidden, 3*hidden, inFeatures)),
		Wh:              NewParam("gru.Wh", XavierUniform(r, hidden, hidden, 3*hidden, hidden)),
		B:               NewParam("gru.B", tensor.New(3*hidden)),
	}
}

// whRZ and whC return views of the (r,z) rows [0,2H) and candidate rows
// [2H,3H) of a stacked [3H, H] matrix.
func whRZ(w *tensor.Tensor, h int) *tensor.Tensor {
	return tensor.FromSlice(w.Data[:2*h*h], 2*h, h)
}

func whC(w *tensor.Tensor, h int) *tensor.Tensor {
	return tensor.FromSlice(w.Data[2*h*h:3*h*h], h, h)
}

// Forward implements Layer.
func (l *GRU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: GRU requires [batch, features, time], got %v", x.Shape()))
	}
	if x.Dim(1) != l.InFeatures {
		panic(fmt.Sprintf("nn: GRU feature mismatch: input %d, layer %d", x.Dim(1), l.InFeatures))
	}
	b, T := x.Dim(0), x.Dim(2)
	H, F := l.Hidden, l.InFeatures
	s := &l.s
	s.ensure(b, T, F, H)

	gatherTimeMajor(s.xAll, x, b, F, T)
	s.xAll.MatMulTInto(l.Wx.Value, s.zxAll)

	for i := 0; i < b*H; i++ {
		s.hAll.Data[i] = 0
	}

	wRZ := whRZ(l.Wh.Value, H)
	wC := whC(l.Wh.Value, H)
	bias := l.B.Value.Data
	for t := 0; t < T; t++ {
		hPrev := s.hPrevView[t]
		hPrev.MatMulTInto(wRZ, s.zhRZ)
		base := t * b
		gates := func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				off := (base + bi) * H
				zxrow := s.zxAll.Data[(base+bi)*3*H : (base+bi+1)*3*H]
				zhrow := s.zhRZ.Data[bi*2*H : (bi+1)*2*H]
				hPrevRow := s.hAll.Data[t*b*H+bi*H : t*b*H+(bi+1)*H]
				for j := 0; j < H; j++ {
					rv := sigmoid(zxrow[j] + zhrow[j] + bias[j])
					zv := sigmoid(zxrow[H+j] + zhrow[H+j] + bias[H+j])
					s.rAll.Data[off+j] = rv
					s.zgAll.Data[off+j] = zv
					s.rhAll.Data[off+j] = rv * hPrevRow[j]
				}
			}
		}
		if b*H < parFlops/8 {
			gates(0, b)
		} else {
			par.Run(b, gates)
		}
		// Candidate recurrent projection uses U_h (r ⊙ h_{t−1}).
		rh := tensor.FromSlice(s.rhAll.Data[base*H:(base+b)*H], b, H)
		rh.MatMulTInto(wC, s.zhC)
		state := func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				off := (base + bi) * H
				zxrow := s.zxAll.Data[(base+bi)*3*H : (base+bi+1)*3*H]
				hPrevRow := s.hAll.Data[t*b*H+bi*H : t*b*H+(bi+1)*H]
				hNewRow := s.hAll.Data[(t+1)*b*H+bi*H : (t+1)*b*H+(bi+1)*H]
				for j := 0; j < H; j++ {
					hc := math.Tanh(zxrow[2*H+j] + s.zhC.Data[bi*H+j] + bias[2*H+j])
					s.hCanAll.Data[off+j] = hc
					zv := s.zgAll.Data[off+j]
					hNewRow[j] = (1-zv)*hPrevRow[j] + zv*hc
				}
			}
		}
		if b*H < parFlops/8 {
			state(0, b)
		} else {
			par.Run(b, state)
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
func (l *GRU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s := &l.s
	b, T := s.b, s.t
	H, F := l.Hidden, l.InFeatures
	dx := tensor.New(b, F, T)
	s.dh.Zero()

	wRZ := whRZ(l.Wh.Value, H)
	wC := whC(l.Wh.Value, H)

	for t := T - 1; t >= 0; t-- {
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
		// Candidate pre-activation gradient for the whole step.
		canBack := func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				off := (base + bi) * H
				for j := 0; j < H; j++ {
					dhv := s.dh.Data[bi*H+j]
					zv := s.zgAll.Data[off+j]
					hc := s.hCanAll.Data[off+j]
					s.dcanAll.Data[off+j] = dhv * zv * (1 - hc*hc)
				}
			}
		}
		if b*H < parFlops/8 {
			canBack(0, b)
		} else {
			par.Run(b, canBack)
		}
		// d(r⊙hPrev) via the candidate recurrence.
		s.dcanView[t].MatMulInto(wC, s.dRH)
		// Remaining elementwise gate gradients; dh is rewritten to the
		// direct hPrev path and the reset-gate routing, the r/z recurrent
		// contribution is added after its matmul below.
		gateBack := func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				off := (base + bi) * H
				hPrevRow := s.hAll.Data[t*b*H+bi*H : t*b*H+(bi+1)*H]
				drzrow := s.drzAll.Data[(base+bi)*2*H : (base+bi+1)*2*H]
				for j := 0; j < H; j++ {
					dhv := s.dh.Data[bi*H+j]
					zv := s.zgAll.Data[off+j]
					rv := s.rAll.Data[off+j]
					hc := s.hCanAll.Data[off+j]
					dzv := dhv * (hc - hPrevRow[j])
					drv := s.dRH.Data[bi*H+j] * hPrevRow[j]
					drzrow[j] = drv * rv * (1 - rv)
					drzrow[H+j] = dzv * zv * (1 - zv)
					// Direct paths into h_{t−1}.
					s.dh.Data[bi*H+j] = dhv*(1-zv) + s.dRH.Data[bi*H+j]*rv
				}
			}
		}
		if b*H < parFlops/8 {
			gateBack(0, b)
		} else {
			par.Run(b, gateBack)
		}
		// Recurrent contribution of the r/z gates to h_{t−1}.
		s.drzView[t].MatMulInto(wRZ, s.dhp2)
		s.dh.AddInPlace(s.dhp2)
	}

	// Assemble dzxAll = [drz | dcan] for the single x-side matmuls.
	assemble := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			dst := s.dzxAll.Data[r*3*H : (r+1)*3*H]
			copy(dst[:2*H], s.drzAll.Data[r*2*H:(r+1)*2*H])
			copy(dst[2*H:], s.dcanAll.Data[r*H:(r+1)*H])
		}
	}
	if T*b*H < parFlops {
		assemble(0, T*b)
	} else {
		par.Run(T*b, assemble)
	}

	hPrevAll := tensor.FromSlice(s.hAll.Data[:T*b*H], T*b, H)
	// Wh gradients: (r,z) rows against h_{t−1}, candidate rows against r⊙h.
	s.drzAll.TMatMulAcc(hPrevAll, whRZ(l.Wh.Grad, H))
	s.dcanAll.TMatMulAcc(s.rhAll, whC(l.Wh.Grad, H))
	s.dzxAll.TMatMulAcc(s.xAll, l.Wx.Grad)
	s.dzxAll.SumRowsAcc(l.B.Grad)
	s.dzxAll.MatMulInto(l.Wx.Value, s.dxAll)
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
func (l *GRU) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
