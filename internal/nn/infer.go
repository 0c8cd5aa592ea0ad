package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file holds the grad-free arena forward path (InferForward) for
// every layer the RPTCN/LSTM/CNN-LSTM models use. Each implementation
// repeats the exact arithmetic of its layer's Forward — same kernels,
// same floating-point evaluation order — but draws every intermediate
// from the InferArena and writes none of the training caches, so a
// warmed-up pass allocates nothing on the heap.

// InferForward implements InferLayer.
func (d *Dense) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: Dense requires [batch, features], got %v", x.Shape()))
	}
	out := a.Get(x.Dim(0), d.W.Value.Dim(0))
	x.MatMulTInto(d.W.Value, out)
	return out.AddRowVectorInPlace(d.B.Value)
}

// InferForward implements InferLayer.
func (l *LSTM) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: LSTM requires [batch, features, time], got %v", x.Shape()))
	}
	if x.Dim(1) != l.InFeatures {
		panic(fmt.Sprintf("nn: LSTM feature mismatch: input %d, layer %d", x.Dim(1), l.InFeatures))
	}
	b, T := x.Dim(0), x.Dim(2)
	H, F := l.Hidden, l.InFeatures
	xAll := a.Get(T*b, F)
	zAll := a.Get(T*b, 4*H)
	zh := a.Get(b, 4*H)
	hPrev, cPrev := a.Get(b, H), a.Get(b, H)
	hNext, cNext := a.Get(b, H), a.Get(b, H)
	var seq *tensor.Tensor
	if l.ReturnSequences {
		seq = a.Get(b, H, T)
	}

	gatherTimeMajor(xAll, x, b, F, T)
	xAll.MatMulTInto(l.Wx.Value, zAll)
	hPrev.Zero()
	cPrev.Zero()

	bias := l.B.Value.Data
	for t := 0; t < T; t++ {
		hPrev.MatMulTInto(l.Wh.Value, zh)
		base := t * b
		for bi := 0; bi < b; bi++ {
			zrow := zAll.Data[(base+bi)*4*H : (base+bi+1)*4*H]
			zhrow := zh.Data[bi*4*H : (bi+1)*4*H]
			cPrevRow := cPrev.Data[bi*H : (bi+1)*H]
			cNewRow := cNext.Data[bi*H : (bi+1)*H]
			hNewRow := hNext.Data[bi*H : (bi+1)*H]
			for j := 0; j < H; j++ {
				iv := sigmoid(zrow[j] + zhrow[j] + bias[j])
				fv := sigmoid(zrow[H+j] + zhrow[H+j] + bias[H+j])
				gv := math.Tanh(zrow[2*H+j] + zhrow[2*H+j] + bias[2*H+j])
				ov := sigmoid(zrow[3*H+j] + zhrow[3*H+j] + bias[3*H+j])
				cv := fv*cPrevRow[j] + iv*gv
				cNewRow[j] = cv
				tc := math.Tanh(cv)
				hNewRow[j] = ov * tc
			}
			if seq != nil {
				for j := 0; j < H; j++ {
					seq.Data[(bi*H+j)*T+t] = hNewRow[j]
				}
			}
		}
		hPrev, hNext = hNext, hPrev
		cPrev, cNext = cNext, cPrev
	}
	if seq != nil {
		return seq
	}
	return hPrev // holds h_T after the final swap
}

// InferForward implements InferLayer.
func (l *GRU) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: GRU requires [batch, features, time], got %v", x.Shape()))
	}
	if x.Dim(1) != l.InFeatures {
		panic(fmt.Sprintf("nn: GRU feature mismatch: input %d, layer %d", x.Dim(1), l.InFeatures))
	}
	b, T := x.Dim(0), x.Dim(2)
	H, F := l.Hidden, l.InFeatures
	xAll := a.Get(T*b, F)
	zxAll := a.Get(T*b, 3*H)
	zhRZ := a.Get(b, 2*H)
	zhC := a.Get(b, H)
	rh := a.Get(b, H)
	zg := a.Get(b, H)
	hPrev, hNext := a.Get(b, H), a.Get(b, H)
	var seq *tensor.Tensor
	if l.ReturnSequences {
		seq = a.Get(b, H, T)
	}

	gatherTimeMajor(xAll, x, b, F, T)
	xAll.MatMulTInto(l.Wx.Value, zxAll)
	hPrev.Zero()

	if l.inferWRZ == nil {
		l.inferWRZ = whRZ(l.Wh.Value, H)
		l.inferWC = whC(l.Wh.Value, H)
	}
	bias := l.B.Value.Data
	for t := 0; t < T; t++ {
		hPrev.MatMulTInto(l.inferWRZ, zhRZ)
		base := t * b
		for bi := 0; bi < b; bi++ {
			zxrow := zxAll.Data[(base+bi)*3*H : (base+bi+1)*3*H]
			zhrow := zhRZ.Data[bi*2*H : (bi+1)*2*H]
			hPrevRow := hPrev.Data[bi*H : (bi+1)*H]
			for j := 0; j < H; j++ {
				rv := sigmoid(zxrow[j] + zhrow[j] + bias[j])
				zv := sigmoid(zxrow[H+j] + zhrow[H+j] + bias[H+j])
				zg.Data[bi*H+j] = zv
				rh.Data[bi*H+j] = rv * hPrevRow[j]
			}
		}
		rh.MatMulTInto(l.inferWC, zhC)
		for bi := 0; bi < b; bi++ {
			zxrow := zxAll.Data[(base+bi)*3*H : (base+bi+1)*3*H]
			hPrevRow := hPrev.Data[bi*H : (bi+1)*H]
			hNewRow := hNext.Data[bi*H : (bi+1)*H]
			for j := 0; j < H; j++ {
				hc := math.Tanh(zxrow[2*H+j] + zhC.Data[bi*H+j] + bias[2*H+j])
				zv := zg.Data[bi*H+j]
				hNewRow[j] = (1-zv)*hPrevRow[j] + zv*hc
			}
			if seq != nil {
				for j := 0; j < H; j++ {
					seq.Data[(bi*H+j)*T+t] = hNewRow[j]
				}
			}
		}
		hPrev, hNext = hNext, hPrev
	}
	if seq != nil {
		return seq
	}
	return hPrev
}

// InferForward implements InferLayer.
func (f *FeatureAttention) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: FeatureAttention requires [batch, features], got %v", x.Shape()))
	}
	scores := a.Get(x.Dim(0), f.W.Value.Dim(0))
	x.MatMulTInto(f.W.Value, scores)
	scores.AddRowVectorInPlace(f.B.Value)
	aw := a.GetLike(scores)
	softmaxRowsInto(scores, aw)
	out := a.GetLike(x)
	for i, v := range aw.Data {
		out.Data[i] = v * x.Data[i]
	}
	return out
}

// InferForward implements InferLayer.
func (r *ReLU) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	out := a.GetLike(x)
	copy(out.Data, x.Data)
	rectify(out.Data, nil)
	return out
}

// InferForward implements InferLayer.
func (t *Tanh) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	out := a.GetLike(x)
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

// InferForward implements InferLayer.
func (s *Sigmoid) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	out := a.GetLike(x)
	for i, v := range x.Data {
		out.Data[i] = sigmoid(v)
	}
	return out
}

// InferForward implements InferLayer. Inference-mode dropout is the
// identity; the input passes through untouched and the training mask is
// left alone.
func (d *Dropout) InferForward(_ *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return x
}

// InferForward implements InferLayer.
func (d *SpatialDropout1D) InferForward(_ *InferArena, x *tensor.Tensor) *tensor.Tensor {
	requireSeq("SpatialDropout1D", x)
	return x
}

// InferForward implements InferLayer.
func (l *LastStep) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: LastStep requires [batch, channels, time], got %v", x.Shape()))
	}
	b, c, t := x.Dim(0), x.Dim(1), x.Dim(2)
	out := a.Get(b, c)
	for i := 0; i < b; i++ {
		for j := 0; j < c; j++ {
			out.Data[i*c+j] = x.Data[(i*c+j)*t+t-1]
		}
	}
	return out
}

// InferForward implements InferLayer. Unlike Forward's Reshape (which
// shares storage with x), the arena path copies into its own slot so the
// result does not alias an input the caller may reuse.
func (f *Flatten) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	batch := x.Dim(0)
	rest := 1
	for i := 1; i < x.Dims(); i++ {
		rest *= x.Dim(i)
	}
	out := a.Get(batch, rest)
	copy(out.Data, x.Data)
	return out
}

// InferForward implements InferLayer.
func (s *Sequential) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return InferChain(a, s.Layers, x)
}

// InferForward implements InferLayer: every step of the block's output
// (see cone.go; a block that feeds a LastStep is pruned by InferChain).
func (b *TemporalBlock) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return forwardRun(a, []Layer{b}, nil, x, false)
}

// InferForward implements InferLayer.
func (t *TCN) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return forwardRun(a, []Layer{t}, nil, x, false)
}

// InferForward implements InferLayer, timing the wrapped layer's arena
// forward into the same counters as training forwards.
func (w *Profiled) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	t0 := w.start()
	out := Infer(w.inner, a, x)
	w.observe(t0, false)
	return out
}
