package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// This file holds the float32 serving tier: Quantize32 weight-mirror
// refreshes and the InferForward32 arena path for every layer the
// RPTCN/LSTM/CNN-LSTM models use. Each implementation repeats the
// structure of its f64 InferForward — same kernels, same evaluation
// order, same parallel split points — in float32 arithmetic. The output
// approximates the f64 forward within the quantization error bound
// pinned in the tests, and is itself bitwise deterministic: every matmul
// element is one ascending-k float32 FMA chain and every activation is
// element-independent, so identical inputs give identical bits at any
// worker count or batch size.

func sigmoid32(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

func tanh32(v float32) float32 { return float32(math.Tanh(float64(v))) }

// ---- Dense ----

// Quantize32 implements Quantizer32.
func (d *Dense) Quantize32() {
	if d.w32 == nil {
		d.w32 = d.W.Value.To32()
		d.b32 = d.B.Value.To32()
		return
	}
	d.w32.QuantizeFrom(d.W.Value)
	d.b32.QuantizeFrom(d.B.Value)
}

// InferForward32 implements Infer32Layer.
func (d *Dense) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	if d.w32 == nil {
		panic("nn: Dense.InferForward32 before Quantize32")
	}
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: Dense requires [batch, features], got %v", x.Shape()))
	}
	out := a.Get(x.Dim(0), d.w32.Dim(0))
	x.MatMulTInto(d.w32, out)
	return out.AddRowVectorInPlace(d.b32)
}

// ---- CausalConv1D ----

// Quantize32 implements Quantizer32: it narrows the baked inference
// kernel — effective weights (weight norm applied) in the transposed
// [in·k, out] layout the GEMM consumes — so the f32 forward does neither
// the normalization nor the transpose per call.
func (c *CausalConv1D) Quantize32() {
	if !c.frozen {
		c.bakeKernel()
	}
	if c.wt32 == nil {
		c.wt32 = tensor.New32(c.wtInfer.Shape()...)
		c.b32 = tensor.New32(c.OutChannels)
	}
	c.wt32.QuantizeFrom(c.wtInfer)
	c.b32.QuantizeFrom(c.B.Value)
}

// ---- LSTM ----

// Quantize32 implements Quantizer32.
func (l *LSTM) Quantize32() {
	if l.wx32 == nil {
		l.wx32 = l.Wx.Value.To32()
		l.wh32 = l.Wh.Value.To32()
		l.b32 = l.B.Value.To32()
		return
	}
	l.wx32.QuantizeFrom(l.Wx.Value)
	l.wh32.QuantizeFrom(l.Wh.Value)
	l.b32.QuantizeFrom(l.B.Value)
}

// InferForward32 implements Infer32Layer.
func (l *LSTM) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	if l.wx32 == nil {
		panic("nn: LSTM.InferForward32 before Quantize32")
	}
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
	var seq *tensor.Tensor32
	if l.ReturnSequences {
		seq = a.Get(b, H, T)
	}

	gatherTimeMajor32(xAll, x, b, F, T)
	xAll.MatMulTInto(l.wx32, zAll)
	hPrev.Zero()
	cPrev.Zero()

	bias := l.b32.Data
	for t := 0; t < T; t++ {
		hPrev.MatMulTInto(l.wh32, zh)
		base := t * b
		for bi := 0; bi < b; bi++ {
			zrow := zAll.Data[(base+bi)*4*H : (base+bi+1)*4*H]
			zhrow := zh.Data[bi*4*H : (bi+1)*4*H]
			cPrevRow := cPrev.Data[bi*H : (bi+1)*H]
			cNewRow := cNext.Data[bi*H : (bi+1)*H]
			hNewRow := hNext.Data[bi*H : (bi+1)*H]
			for j := 0; j < H; j++ {
				iv := sigmoid32(zrow[j] + zhrow[j] + bias[j])
				fv := sigmoid32(zrow[H+j] + zhrow[H+j] + bias[H+j])
				gv := tanh32(zrow[2*H+j] + zhrow[2*H+j] + bias[2*H+j])
				ov := sigmoid32(zrow[3*H+j] + zhrow[3*H+j] + bias[3*H+j])
				cv := fv*cPrevRow[j] + iv*gv
				cNewRow[j] = cv
				tc := tanh32(cv)
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

// gatherTimeMajor32 mirrors gatherTimeMajor in float32.
func gatherTimeMajor32(dst, x *tensor.Tensor32, b, f, t int) {
	if t*b*f < parFlops {
		gatherTimeMajor32Range(dst, x, b, f, t, 0, t*b)
		return
	}
	par.Run(t*b, func(lo, hi int) { gatherTimeMajor32Range(dst, x, b, f, t, lo, hi) })
}

func gatherTimeMajor32Range(dst, x *tensor.Tensor32, b, f, t, lo, hi int) {
	for r := lo; r < hi; r++ {
		tt, bi := r/b, r%b
		row := dst.Data[r*f : (r+1)*f]
		for fi := 0; fi < f; fi++ {
			row[fi] = x.Data[(bi*f+fi)*t+tt]
		}
	}
}

// ---- GRU ----

// Quantize32 implements Quantizer32. The stacked Wh is pre-split into
// its (r,z) rows [0,2H) and candidate rows [2H,3H) so the per-step
// matmuls read contiguous mirrors.
func (l *GRU) Quantize32() {
	H := l.Hidden
	if l.wx32 == nil {
		l.wx32 = l.Wx.Value.To32()
		l.whRZ32 = tensor.New32(2*H, H)
		l.whC32 = tensor.New32(H, H)
		l.b32 = l.B.Value.To32()
	} else {
		l.wx32.QuantizeFrom(l.Wx.Value)
		l.b32.QuantizeFrom(l.B.Value)
	}
	wh := l.Wh.Value.Data
	for i := range l.whRZ32.Data {
		l.whRZ32.Data[i] = float32(wh[i])
	}
	off := 2 * H * H
	for i := range l.whC32.Data {
		l.whC32.Data[i] = float32(wh[off+i])
	}
}

// InferForward32 implements Infer32Layer.
func (l *GRU) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	if l.wx32 == nil {
		panic("nn: GRU.InferForward32 before Quantize32")
	}
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
	var seq *tensor.Tensor32
	if l.ReturnSequences {
		seq = a.Get(b, H, T)
	}

	gatherTimeMajor32(xAll, x, b, F, T)
	xAll.MatMulTInto(l.wx32, zxAll)
	hPrev.Zero()

	bias := l.b32.Data
	for t := 0; t < T; t++ {
		hPrev.MatMulTInto(l.whRZ32, zhRZ)
		base := t * b
		for bi := 0; bi < b; bi++ {
			zxrow := zxAll.Data[(base+bi)*3*H : (base+bi+1)*3*H]
			zhrow := zhRZ.Data[bi*2*H : (bi+1)*2*H]
			hPrevRow := hPrev.Data[bi*H : (bi+1)*H]
			for j := 0; j < H; j++ {
				rv := sigmoid32(zxrow[j] + zhrow[j] + bias[j])
				zv := sigmoid32(zxrow[H+j] + zhrow[H+j] + bias[H+j])
				zg.Data[bi*H+j] = zv
				rh.Data[bi*H+j] = rv * hPrevRow[j]
			}
		}
		rh.MatMulTInto(l.whC32, zhC)
		for bi := 0; bi < b; bi++ {
			zxrow := zxAll.Data[(base+bi)*3*H : (base+bi+1)*3*H]
			hPrevRow := hPrev.Data[bi*H : (bi+1)*H]
			hNewRow := hNext.Data[bi*H : (bi+1)*H]
			for j := 0; j < H; j++ {
				hc := tanh32(zxrow[2*H+j] + zhC.Data[bi*H+j] + bias[2*H+j])
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

// ---- FeatureAttention ----

// Quantize32 implements Quantizer32.
func (f *FeatureAttention) Quantize32() {
	if f.w32 == nil {
		f.w32 = f.W.Value.To32()
		f.b32 = f.B.Value.To32()
		return
	}
	f.w32.QuantizeFrom(f.W.Value)
	f.b32.QuantizeFrom(f.B.Value)
}

// InferForward32 implements Infer32Layer.
func (f *FeatureAttention) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	if f.w32 == nil {
		panic("nn: FeatureAttention.InferForward32 before Quantize32")
	}
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: FeatureAttention requires [batch, features], got %v", x.Shape()))
	}
	scores := a.Get(x.Dim(0), f.w32.Dim(0))
	x.MatMulTInto(f.w32, scores)
	scores.AddRowVectorInPlace(f.b32)
	aw := a.GetLike(scores)
	softmaxRows32Into(scores, aw)
	out := a.GetLike(x)
	for i, v := range aw.Data {
		out.Data[i] = v * x.Data[i]
	}
	return out
}

// softmaxRows32Into mirrors softmaxRowsInto in float32: per-row
// max-subtract, exponentiate, normalize, each row sequential so results
// never depend on the worker count.
func softmaxRows32Into(x, out *tensor.Tensor32) {
	rows, cols := x.Dim(0), x.Dim(1)
	if rows*cols < parFlops/8 {
		softmaxRows32Range(x, out, cols, 0, rows)
	} else {
		par.Run(rows, func(lo, hi int) { softmaxRows32Range(x, out, cols, lo, hi) })
	}
}

func softmaxRows32Range(x, out *tensor.Tensor32, cols, lo, hi int) {
	for r := lo; r < hi; r++ {
		row := x.Data[r*cols : (r+1)*cols]
		orow := out.Data[r*cols : (r+1)*cols]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := float32(0)
		for i, v := range row {
			e := float32(math.Exp(float64(v - maxv)))
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
}

// ---- Activations and shape layers ----

// InferForward32 implements Infer32Layer.
func (r *ReLU) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	out := a.GetLike(x)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// InferForward32 implements Infer32Layer.
func (t *Tanh) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	out := a.GetLike(x)
	for i, v := range x.Data {
		out.Data[i] = tanh32(v)
	}
	return out
}

// InferForward32 implements Infer32Layer.
func (s *Sigmoid) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	out := a.GetLike(x)
	for i, v := range x.Data {
		out.Data[i] = sigmoid32(v)
	}
	return out
}

// InferForward32 implements Infer32Layer. Inference-mode dropout is the
// identity.
func (d *Dropout) InferForward32(_ *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	return x
}

// InferForward32 implements Infer32Layer.
func (d *SpatialDropout1D) InferForward32(_ *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: SpatialDropout1D requires [batch, channels, time], got %v", x.Shape()))
	}
	return x
}

// InferForward32 implements Infer32Layer.
func (l *LastStep) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
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

// InferForward32 implements Infer32Layer. Like the f64 arena path, the
// result is copied into an arena slot so it does not alias the input.
func (f *Flatten) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	batch := x.Dim(0)
	rest := 1
	for i := 1; i < x.Dims(); i++ {
		rest *= x.Dim(i)
	}
	out := a.Get(batch, rest)
	copy(out.Data, x.Data)
	return out
}

// ---- Composites ----

// InferForward32 implements Infer32Layer.
func (s *Sequential) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	return InferChain32(a, s.Layers, x)
}

// InferForward32 implements Infer32Layer.
func (b *TemporalBlock) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	return inferRun32(a, []Layer{b}, nil, x)
}

// InferForward32 implements Infer32Layer.
func (t *TCN) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	return inferRun32(a, []Layer{t}, nil, x)
}

// InferForward32 implements Infer32Layer, timing the wrapped layer's f32
// arena forward into the same counters as training forwards.
func (w *Profiled) InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	t0 := w.start()
	out := Infer32(w.inner, a, x)
	w.observe(t0)
	return out
}
