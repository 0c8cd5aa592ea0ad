package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// The float32 serving tier. Opting a predictor in (PredictorConfig.
// Float32, or EnableFloat32 after Fit) routes ForecastBatch through the
// float32 arena path: weights are mirrored once into f32 (nn.Quantizer32),
// inputs are narrowed per batch, and the forward runs on the packed f32
// GEMM kernel — roughly twice the FLOP throughput and half the memory
// traffic of the f64 path, with identical determinism guarantees.
//
// The tier is gated, never assumed: EnableFloat32 backtests the f32 path
// against the f64 oracle on the retained held-out test split and refuses
// to switch when either the per-element error bound or the MAE
// degradation bound is exceeded. At serve time a non-finite f32 output
// (overflow past float32 range) auto-disables the tier and re-runs the
// batch in f64, so callers never see a degraded answer without the
// fallback having been tried.

// Quantize32 refreshes the float32 weight mirrors of every model stage.
// Call it again after any weight update; InferForward32 panics if it has
// never run.
func (m *Model) Quantize32() {
	for _, l := range m.stages {
		nn.Quantize32(l)
	}
}

// InferForward32 is the float32 counterpart of InferForward: the same
// stage pipeline and fault points, on f32 arena storage.
func (m *Model) InferForward32(a *nn.InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	fault.Disrupt("model.forward")
	x = nn.InferChain32(a, m.stages, x)
	fault.Corrupt32("model.forward.out", x.Data)
	return x
}

// Float32Report is the outcome of the enable-time validation of the f32
// tier against the f64 oracle, all at the normalized (training) scale.
type Float32Report struct {
	// Samples is the number of held-out windows both paths predicted.
	Samples int `json:"samples"`
	// MaxRelErr is the worst per-element |f32−f64| / (|f64| + 1e-6)
	// across every forecast step of every sample.
	MaxRelErr float64 `json:"max_rel_err"`
	// MAE64 and MAE32 are each path's mean absolute error against the
	// held-out truth; MAEDelta is (MAE32−MAE64)/MAE64 (0 when MAE64 is 0).
	MAE64    float64 `json:"mae_f64"`
	MAE32    float64 `json:"mae_f32"`
	MAEDelta float64 `json:"mae_delta"`
}

// EnableFloat32 quantizes the model and validates the float32 serving
// tier against the f64 oracle on the retained held-out test split. Both
// bounds must hold — MaxRelErr ≤ Cfg.Float32MaxRelErr and MAEDelta ≤
// Cfg.Float32MaxMAEDelta — or the tier is refused (error returned, f64
// serving untouched). On success ForecastBatch switches to f32. The
// report is returned in either case when validation ran.
func (p *Predictor) EnableFloat32() (Float32Report, error) {
	if p.model == nil {
		return Float32Report{}, errors.New("core: predictor not fitted")
	}
	if p.test.X == nil {
		return Float32Report{}, errors.New("core: no held-out test data to validate the float32 tier against")
	}
	p.inferMu.Lock()
	defer p.inferMu.Unlock()
	return p.enableFloat32Locked()
}

// enableFloat32Locked is EnableFloat32's body under an already-held
// inferMu — SwapModel calls it directly to re-validate the tier against
// a freshly promoted model inside the swap's critical section.
func (p *Predictor) enableFloat32Locked() (Float32Report, error) {
	if p.test.X == nil {
		return Float32Report{}, errors.New("core: no held-out test data to validate the float32 tier against")
	}
	p.model.Quantize32()

	rep, err := p.validateFloat32Locked()
	if err != nil {
		return rep, err
	}
	if rep.MaxRelErr > p.Cfg.Float32MaxRelErr {
		return rep, fmt.Errorf("core: float32 tier refused: max relative error %.3g exceeds bound %.3g",
			rep.MaxRelErr, p.Cfg.Float32MaxRelErr)
	}
	if rep.MAEDelta > p.Cfg.Float32MaxMAEDelta {
		return rep, fmt.Errorf("core: float32 tier refused: backtest MAE degradation %.3g exceeds bound %.3g",
			rep.MAEDelta, p.Cfg.Float32MaxMAEDelta)
	}
	p.f32Report = rep
	p.f32Active = true
	obs.Logger("core").Info("float32 serving tier enabled",
		"samples", rep.Samples, "max_rel_err", rep.MaxRelErr, "mae_delta", rep.MAEDelta)
	return rep, nil
}

// validateFloat32Locked runs the held-out windows through both inference
// paths (batched, mirroring serving) and accumulates the report.
// Caller holds inferMu.
func (p *Predictor) validateFloat32Locked() (Float32Report, error) {
	var rep Float32Report
	n := p.test.Len()
	if n == 0 {
		return rep, errors.New("core: empty held-out test split")
	}
	c, w, h := p.test.X.Dim(1), p.test.X.Dim(2), p.Cfg.Horizon
	const chunk = 64
	arena64 := nn.NewInferArena()
	arena32 := nn.NewInferArena32()
	x64 := tensor.New(chunk, c, w)
	x32 := tensor.New32(chunk, c, w)
	var absErr64, absErr32 float64
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		b := hi - lo
		if b < chunk {
			x64.Zero()
			x32.Zero()
		}
		copy(x64.Data, p.test.X.Data[lo*c*w:hi*c*w])
		for i, v := range x64.Data[:b*c*w] {
			x32.Data[i] = float32(v)
		}
		arena64.Reset()
		out64 := p.model.InferForward(arena64, x64)
		arena32.Reset()
		out32 := p.model.InferForward32(arena32, x32)
		for i := 0; i < b*h; i++ {
			v64, v32 := out64.Data[i], float64(out32.Data[i])
			rel := math.Abs(v32-v64) / (math.Abs(v64) + 1e-6)
			if rel > rep.MaxRelErr {
				rep.MaxRelErr = rel
			}
			truth := p.test.Y.Data[lo*h+i]
			absErr64 += math.Abs(v64 - truth)
			absErr32 += math.Abs(v32 - truth)
		}
		rep.Samples += b
	}
	steps := float64(rep.Samples * h)
	rep.MAE64 = absErr64 / steps
	rep.MAE32 = absErr32 / steps
	if rep.MAE64 > 0 {
		rep.MAEDelta = (rep.MAE32 - rep.MAE64) / rep.MAE64
	}
	return rep, nil
}

// DisableFloat32 switches serving back to the f64 path (idempotent).
func (p *Predictor) DisableFloat32() {
	p.inferMu.Lock()
	p.f32Active = false
	p.inferMu.Unlock()
}

// Float32Active reports whether ForecastBatch currently serves on the
// float32 tier.
func (p *Predictor) Float32Active() bool {
	p.inferMu.Lock()
	defer p.inferMu.Unlock()
	return p.f32Active
}

// Float32Stats returns the enable-time validation report and whether the
// tier is currently active.
func (p *Predictor) Float32Stats() (Float32Report, bool) {
	p.inferMu.Lock()
	defer p.inferMu.Unlock()
	return p.f32Report, p.f32Active
}

// inferBuf32 is the f32 sibling of inferBuf: one reusable narrowed input
// tensor, arena, and denormalization scratch per padded batch size.
type inferBuf32 struct {
	x     *tensor.Tensor32
	arena *nn.InferArena32
	out   []float64 // widened forecast rows before denormalization
}

// forecastBatch32Locked runs one batch on the f32 tier. Caller holds
// inferMu and has validated the inputs. ok=false means the f32 output
// was non-finite (float32 overflow on an extreme input): the caller
// auto-disables the tier and falls back to f64 — the runtime counterpart
// of the enable-time gate.
func (p *Predictor) forecastBatch32Locked(inputs []*PreparedInput, c, w, padded int) (res [][]float64, ok bool) {
	if p.inferBufs32 == nil {
		p.inferBufs32 = make(map[int]*inferBuf32)
	}
	h := p.Cfg.Horizon
	buf := p.inferBufs32[padded]
	if buf == nil || buf.x.Dim(1) != c || buf.x.Dim(2) != w {
		buf = &inferBuf32{
			x:     tensor.New32(padded, c, w),
			arena: nn.NewInferArena32(),
			out:   make([]float64, h),
		}
		p.inferBufs32[padded] = buf
	}
	x := buf.x
	for i, in := range inputs {
		row := x.Data[i*c*w : (i+1)*c*w]
		for j, v := range in.data {
			row[j] = float32(v)
		}
	}
	for i := len(inputs) * c * w; i < padded*c*w; i++ {
		x.Data[i] = 0
	}
	buf.arena.Reset()
	out := p.model.InferForward32(buf.arena, x)

	res = make([][]float64, len(inputs))
	for i := range inputs {
		for k := 0; k < h; k++ {
			v := float64(out.Data[i*h+k])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, false
			}
			buf.out[k] = v
		}
		res[i] = p.norm.Inverse(p.target, buf.out)
	}
	return res, true
}
