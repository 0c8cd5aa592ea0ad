package core

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

func TestNewModelShapes(t *testing.T) {
	r := tensor.NewRNG(1)
	m := NewModel(r, Config{InChannels: 4, Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16, Horizon: 3})
	x := tensor.RandN(r, 5, 4, 20)
	y := m.Forward(x, false)
	if y.Dim(0) != 5 || y.Dim(1) != 3 {
		t.Fatalf("output shape = %v", y.Shape())
	}
}

func TestNewModelDefaults(t *testing.T) {
	r := tensor.NewRNG(2)
	m := NewModel(r, Config{InChannels: 1})
	x := tensor.RandN(r, 2, 1, 10)
	y := m.Forward(x, false)
	if y.Dim(1) != 1 {
		t.Fatalf("default horizon output = %v", y.Shape())
	}
	if m.ReceptiveField() < 10 {
		t.Fatalf("default receptive field = %d, want >= 10", m.ReceptiveField())
	}
}

func TestModelGradients(t *testing.T) {
	r := tensor.NewRNG(3)
	m := NewModel(r, Config{InChannels: 2, Channels: []int{4, 4}, KernelSize: 2, WeightNorm: true, FCWidth: 6, Horizon: 2})
	x := tensor.RandN(r, 2, 2, 10)
	err, detail := nn.GradCheck(m, x, 4, 1e-6)
	if err > 1e-4 {
		t.Fatalf("RPTCN gradient check failed: relerr=%g at %s", err, detail)
	}
}

func TestModelAblationGradients(t *testing.T) {
	r := tensor.NewRNG(5)
	for _, cfg := range []Config{
		{InChannels: 2, Channels: []int{4}, DisableFC: true},
		{InChannels: 2, Channels: []int{4}, DisableAttention: true},
		{InChannels: 2, Channels: []int{4}, DisableFC: true, DisableAttention: true},
	} {
		m := NewModel(r, cfg)
		x := tensor.RandN(r, 2, 2, 8)
		err, detail := nn.GradCheck(m, x, 6, 1e-6)
		if err > 1e-4 {
			t.Fatalf("ablation %+v gradient check failed: relerr=%g at %s", cfg, err, detail)
		}
	}
}

func TestAblationChangesParamCount(t *testing.T) {
	r := tensor.NewRNG(6)
	full := NewModel(r, Config{InChannels: 2, Channels: []int{4}})
	noFC := NewModel(r, Config{InChannels: 2, Channels: []int{4}, DisableFC: true})
	noAttn := NewModel(r, Config{InChannels: 2, Channels: []int{4}, DisableAttention: true})
	if nn.ParamCount(noFC) >= nn.ParamCount(full) {
		t.Fatal("removing FC should reduce parameters")
	}
	if nn.ParamCount(noAttn) >= nn.ParamCount(full) {
		t.Fatal("removing attention should reduce parameters")
	}
}

func TestAttentionWeightsExposed(t *testing.T) {
	r := tensor.NewRNG(7)
	m := NewModel(r, Config{InChannels: 1, Channels: []int{4}, FCWidth: 5})
	if m.AttentionWeights() != nil {
		t.Fatal("attention weights should be nil before forward")
	}
	m.Forward(tensor.RandN(r, 3, 1, 8), false)
	w := m.AttentionWeights()
	if w == nil || w.Dim(0) != 3 || w.Dim(1) != 5 {
		t.Fatalf("attention weights shape = %v", w)
	}
	abl := NewModel(r, Config{InChannels: 1, Channels: []int{4}, DisableAttention: true})
	abl.Forward(tensor.RandN(r, 1, 1, 8), false)
	if abl.AttentionWeights() != nil {
		t.Fatal("ablated model must report nil attention")
	}
}

func TestScenarioString(t *testing.T) {
	if Uni.String() != "Uni" || Mul.String() != "Mul" || MulExp.String() != "Mul-Exp" {
		t.Fatal("scenario names wrong")
	}
	if Scenario(9).String() != "unknown" {
		t.Fatal("unknown scenario name wrong")
	}
}

// smallEntity generates a compact synthetic workload for predictor tests.
func smallEntity(samples int, seed uint64) *trace.EntitySeries {
	return trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: samples, Seed: seed,
	})[0]
}

func smallPredictorConfig(s Scenario) PredictorConfig {
	return PredictorConfig{
		Scenario: s,
		Window:   16,
		Horizon:  1,
		Model:    Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16, Dropout: 0.1},
		Epochs:   8, BatchSize: 32, LearningRate: 2e-3, Seed: 1,
	}
}

func TestPredictorFitUniAndEvaluate(t *testing.T) {
	e := smallEntity(900, 1)
	p := NewPredictor(smallPredictorConfig(Uni))
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	rep, err := p.TestMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.MSE) || rep.MSE <= 0 || rep.MSE > 0.2 {
		t.Fatalf("Uni test MSE = %g (normalized scale)", rep.MSE)
	}
	if len(p.SelectedIndicators()) != 1 || p.SelectedIndicators()[0] != int(trace.CPUUtilPercent) {
		t.Fatalf("Uni selected = %v", p.SelectedIndicators())
	}
}

func TestPredictorScreeningMul(t *testing.T) {
	e := smallEntity(900, 2)
	p := NewPredictor(smallPredictorConfig(Mul))
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	sel := p.SelectedIndicators()
	if len(sel) != trace.NumIndicators/2 {
		t.Fatalf("Mul selected %d indicators, want %d", len(sel), trace.NumIndicators/2)
	}
	if sel[0] != int(trace.CPUUtilPercent) {
		t.Fatal("target must be first in the screened set")
	}
	// The strongly coupled indicators should dominate the selection
	// (cpu, mpki, cpi, mem_gps per Fig. 7).
	strong := map[int]bool{
		int(trace.MPKI): true, int(trace.CPI): true, int(trace.MemGPS): true,
	}
	hits := 0
	for _, s := range sel[1:] {
		if strong[s] {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("screening picked %v; expected mostly strongly-coupled indicators", sel)
	}
}

func TestPredictorMulExpChannelCount(t *testing.T) {
	e := smallEntity(900, 3)
	cfg := smallPredictorConfig(MulExp)
	cfg.ExpandFactor = 3
	p := NewPredictor(cfg)
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	// 4 screened indicators × factor 3 = 12 channels.
	if got := p.Model().Cfg.InChannels; got != 12 {
		t.Fatalf("Mul-Exp channels = %d, want 12", got)
	}
}

func TestPredictorForecastDenormalized(t *testing.T) {
	e := smallEntity(900, 4)
	cfg := smallPredictorConfig(MulExp)
	cfg.Horizon = 5
	p := NewPredictor(cfg)
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	f, err := p.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 5 {
		t.Fatalf("forecast length = %d", len(f))
	}
	// Forecast is a batch of one on the serving path; it must still be,
	// bitwise, the stage-by-stage forward over the retained series' tail.
	w := p.Cfg.Window
	x := tensor.New(1, len(p.prepared), w)
	for ci, row := range p.prepared {
		copy(x.Data[ci*w:(ci+1)*w], row[len(row)-w:])
	}
	requireBitwiseEqual(t, "Forecast vs stage-by-stage forward",
		f, p.norm.Inverse(p.target, everyStep{p.Model()}.Forward(x, false).Data))
	// Forecasts must land on the raw CPU scale (roughly within the series'
	// historical band, generously padded).
	cpu := e.Series(trace.CPUUtilPercent)
	lo, hi := cpu[0], cpu[0]
	for _, v := range cpu {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for _, v := range f {
		if v < lo-30 || v > hi+30 {
			t.Fatalf("forecast %g far outside raw range [%g, %g]", v, lo, hi)
		}
	}
}

func TestPredictorHistoryRecorded(t *testing.T) {
	e := smallEntity(700, 5)
	p := NewPredictor(smallPredictorConfig(Uni))
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	h := p.History()
	if h == nil || len(h.TrainLoss) == 0 || len(h.ValidLoss) != len(h.TrainLoss) {
		t.Fatalf("history not recorded: %+v", h)
	}
}

func TestPredictorErrors(t *testing.T) {
	p := NewPredictor(smallPredictorConfig(Uni))
	if _, err := p.TestMetrics(); err == nil {
		t.Fatal("TestMetrics before Fit must error")
	}
	if _, err := p.Forecast(); err == nil {
		t.Fatal("Forecast before Fit must error")
	}
	if err := p.Fit([][]float64{{1, 2, 3}}, 5); err == nil {
		t.Fatal("bad target must error")
	}
	if err := p.Fit([][]float64{{math.NaN(), math.NaN()}}, 0); err == nil {
		t.Fatal("all-NaN series must error")
	}
	short := [][]float64{{1, 2, 3, 4, 5}}
	if err := p.Fit(short, 0); err == nil {
		t.Fatal("too-short series must error")
	}
}

func TestPredictorCleansMissingData(t *testing.T) {
	e := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 900, Seed: 6, MissingRate: 0.03,
	})[0]
	p := NewPredictor(smallPredictorConfig(Uni))
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	rep, err := p.TestMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.MSE) {
		t.Fatal("NaN survived the cleaning stage")
	}
}

// RPTCN must clearly beat the mean predictor on an autocorrelated workload.
func TestPredictorBeatsMeanBaseline(t *testing.T) {
	e := smallEntity(1200, 7)
	cfg := smallPredictorConfig(MulExp)
	cfg.Epochs = 15
	p := NewPredictor(cfg)
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	truth, _, err := p.TestSeries()
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := p.TestMetrics()
	if rep.MSE >= stats.Variance(truth) {
		t.Fatalf("RPTCN MSE %g not better than test variance %g", rep.MSE, stats.Variance(truth))
	}
}
