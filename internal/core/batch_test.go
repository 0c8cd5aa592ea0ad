package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/tensor"
)

// batchModels builds the three Table II architectures for the batching
// equivalence suite.
func batchModels(channels, window int) map[string]nn.Layer {
	r := tensor.NewRNG(17)
	return map[string]nn.Layer{
		"RPTCN": NewModel(r, Config{
			InChannels: channels,
			Channels:   []int{8, 8},
			KernelSize: 3,
			Dropout:    0.1,
			WeightNorm: true,
			FCWidth:    12,
			Horizon:    2,
		}),
		"LSTM": models.NewLSTM(r, models.LSTMConfig{
			InChannels: channels, Hidden: 10, Horizon: 2,
		}),
		"CNN-LSTM": models.NewCNNLSTM(r, models.CNNLSTMConfig{
			InChannels: channels, ConvChannels: 8, KernelSize: 3,
			Hidden: 9, Horizon: 2, Dropout: 0.1,
		}),
	}
}

// TestBatchedArenaMatchesPerRequestForward is the serving-correctness
// keystone: every row of a micro-batched arena forward must be bitwise
// identical to running that request alone, layer by layer, through
// Forward (see everyStep), at batch sizes 1/7/32, under worker counts
// 1/2/4. RPTCN is the served model; LSTM and CNN-LSTM have no arena path
// and hold their batched Forward(x, false) to the same row independence.
func TestBatchedArenaMatchesPerRequestForward(t *testing.T) {
	const channels, window = 3, 16
	for name, model := range batchModels(channels, window) {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				prev := par.SetWorkers(workers)
				arena := nn.NewInferArena()
				for _, batch := range []int{1, 7, 32} {
					r := tensor.NewRNG(uint64(900 + batch))
					x := tensor.RandN(r, batch, channels, window)
					var got *tensor.Tensor
					if m, served := model.(*Model); served {
						arena.Reset()
						got = m.InferForward(arena, x)
					} else {
						got = model.Forward(x, false)
					}
					h := got.Dim(1)
					for i := 0; i < batch; i++ {
						single := tensor.New(1, channels, window)
						copy(single.Data, x.Data[i*channels*window:(i+1)*channels*window])
						want := everyStep{model}.Forward(single, false)
						requireBitwiseEqual(t,
							fmt.Sprintf("%s workers=%d batch=%d row=%d", name, workers, batch, i),
							got.Data[i*h:(i+1)*h], want.Data)
					}
				}
				par.SetWorkers(prev)
			}
		})
	}
}

// servingWindows builds k raw request histories compatible with a fitted
// predictor: same indicator count, enough samples for MinHistory.
func servingWindows(p *Predictor, indicators, k int) [][][]float64 {
	r := tensor.NewRNG(71)
	n := p.MinHistory() + 4
	wins := make([][][]float64, k)
	for i := range wins {
		w := make([][]float64, indicators)
		for c := range w {
			row := make([]float64, n)
			for j := range row {
				row[j] = r.Float64()
			}
			w[c] = row
		}
		wins[i] = w
	}
	return wins
}

// TestForecastBatchMatchesTrainingPath fits a real predictor, then
// checks ForecastBatch against a hand-rolled per-request forward, stage
// by stage at batch 1 (see everyStep), bitwise, at batch sizes 1/7/32.
func TestForecastBatchMatchesTrainingPath(t *testing.T) {
	const indicators = 4
	series := syntheticSeries(160)
	p := NewPredictor(PredictorConfig{
		Scenario:     MulExp,
		Window:       12,
		Horizon:      2,
		ExpandFactor: 2,
		Epochs:       2,
		BatchSize:    8,
		Seed:         9,
		Model:        Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
	})
	if err := p.Fit(series, 0); err != nil {
		t.Fatal(err)
	}
	wins := servingWindows(p, len(series), 32)
	inputs := make([]*PreparedInput, len(wins))
	for i, w := range wins {
		in, err := p.PrepareInput(w)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = in
	}
	for _, batch := range []int{1, 7, 32} {
		got, err := p.ForecastBatch(inputs[:batch])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			in := inputs[i]
			x := tensor.New(1, in.channels, p.Cfg.Window)
			copy(x.Data, in.data)
			out := everyStep{p.Model()}.Forward(x, false)
			want := p.norm.Inverse(p.target, out.Data)
			requireBitwiseEqual(t, fmt.Sprintf("batch=%d req=%d", batch, i), got[i], want)
		}
	}
}

// TestForecastFromConcurrentRequests hammers the predictor's own engine
// from many goroutines; run under -race this pins that its calls
// serialize on the engine's arenas and share nothing else.
func TestForecastFromConcurrentRequests(t *testing.T) {
	series := syntheticSeries(140)
	p := NewPredictor(PredictorConfig{
		Scenario:  Mul,
		Window:    10,
		Horizon:   1,
		Epochs:    1,
		BatchSize: 8,
		Seed:      3,
		Model:     Config{Channels: []int{4}, KernelSize: 2},
	})
	if err := p.Fit(series, 0); err != nil {
		t.Fatal(err)
	}
	wins := servingWindows(p, len(series), 8)
	want, err := p.ForecastFrom(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				got, err := p.ForecastFrom(wins[g])
				if err != nil {
					errs <- err
					return
				}
				if g == 0 {
					for i := range got {
						if got[i] != want[i] {
							errs <- fmt.Errorf("concurrent forecast drifted: %g vs %g", got[i], want[i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestForecastBatchRefusesForeignInput: a window prepared by a predictor
// with another channel count (Mul against Mul-Exp here; two registry
// models in a fleet) is a client error from every holder of the batched
// forward — not a panic inside the first convolution, which the shard
// router would count as an engine fault — and the next well-formed batch
// is answered bitwise as before.
func TestForecastBatchRefusesForeignInput(t *testing.T) {
	a, series := genPredictor(t)
	cfg := a.Cfg
	cfg.Scenario = Mul
	b := NewPredictor(cfg)
	if err := b.Fit(series, 0); err != nil {
		t.Fatal(err)
	}
	win := servingWindows(a, len(series), 1)[0]
	foreign, err := a.PrepareInput(win)
	if err != nil {
		t.Fatal(err)
	}
	own, err := b.PrepareInput(win)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.ForecastBatch([]*PreparedInput{own})
	if err != nil {
		t.Fatal(err)
	}
	si, cand := b.NewShardInferencer(), b.NewCandidateInferencer(b.Model())
	holders := map[string]func(in *PreparedInput) ([]float64, error){
		"predictor": func(in *PreparedInput) ([]float64, error) {
			res, err := b.ForecastBatch([]*PreparedInput{in})
			return first(res), err
		},
		"shard engine": func(in *PreparedInput) ([]float64, error) {
			res, _, err := si.ForecastBatchGen([]*PreparedInput{in})
			return first(res), err
		},
		"candidate": func(in *PreparedInput) ([]float64, error) { return engineForecast(cand, in) },
	}
	for name, forecast := range holders {
		for _, bad := range []*PreparedInput{foreign, nil} {
			if _, err := forecast(bad); err == nil {
				t.Fatalf("%s accepted a window that is not its model's shape", name)
			}
		}
		got, err := forecast(own)
		if err != nil {
			t.Fatalf("%s after a refused batch: %v", name, err)
		}
		requireBitwiseEqual(t, name+" after a refused batch", got, want[0])
	}
}

func first(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	return rows[0]
}

// BenchmarkForecastBatch32 measures one micro-batched arena forward of
// 32 prepared requests through a fitted RPTCN predictor.
func BenchmarkForecastBatch32(b *testing.B) {
	series := syntheticSeries(200)
	p := NewPredictor(PredictorConfig{
		Scenario:  Mul,
		Window:    32,
		Horizon:   1,
		Epochs:    1,
		BatchSize: 16,
		Seed:      4,
		Model:     Config{Channels: []int{16, 16, 16}, KernelSize: 3, WeightNorm: true},
	})
	if err := p.Fit(series, 0); err != nil {
		b.Fatal(err)
	}
	wins := servingWindows(p, len(series), 32)
	inputs := make([]*PreparedInput, len(wins))
	for i, w := range wins {
		in, err := p.PrepareInput(w)
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = in
	}
	if _, err := p.ForecastBatch(inputs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ForecastBatch(inputs); err != nil {
			b.Fatal(err)
		}
	}
}
