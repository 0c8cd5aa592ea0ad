package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/trace"
)

// prepFixture is one predictor per pipeline PrepareInput serves: the
// three scenarios, Mul-Exp in each expansion mode, lags+diff at factor 1
// (whose difference trims a row the lags do not), and one fitted on a
// history whose target is constant, which the normalizer scales to 0.
var prepFixture struct {
	once sync.Once
	ps   []*Predictor
	err  error
}

func prepPredictors(t testing.TB) []*Predictor {
	t.Helper()
	f := &prepFixture
	f.once.Do(func() {
		raw := trace.Generate(trace.GeneratorConfig{
			Entities: 1, Kind: trace.Container, Samples: 160, Seed: 9,
		})[0].Matrix()
		flat := make([][]float64, len(raw))
		for i := range raw {
			flat[i] = raw[i]
			if i == int(trace.CPUUtilPercent) {
				flat[i] = make([]float64, len(raw[i]))
				for j := range flat[i] {
					flat[i][j] = 42
				}
			}
		}
		for _, c := range []struct {
			sc     Scenario
			mode   ExpansionMode
			factor int
			series [][]float64
		}{
			{Uni, ExpandLags, 3, raw},
			{Mul, ExpandLags, 3, raw},
			{MulExp, ExpandLags, 3, raw},
			{MulExp, ExpandLagsDiff, 3, raw},
			{MulExp, ExpandWeighted, 3, raw},
			{MulExp, ExpandLagsDiff, 1, raw},
			{MulExp, ExpandLagsDiff, 2, flat},
		} {
			p := NewPredictor(PredictorConfig{
				Scenario: c.sc, Expansion: c.mode, ExpandFactor: c.factor,
				Window: 8, Horizon: 1, Epochs: 1, Seed: 3,
				Model: Config{Channels: []int{2}, KernelSize: 2, FCWidth: 2},
			})
			if f.err = p.Fit(c.series, int(trace.CPUUtilPercent)); f.err != nil {
				return
			}
			f.ps = append(f.ps, p)
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.ps
}

// stagedPrepare is the oracle of PrepareInput: the staged pipeline
// (Clean, Transform, Select, expand) and the trailing window of its
// output, as PrepareInput ran before it became one pass.
func stagedPrepare(p *Predictor, series [][]float64) (*PreparedInput, error) {
	sel, cleanedLen, err := p.prepareServe(series)
	if err != nil {
		return nil, err
	}
	if len(sel) == 0 || len(sel[0]) < p.Cfg.Window {
		return nil, fmt.Errorf("core: need at least %d complete samples, have %d", p.MinHistory(), cleanedLen)
	}
	return lastWindow(sel, p.Cfg.Window), nil
}

// prepHistory decodes a fuzz input into n samples of every indicator:
// value v of indicator i at time t is data[(t·8+i) mod len(data)], so a
// short data repeats (down to constant series when it is one byte or
// none); 0xff, 0xfe and 0xfd decode to NaN, +Inf and −Inf.
func prepHistory(n int, data []byte) [][]float64 {
	series := make([][]float64, trace.NumIndicators)
	for i := range series {
		series[i] = make([]float64, n)
		for t := range series[i] {
			if len(data) == 0 {
				continue
			}
			switch b := data[(t*trace.NumIndicators+i)%len(data)]; b {
			case 0xff:
				series[i][t] = math.NaN()
			case 0xfe:
				series[i][t] = math.Inf(1)
			case 0xfd:
				series[i][t] = math.Inf(-1)
			default:
				series[i][t] = float64(b)*0.37 - 3
			}
		}
	}
	return series
}

// FuzzPrepareWindow pins PrepareInput's one pass to the staged pipeline
// on every scenario and expansion mode: for any history — empty, short,
// with NaN or ±Inf rows anywhere, constant — both produce the same
// window bit for bit, or the same error text.
func FuzzPrepareWindow(f *testing.F) {
	for which := range 7 {
		for _, n := range []uint16{0, 9, 10, 11, 30} {
			f.Add(uint8(which), n, []byte{10, 200, 0xff, 3, 77, 1, 250, 9, 12, 40, 0xfe, 5, 6, 7, 8, 9, 100})
			f.Add(uint8(which), n, []byte{10, 200, 31, 3, 77, 1, 250, 9, 12, 40, 17})
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, n uint16, data []byte) {
		ps := prepPredictors(t)
		p := ps[int(which)%len(ps)]
		series := prepHistory(int(n)%(3*p.MinHistory()+1), data)
		want, werr := stagedPrepare(p, series)
		got, gerr := p.PrepareInput(series)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("errors differ: staged %v, one pass %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if got.channels != want.channels || len(got.data) != len(want.data) {
			t.Fatalf("window is %d channels × %d values, staged %d × %d",
				got.channels, len(got.data), want.channels, len(want.data))
		}
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Fatalf("window[%d] = %v, staged %v (channel %d, step %d)",
					i, got.data[i], want.data[i], i/p.Cfg.Window, i%p.Cfg.Window)
			}
		}
	})
}

// TestPrepareInputAllocations pins the one pass to two allocations, the
// PreparedInput and its slab, on every pipeline.
func TestPrepareInputAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	for _, p := range prepPredictors(t) {
		series := prepHistory(3*p.MinHistory(), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
		if _, err := p.PrepareInput(series); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(100, func() { p.PrepareInput(series) }); a > 2 {
			t.Errorf("%s/%s: PrepareInput allocates %v objects, want ≤ 2", p.Cfg.Scenario, p.Cfg.Expansion, a)
		}
	}
}
