package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/train"
)

// streamPredictor fits a small predictor over raw container samples, the
// way serving fits one, for the stored-forecast tests: a window of 16
// unless cfg names one.
func streamPredictor(t testing.TB, cfg PredictorConfig) (*Predictor, [][]float64) {
	t.Helper()
	raw := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 500, Seed: 17,
	})[0].Matrix()
	if cfg.Window == 0 {
		cfg.Window = 16
	}
	cfg.Horizon, cfg.Epochs, cfg.BatchSize, cfg.Seed = 2, 1, 32, 3
	p := NewPredictor(cfg)
	if err := p.Fit(raw, int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	return p, raw
}

// ringWindow is what a ring holding the first total samples of raw hands
// a reader: views of its last n samples.
func ringWindow(raw [][]float64, total, n int) [][]float64 {
	win := make([][]float64, len(raw))
	for i, s := range raw {
		win[i] = s[max(total-n, 0):total]
	}
	return win
}

// streamRead serves one entity read the way a shard does: the stored
// forecast when it is current, else a forward whose forecast is stored.
func streamRead(si *ShardInferencer, win [][]float64, total int, slot *any) ([]float64, StreamOutcome, error) {
	if fc, _, ok := si.StreamHit(nil, total, slot); ok {
		return fc, StreamHit, nil
	}
	state := *slot
	in, err := si.PrepareInput(win)
	if err != nil {
		return nil, StreamRefill, err
	}
	out, _, err := si.ForecastBatchGen([]*PreparedInput{in})
	if err != nil {
		return nil, StreamRefill, err
	}
	si.StreamKeep(state, total, out[0])
	return out[0], StreamRefill, nil
}

// TestStreamMatchesForecastFrom drives one entity's reads through every
// case — nothing new, new samples, a window PrepareInput refuses, a swap
// and a rollback — and holds each forecast bitwise to ForecastFrom over
// the same window, and each outcome to the key.
func TestStreamMatchesForecastFrom(t *testing.T) {
	p, raw := streamPredictor(t, PredictorConfig{Scenario: MulExp, Model: Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8}})
	for i := range raw {
		raw[i] = slices.Clone(raw[i])
	}
	raw[3][130] = math.NaN() // an incomplete sample
	si := p.NewShardInferencer()
	var slot any
	mh := p.MinHistory()
	total := mh
	read := func(want StreamOutcome, what string) {
		t.Helper()
		win := ringWindow(raw, total, mh)
		got, outcome, err := streamRead(si, win, total, &slot)
		oracle, oerr := p.ForecastFrom(win)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("%s at %d: read error %v, oracle error %v", what, total, err, oerr)
		}
		if !slices.Equal(got, oracle) {
			t.Fatalf("%s at %d: read %v, ForecastFrom %v", what, total, got, oracle)
		}
		if outcome != want {
			t.Fatalf("%s at %d: served as %v, want %v", what, total, outcome, want)
		}
	}
	read(StreamRefill, "first read")
	read(StreamHit, "nothing new")
	read(StreamHit, "nothing new again")
	for _, s := range []int{1, 3, 32, 33} {
		total += s
		read(StreamRefill, "new samples")
		read(StreamHit, "nothing new")
	}
	// An incomplete sample leaves too few complete ones: both refuse the
	// window, and nothing is stored, so the refusal repeats.
	total = 131
	read(StreamRefill, "refused window")
	read(StreamRefill, "refused window again")
	total = 131 + mh
	read(StreamRefill, "incomplete sample out of the window")
	read(StreamHit, "nothing new")

	prev, prevEval, _, err := p.SwapModel(p.Model().Clone(), train.Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	read(StreamRefill, "after a swap")
	read(StreamHit, "nothing new after a swap")
	if _, _, _, err := p.SwapModel(prev, prevEval); err != nil {
		t.Fatal(err)
	}
	read(StreamRefill, "after a rollback")
	read(StreamHit, "nothing new after a rollback")
}

// TestStreamKeyedBySnapshot: a forecast stored by one engine's snapshot
// is not a hit for an engine serving another — a candidate pinned to the
// published model is a different snapshot — and a forecast that is not
// finite is never stored.
func TestStreamKeyedBySnapshot(t *testing.T) {
	p, raw := streamPredictor(t, PredictorConfig{Scenario: Mul, Model: Config{Channels: []int{4, 4}, KernelSize: 3, WeightNorm: true, FCWidth: 8}})
	mh := p.MinHistory()
	win := ringWindow(raw, mh, mh)
	var slot any
	cand := p.NewCandidateInferencer(p.Model())
	if _, o, err := streamRead(cand, win, mh, &slot); err != nil || o != StreamRefill {
		t.Fatal(o, err)
	}
	if _, o, _ := streamRead(cand, win, mh, &slot); o != StreamHit {
		t.Fatalf("the candidate's own forecast served as %v", o)
	}
	si := p.NewShardInferencer()
	if _, _, ok := si.StreamHit(nil, mh, &slot); ok {
		t.Fatal("the published engine hit on a candidate's forecast")
	}
	if _, o, _ := streamRead(si, win, mh, &slot); o != StreamRefill {
		t.Fatalf("served as %v", o)
	}
	slot = nil
	si.StreamHit(nil, mh, &slot)
	si.StreamKeep(slot, mh, []float64{1, math.NaN()})
	if _, _, ok := si.StreamHit(nil, mh, &slot); ok {
		t.Fatal("a NaN forecast was stored")
	}
}

// TestStreamHitAllocations: a hit copies the stored forecast into the
// caller's buffer and allocates nothing.
func TestStreamHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, raw := streamPredictor(t, PredictorConfig{Scenario: MulExp, Model: Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8}})
	si := p.NewShardInferencer()
	var slot any
	mh := p.MinHistory()
	streamRead(si, ringWindow(raw, mh, mh), mh, &slot)
	dst := make([]float64, 0, p.Cfg.Horizon)
	if a := testing.AllocsPerRun(50, func() {
		if _, _, ok := si.StreamHit(dst, mh, &slot); !ok {
			t.Fatal("not a hit")
		}
	}); a != 0 {
		t.Fatalf("a hit allocates %.1f times, want 0", a)
	}
}
