package shard

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/train"
)

// streamFixture is a small predictor (k=3, d=1/2, window 16), its model
// and a perturbed copy to swap in, and the raw samples the fuzz target
// feeds the rings.
var streamFixture struct {
	once      sync.Once
	p         *core.Predictor
	base, alt *core.Model
	raw       [][]float64
	err       error
}

func streamFitted(t testing.TB) (*core.Predictor, *core.Model, *core.Model, [][]float64) {
	t.Helper()
	f := &streamFixture
	f.once.Do(func() {
		f.raw = trace.Generate(trace.GeneratorConfig{
			Entities: 1, Kind: trace.Container, Samples: 1200, Seed: 5,
		})[0].Matrix()
		f.p = core.NewPredictor(core.PredictorConfig{
			Scenario: core.MulExp, Window: 16, Horizon: 2, Epochs: 1, Seed: 4,
			Model: core.Config{Channels: []int{4, 4}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
		})
		if f.err = f.p.Fit(f.raw, int(trace.CPUUtilPercent)); f.err != nil {
			return
		}
		f.base = f.p.Model()
		f.alt = f.base.Clone()
		for _, prm := range f.alt.Params() {
			for i := range prm.Value.Data {
				prm.Value.Data[i] *= 1.03
			}
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.p, f.base, f.alt, f.raw
}

// fuzzEntities is how many entity IDs the fuzz target uses, one more
// than its routers hold, so rings get evicted.
const fuzzEntities = 4

// streamReplay is one router and, per entity, a mirror of what its ring
// holds.
type streamReplay struct {
	r      *Router
	rings  map[string][][]float64 // samples since the ring was created, per indicator
	lastTS map[string]int
}

func newStreamReplay(t *testing.T, p *core.Predictor, shards int) *streamReplay {
	engines := make([]Engine, shards)
	for i := range engines {
		engines[i] = p.NewShardInferencer()
	}
	r, err := New(Config{
		Shards: shards, RingCapacity: 2 * p.MinHistory(), MaxEntities: fuzzEntities - 1,
		Engines: engines, Registry: obs.NewRegistry(), Log: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return &streamReplay{r: r, rings: map[string][][]float64{}, lastTS: map[string]int{}}
}

// sync forgets the mirror of every entity the router evicted.
func (s *streamReplay) sync() {
	for id := range s.rings {
		if s.r.SampleCount(id) == 0 {
			delete(s.rings, id)
		}
	}
}

func (s *streamReplay) ingest(id string, vals *[trace.NumIndicators]float64, gap int) {
	s.sync()
	ts := s.lastTS[id] + 10 + gap
	if !s.r.Ingest([]byte(id), ts, vals) {
		panic("an advancing timestamp was rejected")
	}
	s.lastTS[id] = ts
	s.sync() // the ingest may have evicted another entity
	ring := s.rings[id]
	if ring == nil {
		ring = make([][]float64, trace.NumIndicators)
	}
	for k := range ring {
		ring[k] = append(ring[k], vals[k])
	}
	s.rings[id] = ring
}

// check reads the entity through the router and holds the answer to
// ForecastFrom over the window its ring holds: bitwise equal, or both
// refusing it.
func (s *streamReplay) check(t *testing.T, p *core.Predictor, id, what string) {
	s.sync()
	res := s.r.Forecast(id, "")
	ring := s.rings[id]
	if ring == nil {
		if !errors.Is(res.Err, ErrUnknownEntity) {
			t.Fatalf("%s: %s has no ring, served %v (%v)", what, id, res.Forecast, res.Err)
		}
		return
	}
	n := len(ring[0])
	win := make([][]float64, len(ring))
	for k := range win {
		win[k] = ring[k][max(n-p.MinHistory(), 0):]
	}
	want, err := p.ForecastFrom(win)
	switch {
	case res.Panicked:
		t.Fatalf("%s: %s panicked", what, id)
	case (res.Err == nil) != (err == nil):
		t.Fatalf("%s: %s served error %v, ForecastFrom %v", what, id, res.Err, err)
	case err == nil && !slices.Equal(res.Forecast, want):
		t.Fatalf("%s: %s served %v, ForecastFrom %v", what, id, res.Forecast, want)
	}
}

// FuzzStreamMatchesCone drives entities through 1- and 2-shard routers
// that hold fewer rings than there are entities, from the bytes of the
// input: ingest 0–40 samples (some with a missing value or a timestamp
// gap), read, evict a ring and re-ingest it, swap the model for a
// perturbed one and back. Every forecast served — a hit of the entity's
// stored forecast or a refill — must be bitwise ForecastFrom's over the
// window the entity's ring holds.
func FuzzStreamMatchesCone(f *testing.F) {
	f.Add([]byte{0, 20, 1, 1, 0, 1, 1, 0, 3, 1, 1, 0, 16, 1, 0, 17, 1})
	f.Add([]byte{0, 30, 1, 3, 1, 1, 4, 1, 1, 0, 2, 1})
	f.Add([]byte{0, 25, 5, 25, 10, 25, 15, 25, 1, 6, 11, 16, 2, 1, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p, base, alt, raw := streamFitted(t)
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for shards := 1; shards <= 2; shards++ {
			if _, _, _, err := p.SwapModel(base, train.Dataset{}); err != nil {
				t.Fatal(err)
			}
			s := newStreamReplay(t, p, shards)
			cursor := 0
			next := func() byte {
				if cursor >= len(ops) {
					return 0
				}
				cursor++
				return ops[cursor-1]
			}
			sample := 0
			ingest := func(id string, n int, flags byte) {
				for j := 0; j < n; j++ {
					var vals [trace.NumIndicators]float64
					for k := range vals {
						vals[k] = raw[k][sample%len(raw[k])]
					}
					sample++
					if flags&1 != 0 && j == n/2 {
						vals[int(flags>>1)%trace.NumIndicators] = math.NaN()
					}
					gap := 0
					if flags&0x40 != 0 && j == 0 {
						gap = 60
					}
					s.ingest(id, &vals, gap)
				}
			}
			for step := 0; cursor < len(ops); step++ {
				b := next()
				id := fmt.Sprintf("e%d", int(b/5)%fuzzEntities)
				what := fmt.Sprintf("shards %d, op %d", shards, step)
				switch b % 5 {
				case 0: // ingest 0–40 samples
					ingest(id, int(next())%41, next())
				case 1:
					s.check(t, p, id, what)
				case 2: // evict the entity's ring, then re-ingest it
					for j := 0; s.r.SampleCount(id) > 0 && j < fuzzEntities; j++ {
						ingest(fmt.Sprintf("x%d-%d", step, j), 1, 0)
					}
					ingest(id, p.MinHistory()+int(next())%8, 0)
				case 3:
					if _, _, _, err := p.SwapModel(alt, train.Dataset{}); err != nil {
						t.Fatal(err)
					}
				case 4:
					if _, _, _, err := p.SwapModel(base, train.Dataset{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for j := 0; j < fuzzEntities; j++ {
				s.check(t, p, fmt.Sprintf("e%d", j), "final read")
			}
		}
	})
}

// TestStreamUnderConcurrentIngest reads entities while other goroutines
// ingest into them, so stored forecasts are read (hits, from the
// readers' goroutines) and written (by the shard leaders) under
// concurrent appends to the same rings — the race detector's case. Once ingestion
// stops, every entity's next reads are bitwise ForecastFrom's.
func TestStreamUnderConcurrentIngest(t *testing.T) {
	p, base, _, raw := streamFitted(t)
	if _, _, _, err := p.SwapModel(base, train.Dataset{}); err != nil {
		t.Fatal(err)
	}
	engines := []Engine{p.NewShardInferencer(), p.NewShardInferencer()}
	r, err := New(Config{Shards: 2, RingCapacity: 4 * p.MinHistory(), Engines: engines,
		Registry: obs.NewRegistry(), Log: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const entities, samples = 4, 120
	var wg sync.WaitGroup
	for e := 0; e < entities; e++ {
		id := fmt.Sprint("c", e)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < samples; i++ {
				var vals [trace.NumIndicators]float64
				for k := range vals {
					vals[k] = raw[k][i]
				}
				r.Ingest([]byte(id), 10*(i+1), &vals)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 3*samples; i++ {
				if res := r.Forecast(id, ""); res.Panicked {
					t.Error("a read panicked")
				}
			}
		}()
	}
	wg.Wait()
	win := make([][]float64, len(raw))
	for k := range win {
		win[k] = raw[k][samples-p.MinHistory() : samples]
	}
	want, err := p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < entities; e++ {
		for range 2 {
			if res := r.Forecast(fmt.Sprint("c", e), ""); res.Err != nil || !slices.Equal(res.Forecast, want) {
				t.Fatalf("c%d: served %v (%v), ForecastFrom %v", e, res.Forecast, res.Err, want)
			}
		}
	}
}
