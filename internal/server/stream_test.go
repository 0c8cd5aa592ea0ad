package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/train"
)

// streamFitted is a predictor of the reference architecture's shape —
// k=3 and d=1/2/4 over a window of 32 — with smaller blocks.
func streamFitted(t *testing.T) (*core.Predictor, *trace.EntitySeries) {
	t.Helper()
	e := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 700, Seed: 1,
	})[0]
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 32, Horizon: 3, Epochs: 2, Seed: 2,
		Model: core.Config{Channels: []int{8, 8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16},
	})
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	return p, e
}

// streamFleet drives entities of the streamFitted fixture through a
// server: samples go straight into the rings, reads over HTTP, and every
// read is held bitwise to ForecastFrom over the window the ring held.
type streamFleet struct {
	t    *testing.T
	p    *core.Predictor
	srv  *Server
	reg  *obs.Registry
	url  string
	raw  [][]float64
	next map[string]int // samples of raw each entity's ring was given
}

func newStreamFleet(t *testing.T, maxEntities int) *streamFleet {
	p, e := streamFitted(t)
	reg := obs.NewRegistry()
	srv := New(p, WithRegistry(reg), quiet, WithIngest(IngestConfig{MaxEntities: maxEntities}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &streamFleet{t: t, p: p, srv: srv, reg: reg, url: ts.URL, raw: e.Matrix(), next: map[string]int{}}
}

// ingest appends the entity's next n samples.
func (f *streamFleet) ingest(id string, n int) {
	for range n {
		i := f.next[id]
		var vals [trace.NumIndicators]float64
		for k := range vals {
			vals[k] = f.raw[k][i]
		}
		if !f.srv.rings.Ingest([]byte(id), 10*(i+1), &vals) {
			f.t.Fatalf("%s: sample %d rejected", id, i)
		}
		f.next[id] = i + 1
	}
}

// read fetches the entity's forecast and holds it bitwise to
// ForecastFrom over the ring's window; it returns the response.
func (f *streamFleet) read(id, what string) ForecastResponse {
	f.t.Helper()
	resp, err := http.Get(f.url + "/v1/forecast/" + id)
	if err != nil {
		f.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("%s: %s: status %d", what, id, resp.StatusCode)
	}
	got := decodeForecast(f.t, resp)
	n := f.next[id]
	win := make([][]float64, len(f.raw))
	for k := range win {
		win[k] = f.raw[k][n-f.p.MinHistory() : n]
	}
	want, err := f.p.ForecastFrom(win)
	if err != nil {
		f.t.Fatal(err)
	}
	if got.Degraded || !slices.Equal(got.Forecast, want) {
		f.t.Fatalf("%s: %s served %v (degraded %v), ForecastFrom %v", what, id, got.Forecast, got.Degraded, want)
	}
	return got
}

// outcomes returns the stream counters of shard 0: hit, refill.
func (f *streamFleet) outcomes() [2]float64 {
	var out [2]float64
	for o := range out {
		out[o] = counterVal(f.reg, "rptcn_stream_total", obs.L("shard", "0"),
			obs.L("outcome", core.StreamOutcome(o).String()))
	}
	return out
}

// expect checks how the reads since the last call were served.
func (f *streamFleet) expect(last *[2]float64, hit, refill float64, what string) {
	f.t.Helper()
	now := f.outcomes()
	if d := [2]float64{now[0] - last[0], now[1] - last[1]}; d != [2]float64{hit, refill} {
		f.t.Fatalf("%s: served %v hits/refills, want %v", what, d, [2]float64{hit, refill})
	}
	*last = now
}

// TestEntityStreamMatchesForecastFrom covers what the standing
// benchmark's oracle does not: it scores only the first read of each
// entity, and every first read is a refill. Here every read is compared
// with ForecastFrom — repeated reads with nothing new (hits), reads after
// 1, 3, 32 (the window) and 33 new samples, after a hot swap and a
// rollback, and after an eviction and re-ingest — and the outcome
// counters say how each was served.
func TestEntityStreamMatchesForecastFrom(t *testing.T) {
	f := newStreamFleet(t, 2)
	var last [2]float64
	f.ingest("a", 100)
	f.ingest("b", 100)
	f.read("a", "first read")
	f.read("b", "first read")
	f.expect(&last, 0, 2, "first reads")
	for range 2 {
		f.read("a", "nothing new")
		f.read("b", "nothing new")
	}
	f.expect(&last, 4, 0, "reads with nothing new")

	for _, s := range []int{1, 3, 32, 33} {
		f.ingest("a", s)
		f.read("a", fmt.Sprintf("after %d samples", s))
		f.read("a", fmt.Sprintf("after %d samples, nothing new", s))
		f.expect(&last, 1, 1, fmt.Sprintf("after %d samples", s))
	}

	prev := f.p.Model()
	cand := prev.Clone()
	for _, prm := range cand.Params() {
		for i := range prm.Value.Data {
			prm.Value.Data[i] *= 1.01
		}
	}
	if _, _, _, err := f.p.SwapModel(cand, train.Dataset{}); err != nil {
		t.Fatal(err)
	}
	swapped := f.read("a", "after a swap")
	f.read("a", "after a swap, nothing new")
	for range 2 {
		f.ingest("a", 1)
		f.read("a", "after a swap and a sample")
	}
	f.expect(&last, 1, 3, "after a swap")
	if _, _, _, err := f.p.SwapModel(prev, train.Dataset{}); err != nil {
		t.Fatal(err)
	}
	if rolled := f.read("a", "after a rollback"); rolled.Generation != swapped.Generation+1 {
		t.Fatalf("rollback served generation %d, want %d", rolled.Generation, swapped.Generation+1)
	}
	f.expect(&last, 0, 1, "after a rollback")

	// A third entity evicts b, the least recently used; b comes back with
	// a fresh ring and no state.
	f.ingest("c", 100)
	if f.srv.rings.SampleCount("b") != 0 {
		t.Fatal("b was not evicted")
	}
	f.next["b"] = 0
	f.ingest("b", 100)
	f.read("b", "after eviction and re-ingest")
	f.read("b", "after eviction and re-ingest, nothing new")
	f.expect(&last, 1, 1, "after eviction")

	// /debug/shards reports the same reads as shares.
	resp, err := http.Get(f.url + "/debug/shards")
	if err != nil {
		t.Fatal(err)
	}
	var st ShardsStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reads := last[0] + last[1]
	if got := st.PerShard[0].Stream; float64(got.Reads) != reads || got.Hit != last[0]/reads || got.Refill != last[1]/reads {
		t.Fatalf("/debug/shards stream = %+v, want %v reads split %v", got, reads, last)
	}
}

// TestEntityStreamFaultNeverStored: a forecast the model corrupts with
// NaN (the model.forward.out fault point) or a forward that panics
// (model.forward) degrades that read, nothing of it lands in the
// entity's slot, and the next read is clean and bitwise ForecastFrom's.
func TestEntityStreamFaultNeverStored(t *testing.T) {
	for _, tc := range []struct {
		rule  fault.Rule
		after bool // the entity was read before the faulted sample, else never
	}{
		{fault.Rule{Scope: "model.forward.out", Kind: fault.KindNaN, Times: 1}, false},
		{fault.Rule{Scope: "model.forward.out", Kind: fault.KindNaN, Times: 1}, true},
		{fault.Rule{Scope: "model.forward", Kind: fault.KindPanic, Times: 1}, true},
	} {
		f := newStreamFleet(t, 0)
		f.ingest("a", 100)
		if tc.after {
			f.read("a", "before the fault")
			f.ingest("a", 1)
		}
		inj := fault.NewInjector(tc.rule)
		restore := fault.Activate(inj)
		resp, err := http.Get(f.url + "/v1/forecast/a")
		if err != nil {
			t.Fatal(err)
		}
		got := decodeForecast(t, resp)
		restore()
		if inj.Fired(tc.rule.Scope) != 1 {
			t.Fatalf("%s: the fault fired %d times, want 1", tc.rule.Scope, inj.Fired(tc.rule.Scope))
		}
		if !got.Degraded {
			t.Fatalf("%s: a faulted forecast was served as %v", tc.rule.Scope, got.Forecast)
		}
		for _, v := range got.Forecast {
			if math.IsNaN(v) {
				t.Fatalf("NaN leaked to the client: %v", got.Forecast)
			}
		}
		last := f.outcomes()
		f.read("a", "after the fault")
		f.read("a", "after the fault, nothing new")
		f.expect(&last, 1, 1, "after the fault")
	}
}

// TestEntityHitAllocations pins the read with nothing new: it answers
// from the calling goroutine with a copy of the stored forecast.
func TestEntityHitAllocations(t *testing.T) {
	f := newStreamFleet(t, 0)
	f.ingest("a", 100)
	f.read("a", "first read")
	if res := f.srv.rings.Forecast("a", ""); res.Err != nil {
		t.Fatal(res.Err)
	}
	allocs := testing.AllocsPerRun(100, func() { f.srv.rings.Forecast("a", "") })
	if allocs > 4 {
		t.Fatalf("a read with nothing new allocates %.1f objects, want ≤ 4", allocs)
	}
}

// TestEntityForecastAllocations pins what one stream-hit GET
// /v1/forecast/{entity} allocates through ServeHTTP, request and recorder
// included: ≤ 25 objects (27 while a telemetry slot rode the request
// context).
func TestEntityForecastAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	f := newStreamFleet(t, 0)
	f.ingest("a", 100)
	f.read("a", "first read")
	get := func() {
		rr := httptest.NewRecorder()
		f.srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/forecast/a", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	if allocs := testing.AllocsPerRun(200, get); allocs > 25 {
		t.Fatalf("one GET /v1/forecast/{entity} allocates %.0f objects, want ≤ 25", allocs)
	}
}
