package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/trace"
)

// TestForecastSwapHammer is the torn-read gate from the issue: hammer
// /v1/forecast from many goroutines while a hot-swap lands mid-flight.
// Every response must be 200, never degraded, and bitwise equal to the
// expected forecast OF ITS REPORTED GENERATION — a response mixing old
// and new weights (or a 5xx caused by the swap) fails. Run under -race
// this also proves the swap path is data-race-free against serving.
func TestForecastSwapHammer(t *testing.T) {
	p, e := fitted(t)

	// Candidate fine-tuned on slightly shifted history so its weights
	// (and forecasts) genuinely differ from generation 1.
	shift := make([][]float64, trace.NumIndicators)
	for i := range shift {
		src := e.Metrics[i]
		row := make([]float64, len(src))
		for j, v := range src {
			row[j] = v + 3
		}
		shift[i] = row
	}
	cand, eval, _, err := p.FineTune(shift, core.FineTuneConfig{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Expected forecast per generation, computed up front: the serving
	// path is bitwise deterministic for a fixed model, and a candidate
	// engine agrees bitwise with post-swap serving (core suite).
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		m := e.Metrics[i]
		tail[i] = m[len(m)-p.MinHistory():]
	}
	f1, err := p.ForecastFrom(tail)
	if err != nil {
		t.Fatal(err)
	}
	in, err := p.PrepareInput(tail)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := p.NewCandidateInferencer(cand).ForecastBatchGen([]*core.PreparedInput{in})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64][]float64{1: f1, 2: f2[0]}

	s := New(p, WithRegistry(obs.NewRegistry()))
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	body, _ := json.Marshal(ForecastRequest{Indicators: tail})
	var (
		stopHammer atomic.Bool
		sawGen     [3]atomic.Int64
		failures   atomic.Int64
		firstErr   atomic.Value
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopHammer.Load() {
				resp, err := http.Post(ts.URL+"/v1/forecast", "application/json", bytes.NewReader(body))
				if err != nil {
					fail("request error: %v", err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("status %d: %s", resp.StatusCode, raw)
					return
				}
				var fr ForecastResponse
				if err := json.Unmarshal(raw, &fr); err != nil {
					fail("bad response JSON: %v", err)
					return
				}
				if fr.Degraded {
					fail("degraded forecast during swap")
					return
				}
				exp, ok := want[fr.Generation]
				if !ok {
					fail("unknown generation %d", fr.Generation)
					return
				}
				if len(fr.Forecast) != len(exp) {
					fail("forecast length %d, want %d", len(fr.Forecast), len(exp))
					return
				}
				for i := range exp {
					if math.Float64bits(fr.Forecast[i]) != math.Float64bits(exp[i]) {
						fail("gen %d forecast[%d] = %x, want %x — torn read",
							fr.Generation, i, math.Float64bits(fr.Forecast[i]), math.Float64bits(exp[i]))
						return
					}
				}
				sawGen[fr.Generation].Add(1)
			}
		}()
	}

	// Let generation 1 serve under load, swap mid-hammer, then let
	// generation 2 serve under load.
	for sawGen[1].Load() < 32 && failures.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, _, gen, err := p.SwapModel(cand, eval); err != nil || gen != 2 {
		t.Fatalf("swap: gen=%d err=%v", gen, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for sawGen[2].Load() < 32 && failures.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("generation 2 never observed under load")
		}
		time.Sleep(time.Millisecond)
	}
	stopHammer.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d hammer failures; first: %v", n, firstErr.Load())
	}
	if sawGen[1].Load() == 0 || sawGen[2].Load() == 0 {
		t.Fatalf("hammer did not straddle the swap: gen1=%d gen2=%d", sawGen[1].Load(), sawGen[2].Load())
	}
}

// TestServerAdaptationEndToEnd drives the whole loop over HTTP: a
// mutated regime is ingested and forecast against; the quality engine's
// mutation detector fires; the supervisor retrains from the rings,
// shadow-scores against mirrored live traffic (fed by the requests' own
// self-join actuals), and hot-swaps. The test gates on /debug/adapt
// reporting a swap and /v1/model reporting generation 2.
func TestServerAdaptationEndToEnd(t *testing.T) {
	ser := trace.GenerateWithMutations(900, []int{500}, 13)
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 16, Horizon: 3, Epochs: 4, Seed: 2,
		Model: core.Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16},
	})
	clean := make([][]float64, trace.NumIndicators)
	for i := range clean {
		clean[i] = ser.Metrics[i][:480]
	}
	if err := p.Fit(clean, int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}

	s := New(p,
		WithRegistry(obs.NewRegistry()),
		WithQualityConfig(quality.Config{Preset: quality.PresetFast}),
		WithAdaptation(adapt.Config{
			MinSamples:        160,
			FineTune:          core.FineTuneConfig{Epochs: 2, Seed: 5},
			MinShadowResolved: 6,
			ProbationResolved: 6,
			Cooldown:          time.Millisecond,
		}),
	)
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	// Stream the mutated tail into the rings (training data for the
	// candidate).
	var csv bytes.Buffer
	tailSer := &trace.EntitySeries{ID: "m1", Interval: ser.Interval}
	for i := range tailSer.Metrics {
		tailSer.Metrics[i] = ser.Metrics[i][500:]
	}
	if err := trace.WriteCSV(&csv, []*trace.EntitySeries{tailSer}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	// Replay forecasts over the mutated regime with entity+T so the
	// self-join resolves earlier forecasts (feeding both the quality
	// engine and the shadow scorer) and input stats drive the mutation
	// detector. Walk until the supervisor reports a swap.
	hist := p.MinHistory()
	deadline := time.Now().Add(120 * time.Second)
	swapped := false
	for pass := 0; !swapped; pass++ {
		for s0 := 500 + hist; s0 < 900 && !swapped; s0++ {
			win := make([][]float64, trace.NumIndicators)
			for i := range win {
				win[i] = ser.Metrics[i][s0-hist : s0]
			}
			tt := int64(s0 - 1)
			raw, _ := json.Marshal(ForecastRequest{Indicators: win, Entity: "m1", T: &tt})
			r2, err := http.Post(ts.URL+"/v1/forecast", "application/json", strings.NewReader(string(raw)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, r2.Body)
			r2.Body.Close()
			if r2.StatusCode != http.StatusOK {
				t.Fatalf("forecast status %d at sample %d", r2.StatusCode, s0)
			}
			st := s.Adaptation().Status()
			if st.Swaps >= 1 {
				swapped = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no swap after %d passes; adapt status: %+v", pass+1, s.Adaptation().Status())
		}
	}

	// /v1/model reflects the new generation and the adapt snapshot.
	r3, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	var info ModelInfo
	if err := json.NewDecoder(r3.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Generation < 2 {
		t.Fatalf("model generation = %d, want ≥ 2 after swap", info.Generation)
	}
	if info.Adapt == nil || info.Adapt.Swaps < 1 {
		t.Fatalf("model adapt snapshot missing or swapless: %+v", info.Adapt)
	}
	if info.Adapt.LastSwapUnix == 0 {
		t.Fatal("last-swap timestamp not reported")
	}

	// /debug/adapt serves the same snapshot.
	r4, err := http.Get(ts.URL + "/debug/adapt")
	if err != nil {
		t.Fatal(err)
	}
	defer r4.Body.Close()
	var st adapt.Status
	if err := json.NewDecoder(r4.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Swaps < 1 {
		t.Fatalf("/debug/adapt swaps = %d, want ≥ 1", st.Swaps)
	}
}

// TestIngestMaxEntitiesEviction: the ring store honors the LRU cap end
// to end — ingesting one entity past the cap evicts the oldest and the
// eviction surfaces on /metrics.
func TestIngestMaxEntitiesEviction(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	s := New(p, WithRegistry(reg), WithIngest(IngestConfig{MaxEntities: 2}))
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	ingest := func(id string) {
		t.Helper()
		es := &trace.EntitySeries{ID: id, Interval: e.Interval}
		for i := range es.Metrics {
			es.Metrics[i] = e.Metrics[i][:8]
		}
		var csv bytes.Buffer
		if err := trace.WriteCSV(&csv, []*trace.EntitySeries{es}); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv", &csv)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", id, resp.StatusCode)
		}
	}
	ingest("a")
	ingest("b")
	ingest("c") // evicts a (LRU)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "rptcn_ingest_evicted_entities_total 1") {
		t.Fatalf("eviction counter missing from /metrics:\n%s",
			grepLines(string(raw), "rptcn_ingest_"))
	}
	// The evicted entity is gone; the newcomers survive.
	var ids []EntityInfo
	r2, err := http.Get(ts.URL + "/v1/entities")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("entities after eviction = %v, want 2", ids)
	}
	for _, info := range ids {
		if info.ID == "a" {
			t.Fatal("LRU entity a not evicted")
		}
	}
}

func grepLines(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}
