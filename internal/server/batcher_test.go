package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestModelPanicOnPostCountsOnce: a model panic under POST /v1/forecast
// is recovered in the shard's batch, which ticks the same
// rptcn_panics_recovered_total family the middleware owns — one fault,
// one event — and the request degrades at its own call site. (That a
// fused batch of N waiters still ticks once is pinned where the batch can
// be forced, in internal/shard's TestEnginePanicIsIsolated.)
func TestModelPanicOnPostCountsOnce(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	srv := New(p, WithRegistry(reg), quiet)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inj := fault.NewInjector(fault.Rule{Scope: "model.forward", Kind: fault.KindPanic, Times: 1})
	defer fault.Activate(inj)()

	resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tailOf(e, 64)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want a degraded 200", resp.StatusCode)
	}
	if out := decodeForecast(t, resp); !out.Degraded {
		t.Fatalf("model panic served undegraded: %+v", out)
	}
	if inj.Fired("model.forward") != 1 {
		t.Fatal("injected model panic never fired")
	}
	if got := counterVal(reg, "rptcn_panics_recovered_total"); got != 1 {
		t.Fatalf("panics recovered = %g, want exactly 1", got)
	}
	if got := counterVal(reg, degradedName, obs.L("reason", "panic")); got != 1 {
		t.Fatalf("degraded{reason=panic} = %g, want 1", got)
	}
}

// TestConcurrentForecastsBitwiseEqualUnderBatching drives the full HTTP
// path with many concurrent identical requests and demands every response
// carry the exact same forecast as a solo warm-up request — micro-batching
// must be invisible in the payload.
func TestConcurrentForecastsBitwiseEqualUnderBatching(t *testing.T) {
	p, e := fitted(t)
	ts := httptest.NewServer(New(p, WithRegistry(obs.NewRegistry()), quiet))
	defer ts.Close()
	tail := tailOf(e, 64)

	solo := decodeForecast(t, forecastReq(t, ts.URL, ForecastRequest{Indicators: tail}))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var out ForecastResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.Degraded {
				errs <- errors.New("healthy request served degraded")
				return
			}
			for i := range solo.Forecast {
				if out.Forecast[i] != solo.Forecast[i] {
					errs <- fmt.Errorf("batched forecast drifted: %v vs %v", out.Forecast, solo.Forecast)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRaggedIndicatorsRejected400: indicator rows of unequal length are a
// malformed payload — rejected up front as a client error, never reaching
// the model path (no degradation, no breaker charge).
func TestRaggedIndicatorsRejected400(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(p, WithRegistry(reg), quiet))
	defer ts.Close()

	ragged := tailOf(e, 64)
	ragged[1] = ragged[1][:7] // one series shorter than the rest

	resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: ragged})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged indicators status = %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("error body missing: %+v %v", eb, err)
	}
	sum := 0.0
	for _, reason := range degradeReasons {
		sum += counterVal(reg, degradedName, obs.L("reason", reason))
	}
	if sum != 0 {
		t.Fatalf("malformed payload counted as degraded forecast: %v", sum)
	}
	if got := counterVal(reg, "rptcn_panics_recovered_total"); got != 0 {
		t.Fatalf("malformed payload caused a recovered panic: %v", got)
	}
}

// benchServing drives b.N forecast requests through ServeHTTP from 32
// concurrent workers and reports throughput plus p50/p99 request latency.
func benchServing(b *testing.B, opts ...Option) { benchServingOver(b, false, opts...) }

// benchServingOver is benchServing; with socket set, each worker is a
// keep-alive HTTP client of a loopback listener instead of a direct
// ServeHTTP caller.
func benchServingOver(b *testing.B, socket bool, opts ...Option) {
	p, e := fitted(b)
	opts = append(opts, WithRegistry(obs.NewRegistry()), quiet)
	srv := New(p, opts...)
	defer srv.Close()
	raw, err := json.Marshal(ForecastRequest{Indicators: tailOf(e, 64)})
	if err != nil {
		b.Fatal(err)
	}

	const workers = 32
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		return rr.Code
	}
	if socket {
		ts := httptest.NewServer(srv)
		defer ts.Close()
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
		defer client.CloseIdleConnections()
		post = func() int {
			resp, err := client.Post(ts.URL+"/v1/forecast", "application/json", bytes.NewReader(raw))
			if err != nil {
				return 0
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive only
			resp.Body.Close()
			return resp.StatusCode
		}
	}
	lat := make([]time.Duration, b.N)
	var next atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				t0 := time.Now()
				code := post()
				lat[i] = time.Since(t0)
				if code != http.StatusOK {
					b.Errorf("status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
}

// BenchmarkForecastServingSerial is the unfused baseline: MaxBatch 1
// forces one forward per request through the same pipeline.
func BenchmarkForecastServingSerial(b *testing.B) {
	benchServing(b, WithBatching(BatchConfig{MaxBatch: 1}))
}

// BenchmarkForecastServingBatched is the default micro-batched path at
// concurrency 32.
func BenchmarkForecastServingBatched(b *testing.B) {
	benchServing(b)
}

// BenchmarkForecastServingSocket is BenchmarkForecastServingBatched with
// its 32 callers on loopback keep-alive connections: each blocks on its
// socket between requests, as a served client does, where the in-process
// callers above go straight from one ServeHTTP to the next.
func BenchmarkForecastServingSocket(b *testing.B) {
	benchServingOver(b, true)
}

// BenchmarkForecastPostSerial is one caller posting the shape a resource
// manager sends — 8 × MinHistory samples with entity and t — and waiting
// for each answer: the latency a lone request pays, where the 32-way
// benchmarks above measure throughput under fusion.
func BenchmarkForecastPostSerial(b *testing.B) { benchPostSerial(b, 0) }

// BenchmarkForecastPostSerial64 is the same caller posting 64 samples per
// indicator, the window fleetreplay sends: history enough to hide a
// horizon and still fill a window.
func BenchmarkForecastPostSerial64(b *testing.B) { benchPostSerial(b, 64) }

// TestForecastPostAllocations pins what one serial POST allocates through
// ServeHTTP, request and recorder included, in the shape
// BenchmarkForecastPostSerial posts: ≤ 36 objects. A forecast run on a
// goroutine of its own behind a staged prepare and per-call metric
// lookups allocated 111; a telemetry slot passed to the middleware
// through the request context cost 3 more than the status recorder
// carrying it does.
func TestForecastPostAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	p, e := fitted(t)
	srv := New(p, WithRegistry(obs.NewRegistry()), quiet)
	defer srv.Close()
	raw := metadataBody(t, e, p.MinHistory())
	post := func() {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(raw)))
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	post()
	if allocs := testing.AllocsPerRun(200, post); allocs > 36 {
		t.Fatalf("one POST /v1/forecast allocates %.0f objects, want ≤ 36", allocs)
	}
}

// benchPostSerial posts samples (0: MinHistory) per indicator serially.
func benchPostSerial(b *testing.B, samples int) {
	p, e := fitted(b)
	srv := New(p, WithRegistry(obs.NewRegistry()), quiet)
	defer srv.Close()
	if samples == 0 {
		samples = p.MinHistory()
	}
	raw := metadataBody(b, e, samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(raw))
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
}
