package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
)

// tailOf returns the last n samples of every indicator series — a valid
// forecast request body derived from the entity the predictor trained on.
func tailOf(e *trace.EntitySeries, n int) [][]float64 {
	out := make([][]float64, trace.NumIndicators)
	for i := range out {
		s := e.Metrics[i]
		out[i] = s[len(s)-n:]
	}
	return out
}

// counterVal reads a counter from the registry (the families under test
// are all pre-registered by New, so the help string is irrelevant).
func counterVal(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	return reg.Counter(name, "", labels...).Value()
}

func decodeForecast(t *testing.T, resp *http.Response) ForecastResponse {
	t.Helper()
	defer resp.Body.Close()
	var out ForecastResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode forecast response: %v", err)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes; counters on
// the 499 path are updated after the client has already gone away, so
// assertions there must tolerate a small scheduling delay.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// routeFixture serves one forecast route — "post" (POST /v1/forecast)
// or "entity" (GET /v1/forecast/{entity}) — over the same 64-sample
// history: the POST carries it as its window, and entity routeEntity's
// ring holds it for the GET. So both routes degrade to the same
// fallback, the target's last sample repeated.
type routeFixture struct {
	t     *testing.T
	route string
	p     *core.Predictor
	reg   *obs.Registry
	url   string
	tail  [][]float64
}

// degradeRoutes are the forecast routes every degradation is driven on.
var degradeRoutes = []string{"post", "entity"}

const routeEntity = "e1"

// newRouteFixture primes srv's rings with e's last 64 samples and serves
// it; adjust srv (its breaker, say) before calling this.
func newRouteFixture(t *testing.T, route string, srv *Server, reg *obs.Registry, e *trace.EntitySeries) *routeFixture {
	t.Helper()
	tail := tailOf(e, 64)
	var vals [trace.NumIndicators]float64
	for s := range tail[0] {
		for k := range vals {
			vals[k] = tail[k][s]
		}
		if !srv.rings.Ingest([]byte(routeEntity), 10*(s+1), &vals) {
			t.Fatalf("ring rejected sample %d", s)
		}
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &routeFixture{t: t, route: route, p: srv.predictor, reg: reg, url: ts.URL, tail: tail}
}

// forecast asks the fixture's route for a forecast.
func (f *routeFixture) forecast() *http.Response {
	f.t.Helper()
	if f.route == "post" {
		return forecastReq(f.t, f.url, ForecastRequest{Indicators: f.tail})
	}
	resp, err := http.Get(f.url + "/v1/forecast/" + routeEntity)
	if err != nil {
		f.t.Fatal(err)
	}
	return resp
}

// expectDegraded asks for a forecast and requires a 200 flagged degraded
// whose forecast is the target's last sample over the whole horizon.
func (f *routeFixture) expectDegraded(what string) {
	f.t.Helper()
	resp := f.forecast()
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		f.t.Fatalf("%s: status = %d, want 200 (degraded)", what, resp.StatusCode)
	}
	out := decodeForecast(f.t, resp)
	if !out.Degraded {
		f.t.Fatalf("%s: response not flagged degraded: %+v", what, out)
	}
	if len(out.Forecast) != f.p.Cfg.Horizon || out.Horizon != f.p.Cfg.Horizon {
		f.t.Fatalf("%s: degraded forecast shape = %+v", what, out)
	}
	last := f.tail[f.p.SelectedIndicators()[0]]
	want := last[len(last)-1]
	for _, v := range out.Forecast {
		if v != want {
			f.t.Fatalf("%s: fallback forecast = %v, want repeated last value %g", what, out.Forecast, want)
		}
	}
}

// expectServed asks for a forecast and requires the model's answer.
func (f *routeFixture) expectServed(what string) {
	f.t.Helper()
	resp := f.forecast()
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		f.t.Fatalf("%s: status = %d, want 200", what, resp.StatusCode)
	}
	if out := decodeForecast(f.t, resp); out.Degraded {
		f.t.Fatalf("%s: served degraded", what)
	}
}

// expectCounts checks the degradation accounting: the reason's counter
// and the error count of the /debug/fleet sketch, which counts every
// degraded answer as an error.
func (f *routeFixture) expectCounts(reason string, degraded, fleetErrors float64) {
	f.t.Helper()
	if got := counterVal(f.reg, degradedName, obs.L("reason", reason)); got != degraded {
		f.t.Fatalf("degraded{reason=%s} = %v, want %v", reason, got, degraded)
	}
	resp, err := http.Get(f.url + "/debug/fleet")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		f.t.Fatal(err)
	}
	if got := float64(st.Fleet.Errors); got != fleetErrors {
		f.t.Fatalf("/debug/fleet errors = %v, want %v", got, fleetErrors)
	}
}

// TestPanicDuringInferenceDegrades: an injected panic on the inference
// path must not crash the process or 500 the request — on either route
// the client gets a 200 with a last-value fallback flagged degraded, and
// the panic and degradation are both accounted for.
func TestPanicDuringInferenceDegrades(t *testing.T) {
	p, e := fitted(t)
	for _, route := range degradeRoutes {
		t.Run(route, func(t *testing.T) {
			reg := obs.NewRegistry()
			f := newRouteFixture(t, route, New(p, WithRegistry(reg), quiet), reg, e)

			inj := fault.NewInjector(fault.Rule{Scope: "server.forecast", Kind: fault.KindPanic, Times: 1})
			defer fault.Activate(inj)()

			f.expectDegraded("injected panic")
			f.expectCounts("panic", 1, 1)
			if got := counterVal(reg, "rptcn_panics_recovered_total"); got != 1 {
				t.Fatalf("panics recovered = %v, want 1", got)
			}
			if inj.Fired("server.forecast") != 1 {
				t.Fatal("injected panic never fired")
			}

			// The injection is exhausted: the next request is served by
			// the model.
			f.expectServed("after the exhausted fault")
			f.expectCounts("panic", 1, 1)
			// One failure in a 20-wide window must not trip the breaker.
			if g := reg.Gauge("rptcn_circuit_open", "").Value(); g != 0 {
				t.Fatalf("circuit open after single failure: gauge = %v", g)
			}
		})
	}
}

// TestInvalidModelOutputDegrades: a NaN poisoned into the model's output
// tensor must be caught before it reaches the client — degraded fallback
// on either route, counted under reason="invalid_output".
func TestInvalidModelOutputDegrades(t *testing.T) {
	p, e := fitted(t)
	for _, route := range degradeRoutes {
		t.Run(route, func(t *testing.T) {
			reg := obs.NewRegistry()
			f := newRouteFixture(t, route, New(p, WithRegistry(reg), quiet), reg, e)

			inj := fault.NewInjector(fault.Rule{Scope: "model.forward.out", Kind: fault.KindNaN, Times: 1})
			defer fault.Activate(inj)()

			f.expectDegraded("NaN model output")
			f.expectCounts("invalid_output", 1, 1)
			if inj.Fired("model.forward.out") != 1 {
				t.Fatal("model.forward.out fault never fired")
			}
		})
	}
}

// TestInferenceTimeoutDegrades: inference slower than the request budget
// degrades to the fallback on either route instead of hanging the caller.
func TestInferenceTimeoutDegrades(t *testing.T) {
	p, e := fitted(t)
	for _, route := range degradeRoutes {
		t.Run(route, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := New(p, WithRegistry(reg), quiet,
				WithResilience(ResilienceConfig{RequestTimeout: 20 * time.Millisecond}))
			f := newRouteFixture(t, route, srv, reg, e)

			inj := fault.NewInjector(fault.Rule{
				Scope: "server.forecast", Kind: fault.KindLatency,
				Latency: 300 * time.Millisecond, Times: 1,
			})
			defer fault.Activate(inj)()

			start := time.Now()
			f.expectDegraded("timed-out inference")
			if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
				t.Fatalf("request waited out the injected latency (%v); deadline did not cut it short", elapsed)
			}
			f.expectCounts("timeout", 1, 1)
		})
	}
}

// TestBreakerOpensThenRecovers drives the full breaker cycle on either
// route: repeated model failures open it (requests short-circuit to the
// fallback without touching the model), and after the cooldown a
// half-open probe that succeeds closes it again.
func TestBreakerOpensThenRecovers(t *testing.T) {
	p, e := fitted(t)
	for _, route := range degradeRoutes {
		t.Run(route, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := New(p, WithRegistry(reg), quiet)
			gauge := reg.Gauge("rptcn_circuit_open", "")
			srv.breaker = newBreaker(4, 0.5, 300*time.Millisecond, gauge)
			f := newRouteFixture(t, route, srv, reg, e)

			// Exactly 4 panics: enough to fill the window and trip the
			// breaker.
			inj := fault.NewInjector(fault.Rule{Scope: "server.forecast", Kind: fault.KindPanic, Times: 4})
			defer fault.Activate(inj)()

			for i := 0; i < 4; i++ {
				f.expectDegraded(fmt.Sprintf("panic %d", i))
			}
			if gauge.Value() != 1 {
				t.Fatalf("breaker not open after %d consecutive failures", 4)
			}

			// While open, requests degrade without probing the model at all.
			probesBefore := inj.Probes("server.forecast")
			f.expectDegraded("open breaker")
			f.expectCounts("breaker_open", 1, 5)
			if inj.Probes("server.forecast") != probesBefore {
				t.Fatal("open breaker still let a request reach the model")
			}

			// After the cooldown the half-open probe hits the (now
			// healthy) model and closes the breaker.
			time.Sleep(400 * time.Millisecond)
			f.expectServed("half-open probe")
			if gauge.Value() != 0 {
				t.Fatal("breaker did not close after a successful probe")
			}
			f.expectCounts("panic", 4, 5)
		})
	}
}

// TestLimiterShedsAndHealthzExempt fills the concurrency limiter to
// capacity and checks overload behavior: forecast/model requests are shed
// with 429 + Retry-After, while /healthz and /metrics keep answering so
// probes and scrapes survive the overload.
func TestLimiterShedsAndHealthzExempt(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	srv := New(p, WithRegistry(reg), quiet,
		WithResilience(ResilienceConfig{MaxInFlight: 2}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	tail := tailOf(e, 64)

	// Occupy both in-flight slots, as two stuck requests would.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}

	resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded forecast status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	mresp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded model-info status = %d, want 429", mresp.StatusCode)
	}
	if got := counterVal(reg, "rptcn_dropped_requests_total"); got != 2 {
		t.Fatalf("dropped counter = %v, want 2", got)
	}

	// Liveness and metrics bypass the limiter.
	for _, path := range []string{"/healthz", "/metrics"} {
		hresp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("%s under overload status = %d, want 200", path, hresp.StatusCode)
		}
	}

	// Capacity freed: service resumes.
	<-srv.sem
	<-srv.sem
	resp = forecastReq(t, ts.URL, ForecastRequest{Indicators: tail})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload status = %d", resp.StatusCode)
	}
}

// TestClientDisconnectIs499NotServerError: a client abandoning a slow
// forecast is recorded as 499 — not a 5xx (the error counter stays at
// zero) and not a breaker failure (the model did nothing wrong).
func TestClientDisconnectIs499NotServerError(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(p, WithRegistry(reg), quiet))
	defer ts.Close()

	inj := fault.NewInjector(fault.Rule{
		Scope: "server.forecast", Kind: fault.KindLatency,
		Latency: 400 * time.Millisecond, Times: 1,
	})
	defer fault.Activate(inj)()

	raw, err := json.Marshal(ForecastRequest{Indicators: tailOf(e, 64)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/forecast", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("expected the client to give up, got status %d", resp.StatusCode)
	}

	waitFor(t, "canceled request accounting", func() bool {
		return counterVal(reg, "rptcn_canceled_requests_total") == 1 &&
			counterVal(reg, "rptcn_http_requests_total",
				obs.L("path", "/v1/forecast"), obs.L("code", "499")) == 1
	})
	if got := counterVal(reg, "rptcn_http_errors_total", obs.L("path", "/v1/forecast")); got != 0 {
		t.Fatalf("client disconnect counted as server error: errors_total = %v", got)
	}
	if g := reg.Gauge("rptcn_circuit_open", "").Value(); g != 0 {
		t.Fatal("client disconnect affected the circuit breaker")
	}
	sum := 0.0
	for _, reason := range degradeReasons {
		sum += counterVal(reg, degradedName, obs.L("reason", reason))
	}
	if sum != 0 {
		t.Fatalf("client disconnect counted as degraded forecast: %v", sum)
	}
}

// TestOversizedBodyRejected413: a request body past the cap is refused
// with 413 before it can exhaust memory, on both JSON routes.
func TestOversizedBodyRejected413(t *testing.T) {
	p, _ := fitted(t)
	ts := httptest.NewServer(New(p, quiet, WithRegistry(obs.NewRegistry())))
	defer ts.Close()

	for _, tc := range []struct{ path, open, close string }{
		{"/v1/forecast", `{"indicators":[[`, `1]]}`},
		{"/v1/observe", `{"t0":0,"values":[`, `1]}`},
	} {
		var body bytes.Buffer
		body.WriteString(tc.open)
		body.Write(bytes.Repeat([]byte("1,"), (maxBodyBytes/2)+1024))
		body.WriteString(tc.close)
		resp, err := http.Post(ts.URL+tc.path, "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body status = %d, want 413", tc.path, resp.StatusCode)
		}
	}
}

// TestRecoveredMiddlewareWrites500 unit-tests the outer panic-recovery
// middleware: a handler panic becomes a 500 when nothing was written, and
// leaves an already-started response alone.
func TestRecoveredMiddlewareWrites500(t *testing.T) {
	p, _ := fitted(t)
	reg := obs.NewRegistry()
	s := New(p, WithRegistry(reg), quiet)

	rr := httptest.NewRecorder()
	s.recovered(func(http.ResponseWriter, *http.Request) { panic("boom") })(
		rr, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", rr.Code)
	}
	if got := counterVal(reg, "rptcn_panics_recovered_total"); got != 1 {
		t.Fatalf("panics recovered = %v, want 1", got)
	}

	// Panic after the handler already committed a status: don't stomp it.
	rec := &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	s.recovered(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late boom")
	})(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.status != http.StatusAccepted {
		t.Fatalf("late panic overwrote status: %d", rec.status)
	}
}

// TestChaosForecastEndpointAlwaysAnswers is the headline chaos suite:
// with panics, NaN corruption, and latency injected at every serving
// fault point on periodic schedules, 40 concurrent forecast requests must
// ALL be answered — 200 with a finite, correctly-shaped forecast, model
// or fallback — and the degraded/shed counters must account for every
// degraded response exactly.
func TestChaosForecastEndpointAlwaysAnswers(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(p, WithRegistry(reg), quiet))
	defer ts.Close()
	tail := tailOf(e, 64)

	inj := fault.NewInjector(
		fault.Rule{Scope: "server.forecast", Kind: fault.KindPanic, After: 2, Every: 5},
		fault.Rule{Scope: "server.forecast", Kind: fault.KindLatency, Latency: 2 * time.Millisecond, Every: 3},
		fault.Rule{Scope: "model.forward.out", Kind: fault.KindNaN, Every: 7},
		fault.Rule{Scope: "model.forward", Kind: fault.KindPanic, After: 1, Every: 11},
	)
	defer fault.Activate(inj)()

	raw, err := json.Marshal(ForecastRequest{Indicators: tail})
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 10, 4
	var (
		mu       sync.Mutex
		degraded int
		answered int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Only t.Errorf below: t.Fatal must not be called off the
			// test goroutine.
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/v1/forecast", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Errorf("chaos request failed outright: %v", err)
					continue
				}
				var out ForecastResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("chaos request status = %d, want 200", resp.StatusCode)
					continue
				}
				if decErr != nil {
					t.Errorf("chaos response undecodable: %v", decErr)
					continue
				}
				if len(out.Forecast) != p.Cfg.Horizon || out.Horizon != p.Cfg.Horizon {
					t.Errorf("chaos forecast shape = %+v", out)
				}
				for _, v := range out.Forecast {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("chaos forecast leaked non-finite value: %v", out.Forecast)
						break
					}
				}
				mu.Lock()
				answered++
				if out.Degraded {
					degraded++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if answered != workers*perWorker {
		t.Fatalf("answered %d of %d chaos requests", answered, workers*perWorker)
	}
	if degraded == 0 {
		t.Fatal("chaos schedule injected faults but no request degraded")
	}

	// Accounting: every degraded response shows up in exactly one reason
	// counter, and nothing was shed (10 workers < MaxInFlight default).
	sum := 0.0
	for _, reason := range degradeReasons {
		sum += counterVal(reg, degradedName, obs.L("reason", reason))
	}
	if sum != float64(degraded) {
		t.Fatalf("degraded counters sum to %v, but %d degraded responses were served", sum, degraded)
	}
	if got := counterVal(reg, "rptcn_dropped_requests_total"); got != 0 {
		t.Fatalf("dropped counter = %v with no 429 responses observed", got)
	}

	// Every serving fault point was genuinely exercised.
	for _, scope := range []string{"server.forecast", "model.forward", "model.forward.out"} {
		if inj.Probes(scope) == 0 {
			t.Fatalf("fault point %q never probed during the chaos run", scope)
		}
	}
	// And the metrics endpoint survived it all.
	if got := scrape(t, ts.URL); got == "" {
		t.Fatal("empty /metrics after chaos run")
	}
}
