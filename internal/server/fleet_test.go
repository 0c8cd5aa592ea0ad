package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/quality"
	"repro/internal/trace"
)

// fleetServer builds a fully-wired server — tracer with tail sampling,
// quality engine with an SLO rule, fleet sketches — the configuration
// /debug/fleet is designed around.
func fleetServer(t testing.TB) (*Server, *httptest.Server, [][]float64) {
	t.Helper()
	p, e := fitted(t)
	tr := obstrace.New(64)
	tr.SetEnabled(true)
	tr.SetTailSampling(&obstrace.TailSampleConfig{KeepEvery: 4})
	rules, err := quality.ParseRules("mae<=1000")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	s := New(p, WithRegistry(reg), WithTracer(tr),
		WithQualityConfig(quality.Config{Rules: rules}),
		WithFleetTelemetry(FleetConfig{K: 8}),
		// Adaptation on, so the rptcn_adapt_* metric family is covered
		// by the promlint self-check below.
		WithAdaptation(adapt.Config{}),
		WithDebugAddr("127.0.0.1:6060"))
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		m := e.Metrics[i]
		tail[i] = m[len(m)-64:]
	}
	return s, ts, tail
}

func postForecast(t testing.TB, url, entity string, tail [][]float64) {
	t.Helper()
	tt := int64(1000)
	raw, _ := json.Marshal(ForecastRequest{Indicators: tail, Entity: entity, T: &tt})
	resp, err := http.Post(url+"/v1/forecast", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast for %s: status %d", entity, resp.StatusCode)
	}
}

func TestDebugFleetEndpoint(t *testing.T) {
	_, ts, tail := fleetServer(t)
	entities := []string{"m_1", "m_1", "m_1", "m_2", "m_2", "m_3"}
	for _, e := range entities {
		postForecast(t, ts.URL, e, tail)
	}

	resp, err := http.Get(ts.URL + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet status = %d", resp.StatusCode)
	}
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Requests != uint64(len(entities)) {
		t.Fatalf("requests = %d, want %d", st.Fleet.Requests, len(entities))
	}
	if len(st.Fleet.TopByCount) == 0 || st.Fleet.TopByCount[0].Key != "m_1" {
		t.Fatalf("top by count = %+v, want m_1 first", st.Fleet.TopByCount)
	}
	if len(st.Fleet.Entities) != 3 {
		t.Fatalf("entities = %+v, want 3", st.Fleet.Entities)
	}
	for _, es := range st.Fleet.Entities {
		q := es.Latency
		if q.Count == 0 || q.P50 <= 0 || q.P50 > q.P99 || q.P99 > q.Max {
			t.Fatalf("entity %s quantiles malformed: %+v", es.Entity, q)
		}
	}
	// Exemplars must link to traces the tracer retained IDs for.
	if len(st.Exemplars) == 0 {
		t.Fatal("no latency exemplars after forecasts")
	}
	for _, ex := range st.Exemplars {
		if !strings.HasPrefix(ex.Exemplar.TraceID, "t") {
			t.Fatalf("exemplar without trace ID: %+v", ex)
		}
		if ex.Exemplar.Entity == "" {
			t.Fatalf("exemplar without entity: %+v", ex)
		}
	}
	if st.TraceSampling == nil {
		t.Fatal("trace sampling stats missing with tracing on")
	}
	total := st.TraceSampling.KeptMarked + st.TraceSampling.KeptSlow +
		st.TraceSampling.KeptSampled + st.TraceSampling.Dropped
	if total < uint64(len(entities)) {
		t.Fatalf("sampling decisions %d < requests %d: traces vanished silently", total, len(entities))
	}

	// HTML rendering of the same endpoint.
	resp, err = http.Get(ts.URL + "/debug/fleet?format=html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "m_1") || !strings.Contains(string(body), "entities") {
		t.Fatalf("fleet HTML missing content:\n%s", body)
	}
}

// TestEntityForecastFeedsFleetTelemetry: the fleet route is a forecast
// route too. Two reads of an ingested entity rank it first on /debug/fleet
// with weight 2 and add two observations to the forecast latency SLO.
func TestEntityForecastFeedsFleetTelemetry(t *testing.T) {
	s, ts, _ := fleetServer(t)
	_, e := fitted(t)
	a := *e
	a.ID = "a"
	ingestCSV(t, ts.URL, []*trace.EntitySeries{&a})
	lat := s.reg.Histogram("rptcn_forecast_latency_seconds", "End-to-end forecast request latency.", nil)
	before := lat.Count()
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/forecast/a")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("entity forecast status = %d", resp.StatusCode)
		}
	}
	if got := lat.Count() - before; got != 2 {
		t.Fatalf("rptcn_forecast_latency_seconds grew by %d over two entity reads, want 2", got)
	}
	resp, err := http.Get(ts.URL + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if top := st.Fleet.TopByCount; len(top) == 0 || top[0].Key != "a" || top[0].Weight != 2 {
		t.Fatalf("top by count = %+v, want a first with weight 2", top)
	}
}

func TestDebugFleetDisabled(t *testing.T) {
	p, _ := fitted(t)
	s := New(p, WithRegistry(obs.NewRegistry()), WithFleetTelemetry(FleetConfig{Disabled: true}))
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled fleet status = %d, want 404", rec.Code)
	}
}

func TestDebugIndexLinksEverySurface(t *testing.T) {
	_, ts, _ := fleetServer(t)
	for _, path := range []string{"/debug", "/debug/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		for _, want := range []string{"/metrics", "/debug/fleet", "/debug/quality",
			"/debug/traces", "/readyz", "pprof"} {
			if !strings.Contains(string(body), want) {
				t.Fatalf("debug index missing link %q:\n%s", want, body)
			}
		}
	}
}

// TestServerMetricsPromlintClean is the exposition-hygiene self-check:
// every metric a fully-loaded server registers — after traffic on every
// route, including degraded and unknown-path requests — must render a
// promlint-clean /metrics document.
func TestServerMetricsPromlintClean(t *testing.T) {
	s, ts, tail := fleetServer(t)
	postForecast(t, ts.URL, "m_1", tail)
	for _, path := range []string{"/healthz", "/readyz", "/v1/model", "/debug/quality",
		"/debug/fleet", "/debug", "/no/such/path", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if probs := s.Registry().Lint(); len(probs) != 0 {
		t.Fatalf("exposition not promlint-clean:\n  %s", strings.Join(probs, "\n  "))
	}
}

func TestUnknownPathCounterAndBoundedLog(t *testing.T) {
	s, ts, _ := fleetServer(t)
	const n = maxUnknownPathsLogged + 5
	for i := 0; i < n; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/scan/%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown path status = %d", resp.StatusCode)
		}
	}
	if got := s.unknownPaths.Value(); got != n {
		t.Fatalf("rptcn_http_unknown_paths_total = %g, want %d", got, n)
	}
	s.unknownMu.Lock()
	logged := len(s.unknownSeen)
	s.unknownMu.Unlock()
	if logged != maxUnknownPathsLogged {
		t.Fatalf("distinct paths logged = %d, want cap %d", logged, maxUnknownPathsLogged)
	}
}

// TestScrapeVsFleetRecordRace runs /metrics scrapes and /debug/fleet
// reads against live forecast traffic. Run under -race: the assertions
// are secondary to the detector.
func TestScrapeVsFleetRecordRace(t *testing.T) {
	_, ts, tail := fleetServer(t)
	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				postForecast(t, ts.URL, fmt.Sprintf("m_%d", w*perWriter+i), tail)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, path := range []string{"/metrics", "/debug/fleet", "/debug/fleet?format=html"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	resp, err := http.Get(ts.URL + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Requests != writers*perWriter {
		t.Fatalf("requests = %d, want %d", st.Fleet.Requests, writers*perWriter)
	}
}
