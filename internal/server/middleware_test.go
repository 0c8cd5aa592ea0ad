package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

func TestMetricsEndpointExposesServingMetrics(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(p, WithRegistry(reg), quiet))
	defer ts.Close()

	// Drive every route: two forecasts, one model read, one bad request.
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		s := e.Metrics[i]
		tail[i] = s[len(s)-40:]
	}
	for i := 0; i < 2; i++ {
		resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forecast status = %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/forecast", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`rptcn_http_requests_total{code="200",path="/v1/forecast"} 2`,
		`rptcn_http_requests_total{code="400",path="/v1/forecast"} 1`,
		`rptcn_http_requests_total{code="200",path="/v1/model"} 1`,
		"# TYPE rptcn_forecast_latency_seconds histogram",
		"rptcn_forecast_latency_seconds_bucket",
		"rptcn_forecast_latency_seconds_count 3",
		"rptcn_http_in_flight 0",
		`rptcn_http_request_seconds_count{path="/v1/forecast"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsSchemaVisibleBeforeTraffic(t *testing.T) {
	p, _ := fitted(t)
	reg := obs.NewRegistry()
	srv := New(p, WithRegistry(reg))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	// Families are pre-registered so dashboards see the schema at zero.
	for _, want := range []string{
		"rptcn_http_requests_total", "rptcn_http_in_flight", "rptcn_forecast_latency_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("pre-traffic /metrics missing %q:\n%s", want, body)
		}
	}
}

func TestConcurrentForecastsRecordConsistentMetrics(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(p, WithRegistry(reg), quiet))
	defer ts.Close()
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		s := e.Metrics[i]
		tail[i] = s[len(s)-40:]
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail})
			resp.Body.Close()
		}()
	}
	wg.Wait()
	h := reg.Histogram("rptcn_forecast_latency_seconds", "", nil)
	if h.Count() != workers {
		t.Fatalf("latency observations = %d, want %d", h.Count(), workers)
	}
	if g := reg.Gauge("rptcn_http_in_flight", "").Value(); g != 0 {
		t.Fatalf("in-flight after drain = %g", g)
	}
	if q := h.Quantile(0.99); q <= 0 {
		t.Fatalf("p99 latency = %g", q)
	}
}
