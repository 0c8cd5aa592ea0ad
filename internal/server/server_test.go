package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// quiet is an Option that silences the server's log, for tests whose
// injected faults would flood it.
func quiet(s *Server) { s.log = obs.NopLogger() }

// fitted returns a small fitted predictor plus the entity it trained on.
func fitted(t testing.TB) (*core.Predictor, *trace.EntitySeries) {
	t.Helper()
	e := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 700, Seed: 1,
	})[0]
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 16, Horizon: 3, Epochs: 4, Seed: 2,
		Model: core.Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16},
	})
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	return p, e
}

func TestHealthz(t *testing.T) {
	p, _ := fitted(t)
	ts := httptest.NewServer(New(p))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestModelInfo(t *testing.T) {
	p, _ := fitted(t)
	ts := httptest.NewServer(New(p))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Scenario != "Mul-Exp" || info.Window != 16 || info.Horizon != 3 {
		t.Fatalf("model info = %+v", info)
	}
	if len(info.Selected) != trace.NumIndicators/2 {
		t.Fatalf("selected = %v", info.Selected)
	}
	if info.Selected[0] != "cpu_util_percent" {
		t.Fatalf("target not first: %v", info.Selected)
	}
	if info.ParamCount <= 0 || info.ReceptiveField <= 0 {
		t.Fatalf("sizes = %+v", info)
	}
}

func forecastReq(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/forecast", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestForecastHappyPath(t *testing.T) {
	p, e := fitted(t)
	ts := httptest.NewServer(New(p))
	defer ts.Close()
	// Send the tail of the training series as "fresh" history.
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		s := e.Metrics[i]
		tail[i] = s[len(s)-64:]
	}
	resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out ForecastResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Forecast) != 3 || out.Horizon != 3 {
		t.Fatalf("forecast = %+v", out)
	}
	if out.Target != "cpu_util_percent" {
		t.Fatalf("target = %q", out.Target)
	}
	for _, v := range out.Forecast {
		if v < -50 || v > 150 {
			t.Fatalf("forecast value %g implausible for CPU%%", v)
		}
	}
}

func TestForecastRejectsBadRequests(t *testing.T) {
	p, _ := fitted(t)
	ts := httptest.NewServer(New(p))
	defer ts.Close()

	// Invalid JSON.
	resp, err := http.Post(ts.URL+"/v1/forecast", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}

	// Empty indicators.
	resp = forecastReq(t, ts.URL, ForecastRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty indicators status = %d", resp.StatusCode)
	}

	// Wrong indicator count.
	resp = forecastReq(t, ts.URL, ForecastRequest{Indicators: [][]float64{{1, 2, 3}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("wrong count status = %d", resp.StatusCode)
	}

	// Too-short history.
	short := make([][]float64, trace.NumIndicators)
	for i := range short {
		short[i] = []float64{1, 2}
	}
	resp = forecastReq(t, ts.URL, ForecastRequest{Indicators: short})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short history status = %d", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("error body missing: %v %v", eb, err)
	}
}

func TestForecastMethodNotAllowed(t *testing.T) {
	p, _ := fitted(t)
	ts := httptest.NewServer(New(p))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/forecast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET forecast status = %d", resp.StatusCode)
	}
}

func TestConcurrentForecasts(t *testing.T) {
	p, e := fitted(t)
	ts := httptest.NewServer(New(p))
	defer ts.Close()
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		s := e.Metrics[i]
		tail[i] = s[len(s)-40:]
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- nil
			}
		}()
	}
	wg.Wait()
	close(errs)
	if len(errs) > 0 {
		t.Fatalf("%d concurrent requests failed", len(errs))
	}
}

// TestClosedServerIsCollected pins that nothing process-wide holds on to
// a closed server: once it and its registry are dropped, the predictor it
// served is garbage. The registry's collectors close over the server, so
// any package-level table keyed by registry would keep the server, its
// predictor, rings and training scratch alive for the life of the
// process — one more of each per server.New.
func TestClosedServerIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p, _ := fitted(t)
		runtime.SetFinalizer(p, func(*core.Predictor) { close(collected) })
		s := New(p, WithRegistry(obs.NewRegistry()))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a closed, dropped server's predictor is still reachable")
}

func TestNewNilPredictorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil predictor")
		}
	}()
	New(nil)
}
