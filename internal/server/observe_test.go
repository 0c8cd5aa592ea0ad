package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/runlog"
	"repro/internal/quality"
	"repro/internal/trace"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getQualityStatus(t *testing.T, url string) quality.StatusReport {
	t.Helper()
	resp, err := http.Get(url + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/quality status = %d", resp.StatusCode)
	}
	var st quality.StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestReadyzLifecycle(t *testing.T) {
	p, _ := fitted(t)
	s := New(p, WithRegistry(obs.NewRegistry()))
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on live server = %d, want 200", resp.StatusCode)
	}
	// Wrong method keeps 405 semantics.
	resp, err = http.Post(ts.URL+"/readyz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /readyz = %d, want 405", resp.StatusCode)
	}

	s.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Close = %d, want 503", resp.StatusCode)
	}
	// Liveness is about the process, not the model: still 200.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after Close = %d, want 200", resp.StatusCode)
	}
}

func TestReadyzUnfittedModel(t *testing.T) {
	// A predictor without a loaded model serves probes and metadata but
	// must report unready.
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 16, Horizon: 3,
	})
	s := New(p, WithRegistry(obs.NewRegistry()))
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no model = %d, want 503", resp.StatusCode)
	}
}

// TestObserveJoinOverHTTP: forecasts tagged with (entity, t) resolve
// against ground truth posted to /v1/observe, and the result shows up on
// /debug/quality.
func TestObserveJoinOverHTTP(t *testing.T) {
	p, e := fitted(t)
	s := New(p, WithRegistry(obs.NewRegistry()))
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		srs := e.Metrics[i]
		tail[i] = srs[len(srs)-64:]
	}
	tEnd := int64(e.Len() - 1)
	resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail, Entity: "c1", T: &tEnd})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status = %d", resp.StatusCode)
	}
	var out ForecastResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	// No ground truth yet: the horizon's forecasts are pending.
	st := getQualityStatus(t, ts.URL)
	if st.Pending != p.Cfg.Horizon || st.Resolved != 0 {
		t.Fatalf("before observe: pending=%d resolved=%d", st.Pending, st.Resolved)
	}

	// Post actuals for the forecast target times.
	actuals := []float64{30, 40, 50}
	oResp := postJSON(t, ts.URL+"/v1/observe", ObserveRequest{Entity: "c1", T0: tEnd + 1, Values: actuals})
	defer oResp.Body.Close()
	if oResp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe status = %d", oResp.StatusCode)
	}

	st = getQualityStatus(t, ts.URL)
	if st.Resolved != uint64(p.Cfg.Horizon) || st.Pending != 0 {
		t.Fatalf("after observe: %+v", st)
	}
	if len(st.Entities) != 1 || st.Entities[0].Entity != "c1" {
		t.Fatalf("entities = %+v", st.Entities)
	}
	// Per-step windows carry exactly one pair each, with the error the
	// forecast/actual pair implies.
	for k, step := range st.Steps {
		if step.Count != 1 {
			t.Fatalf("step %d count = %d", k+1, step.Count)
		}
		want := out.Forecast[k] - actuals[k]
		if step.Bias != want {
			t.Fatalf("step %d bias = %v, want %v", k+1, step.Bias, want)
		}
	}

	// A second forecast whose history overlaps pending targets self-joins
	// without an explicit observe.
	resp2 := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail, Entity: "c1", T: &tEnd})
	resp2.Body.Close()
	st = getQualityStatus(t, ts.URL)
	if st.Pending != p.Cfg.Horizon {
		t.Fatalf("re-forecast should re-pend the horizon: %+v", st.Pending)
	}
	tEnd3 := tEnd + 3
	hist3 := make([][]float64, len(tail))
	for i := range hist3 {
		hist3[i] = append(append([]float64(nil), tail[i][3:]...), 30, 40, 50)
	}
	resp3 := forecastReq(t, ts.URL, ForecastRequest{Indicators: hist3, Entity: "c1", T: &tEnd3})
	resp3.Body.Close()
	st = getQualityStatus(t, ts.URL)
	if st.Resolved != uint64(2*p.Cfg.Horizon) {
		t.Fatalf("self-join did not resolve: %+v", st)
	}

	// Bad observe payloads are client errors.
	bad := postJSON(t, ts.URL+"/v1/observe", ObserveRequest{Entity: "c1", T0: 0})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty observe = %d, want 400", bad.StatusCode)
	}
}

func TestDebugQualityHTML(t *testing.T) {
	p, _ := fitted(t)
	s := New(p, WithRegistry(obs.NewRegistry()))
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/quality?format=html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"forecast quality", "drift", "accuracy"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("HTML missing %q:\n%s", want, body)
		}
	}
}

// TestMetricNameHygiene exercises every endpoint, then asserts the whole
// registry obeys the naming contract and stays within a bounded series
// cardinality per family.
func TestMetricNameHygiene(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	rules, err := quality.ParseRules("mae<=1000, p90_abs_err<=2000@64")
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, WithRegistry(reg), WithQualityConfig(quality.Config{Rules: rules}))
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		srs := e.Metrics[i]
		tail[i] = srs[len(srs)-64:]
	}
	tEnd := int64(e.Len() - 1)
	for _, req := range []any{
		ForecastRequest{Indicators: tail, Entity: "m1", T: &tEnd},
		ForecastRequest{Indicators: tail},
	} {
		resp := forecastReq(t, ts.URL, req)
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/observe", ObserveRequest{Entity: "m1", T0: tEnd + 1, Values: []float64{1, 2, 3}})
	resp.Body.Close()
	for _, path := range []string{"/healthz", "/readyz", "/v1/model", "/debug/quality", "/nope"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	scrape(t, ts.URL)

	nameRE := regexp.MustCompile(`^rptcn_[a-z0-9_]+$`)
	perFamily := map[string]int{}
	for _, snap := range reg.Snapshot() {
		if !nameRE.MatchString(snap.Name) {
			t.Errorf("metric %q violates ^rptcn_[a-z0-9_]+$", snap.Name)
		}
		perFamily[snap.Name]++
	}
	if len(perFamily) == 0 {
		t.Fatal("no metrics registered")
	}
	// Bounded cardinality: no family may mint unbounded series. The
	// largest legitimate families are per-route HTTP metrics and
	// per-step/per-entity quality gauges, all well under this cap.
	const maxSeries = 40
	for name, n := range perFamily {
		if n > maxSeries {
			t.Errorf("family %s has %d series (cap %d)", name, n, maxSeries)
		}
	}
}

// TestServerCloseShutsDownQuality proves the quality engine shuts down
// cleanly (run under -race in CI): double Close, requests after Close,
// and scrapes after Close must all be safe.
func TestServerCloseShutsDownQuality(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	s := New(p, WithRegistry(reg))
	ts := httptest.NewServer(s)
	defer ts.Close()

	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		srs := e.Metrics[i]
		tail[i] = srs[len(srs)-64:]
	}
	tEnd := int64(e.Len() - 1)
	resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: tail, Entity: "m1", T: &tEnd})
	resp.Body.Close()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The status surface answers (zero report) instead of hanging.
	st := getQualityStatus(t, ts.URL)
	if st.Resolved != 0 {
		t.Fatalf("post-close status = %+v", st)
	}
	// Metric scrapes must not deadlock on the closed engine.
	scrape(t, ts.URL)
	// Ground truth posted after Close is discarded, not a crash.
	oResp := postJSON(t, ts.URL+"/v1/observe", ObserveRequest{Entity: "m1", T0: tEnd + 1, Values: []float64{1}})
	oResp.Body.Close()
	if oResp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe after close = %d", oResp.StatusCode)
	}
}

// TestQualitySmoke is the end-to-end drill the CI quality-smoke job
// runs: train a tiny model on the pre-mutation segment, serve it, replay
// the mutated trace as tagged forecast requests, and assert the mutation
// detector and the input drift alarm both fire and land in the journal.
func TestQualitySmoke(t *testing.T) {
	const mutationAt = 400
	e := trace.GenerateWithMutation(700, mutationAt, 13)
	train := make([][]float64, trace.NumIndicators)
	for i, srs := range e.Matrix() {
		train[i] = srs[:350]
	}
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 16, Horizon: 3, Epochs: 2, Seed: 2,
		Model: core.Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16},
	})
	if err := p.Fit(train, int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	journal := runlog.New(&buf)
	s := New(p,
		WithRegistry(obs.NewRegistry()),
		WithJournal(journal),
		// The fast preset's level tracks the trace's diurnal wander (the
		// production EWMA is too slow for this compressed replay
		// cadence) while the +35 step still fires.
		WithQualityConfig(quality.Config{Preset: quality.PresetFast}),
	)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Replay: sliding 64-sample windows every 2 samples across the
	// mutation, tagged with entity and sample time so forecasts pend and
	// self-join as the window slides forward.
	for tt := 280; tt <= 520; tt += 2 {
		hist := make([][]float64, trace.NumIndicators)
		for i, srs := range e.Matrix() {
			hist[i] = srs[tt-63 : tt+1]
		}
		tEnd := int64(tt)
		resp := forecastReq(t, ts.URL, ForecastRequest{Indicators: hist, Entity: "m1", T: &tEnd})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("t=%d status = %d", tt, resp.StatusCode)
		}
	}

	st := getQualityStatus(t, ts.URL)
	if st.Resolved == 0 || st.Aggregate.MAE <= 0 {
		t.Fatalf("no resolved pairs: %+v", st.Aggregate)
	}
	if len(st.Entities) != 1 {
		t.Fatalf("entities = %+v", st.Entities)
	}
	fires := st.Entities[0].InputMutations
	if len(fires) == 0 {
		t.Fatal("input mutation detector never fired")
	}
	for _, f := range fires {
		// Detection must land at/after the injected point, within two
		// detector windows (2·5 requests · 2 samples) plus the input
		// window ramp (the window mean responds over MinHistory samples).
		lo, hi := int64(mutationAt), int64(mutationAt+2*5*2+p.MinHistory())
		if f < lo || f > hi {
			t.Fatalf("mutation fire at t=%d outside [%d,%d]", f, lo, hi)
		}
	}
	if st.InputDrift.State != "alarm" {
		t.Fatalf("input drift state = %q, want alarm (post-mutation inputs leave the training bounds)", st.InputDrift.State)
	}

	s.Close()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := runlog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sawMutation, sawAlarm := false, false
	for _, ev := range events {
		if ev.Type != runlog.TypeDrift {
			continue
		}
		switch ev.Data["kind"] {
		case "mutation":
			sawMutation = true
		case "level":
			if ev.Data["state"] == "alarm" {
				sawAlarm = true
			}
		}
	}
	if !sawMutation || !sawAlarm {
		t.Fatalf("journal missing drift events (mutation=%v alarm=%v) in %d events",
			sawMutation, sawAlarm, len(events))
	}
}
