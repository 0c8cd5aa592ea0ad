package server

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/trace"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestForecastFeedsQualityGauges: forecast quality is measured off the
// request path. A t-tagged POST stream resolves each forecast against the
// actuals later requests carry into the engine's per-step MAE, MSE and
// bias — what the responses and the trace imply — and every request's
// input summary reaches the input drift detector, whose level stays 0 on
// inputs inside the training bounds and rises on inputs far outside them.
func TestForecastFeedsQualityGauges(t *testing.T) {
	p, e := fitted(t)
	s := New(p, WithRegistry(obs.NewRegistry()))
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	const requests = 24
	actual := e.Metrics[p.SelectedIndicators()[0]]
	first := e.Len() - requests
	forecasts := map[int][]float64{}
	for tt := first; tt < e.Len(); tt++ {
		hist := make([][]float64, trace.NumIndicators)
		for i := range hist {
			hist[i] = e.Metrics[i][tt-63 : tt+1]
		}
		at := int64(tt)
		out := decodeForecast(t, forecastReq(t, ts.URL, ForecastRequest{Indicators: hist, Entity: "q1", T: &at}))
		forecasts[tt] = out.Forecast
	}
	st := getQualityStatus(t, ts.URL)
	if len(st.Steps) != p.Cfg.Horizon {
		t.Fatalf("%d step windows, want %d", len(st.Steps), p.Cfg.Horizon)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for k := 1; k <= p.Cfg.Horizon; k++ {
		var abs, sq, signed float64
		n := 0
		for tt := first; tt+k < e.Len(); tt++ {
			d := forecasts[tt][k-1] - actual[tt+k]
			abs, sq, signed, n = abs+math.Abs(d), sq+d*d, signed+d, n+1
		}
		got := st.Steps[k-1]
		if got.Count != n || !near(got.MAE, abs/float64(n)) || !near(got.MSE, sq/float64(n)) || !near(got.Bias, signed/float64(n)) {
			t.Fatalf("step %d: engine %+v, want count %d mae %g mse %g bias %g",
				k, got, n, abs/float64(n), sq/float64(n), signed/float64(n))
		}
	}
	if in := st.InputDrift; in.Samples != requests || in.Level != 0 {
		t.Fatalf("input drift after %d in-distribution requests: %+v", requests, in)
	}

	// Input scaled far beyond the training max raises the out-of-range
	// level; an untagged request still feeds the input detectors.
	shifted := tailOf(e, 64)
	for i, row := range shifted {
		o := make([]float64, len(row))
		for j, v := range row {
			o[j] = v*10 + 1000
		}
		shifted[i] = o
	}
	decodeForecast(t, forecastReq(t, ts.URL, ForecastRequest{Indicators: shifted}))
	if in := getQualityStatus(t, ts.URL).InputDrift; in.Samples != requests+1 || in.Level <= 0 {
		t.Fatalf("out-of-range input not seen by the drift detector: %+v", in)
	}
}

// TestForecastPostRunsOneForward: a POST pays one model forward whatever
// its history length — the body a resource manager sends (MinHistory
// samples) and one long enough to hide a horizon and still fill a window.
func TestForecastPostRunsOneForward(t *testing.T) {
	p, e := fitted(t)
	s := New(p, WithRegistry(obs.NewRegistry()), quiet)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, samples := range []int{p.MinHistory(), 64} {
		inj := fault.NewInjector()
		off := fault.Activate(inj)
		out := decodeForecast(t, forecastReq(t, ts.URL, ForecastRequest{Indicators: tailOf(e, samples)}))
		off()
		if out.Degraded {
			t.Fatalf("%d samples: degraded", samples)
		}
		if got := inj.Probes("model.forward"); got != 1 {
			t.Fatalf("%d samples: %d model forwards, want 1", samples, got)
		}
	}
}

func grepMetric(exposition, prefix string) string {
	var b strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix) {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

func TestUnknownPathsCollapseToOther(t *testing.T) {
	p, _ := fitted(t)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(p, WithRegistry(reg)))
	defer ts.Close()

	for _, path := range []string{"/admin", "/wp-login.php", "/v1/nope", "/probe/9999"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
	out := scrape(t, ts.URL)
	if !strings.Contains(out, `rptcn_http_requests_total{code="404",path="other"} 4`) {
		t.Fatalf("unknown paths not collapsed:\n%s", grepMetric(out, "rptcn_http_requests_total"))
	}
	for _, leaked := range []string{"wp-login", "/admin", "/probe"} {
		if strings.Contains(out, leaked) {
			t.Fatalf("raw path %q leaked into metrics", leaked)
		}
	}
}

func TestRequestSpans(t *testing.T) {
	p, _ := fitted(t)
	tracer := obstrace.New(8)
	tracer.SetEnabled(true)
	ts := httptest.NewServer(New(p, WithRegistry(obs.NewRegistry()), WithTracer(tracer)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	traces := tracer.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	// Most recent first.
	got := traces[0].Export()
	if got.Name != "http.request" || got.Attrs["path"] != "other" || got.Attrs["status"] != int64(404) {
		t.Fatalf("unexpected span: %+v", got)
	}
	healthy := traces[1].Export()
	if healthy.Attrs["path"] != "/healthz" || healthy.Attrs["status"] != int64(200) {
		t.Fatalf("unexpected span: %+v", healthy)
	}
}
