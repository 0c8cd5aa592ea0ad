package server

import (
	"fmt"
	"html"
	"net/http"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/sketch"
	obstrace "repro/internal/obs/trace"
)

// Fleet telemetry: the per-entity view of serving traffic. Per-entity
// metric labels would grow /metrics without bound on a real cluster
// (thousands of containers), so the per-entity dimension lives in O(K)
// sketches instead — Space-Saving heavy-hitter tables and t-digest
// latency quantiles (internal/obs/sketch) — surfaced on /debug/fleet
// and consumed by the rptcntop dashboard.

// FleetConfig tunes the serving-path fleet telemetry.
type FleetConfig struct {
	// Disabled turns fleet telemetry off entirely; /debug/fleet then
	// answers 404.
	Disabled bool
	// K is the heavy-hitter capacity per dimension (default 32).
	K int
}

// WithFleetTelemetry tunes (or disables) the fleet sketches. Without
// this option the server runs them with defaults — they are cheap
// (~100 ns per request, O(K) memory) and power /debug/fleet.
func WithFleetTelemetry(cfg FleetConfig) Option {
	return func(s *Server) { s.fleetCfg = cfg }
}

// WithDebugAddr tells the server where the pprof/expvar debug sidecar
// listens so the /debug index can link to it. Purely cosmetic — the
// sidecar is owned by the command, not the Server.
func WithDebugAddr(addr string) Option {
	return func(s *Server) { s.debugAddr = addr }
}

// registerTraceMetrics bridges the tracer's tail-sampling counters into
// the registry as proper counters, delta-fed at scrape time (the trace
// package stays dependency-free, so it cannot register them itself).
func registerTraceMetrics(reg *obs.Registry, tr *obstrace.Tracer) {
	const name, help = "rptcn_trace_decisions_total", "Tail-sampling decisions by outcome."
	kept := map[string]*obs.Counter{
		"kept_marked":  reg.Counter(name, help, obs.L("outcome", "kept_marked")),
		"kept_slow":    reg.Counter(name, help, obs.L("outcome", "kept_slow")),
		"kept_sampled": reg.Counter(name, help, obs.L("outcome", "kept_sampled")),
		"dropped":      reg.Counter(name, help, obs.L("outcome", "dropped")),
	}
	var mu sync.Mutex
	var last obstrace.SampleStats
	reg.RegisterCollector(func() {
		st := tr.SampleStats()
		mu.Lock()
		kept["kept_marked"].Add(float64(st.KeptMarked - last.KeptMarked))
		kept["kept_slow"].Add(float64(st.KeptSlow - last.KeptSlow))
		kept["kept_sampled"].Add(float64(st.KeptSampled - last.KeptSampled))
		kept["dropped"].Add(float64(st.Dropped - last.Dropped))
		last = st
		mu.Unlock()
	})
}

// FleetStatus is the /debug/fleet response body: the sketch report plus
// the operational context an operator triages with — exemplars linking
// latency buckets to traces, tail-sampling accounting, drift state, and
// the breaker.
type FleetStatus struct {
	Fleet sketch.Report `json:"fleet"`
	// Exemplars are the most recent per-bucket exemplars of
	// rptcn_forecast_latency_seconds; each trace_id keys into
	// /debug/traces.
	Exemplars []obs.BucketExemplar `json:"forecast_latency_exemplars,omitempty"`
	// TraceSampling is present when tracing is wired.
	TraceSampling *obstrace.SampleStats `json:"trace_sampling,omitempty"`
	ErrorDrift    string                `json:"error_drift"`
	InputDrift    string                `json:"input_drift"`
	BreakerOpen   bool                  `json:"breaker_open"`
}

func (s *Server) fleetStatus() FleetStatus {
	st := FleetStatus{
		Fleet:       s.fleet.Report(),
		Exemplars:   s.forecastLat.Exemplars(),
		BreakerOpen: s.breaker.open(),
	}
	q := s.engine.Status()
	st.ErrorDrift = q.ErrorDrift.State
	st.InputDrift = q.InputDrift.State
	if s.tracer != nil {
		ts := s.tracer.SampleStats()
		st.TraceSampling = &ts
	}
	return st
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		s.writeError(w, http.StatusNotFound, "fleet telemetry disabled")
		return
	}
	st := s.fleetStatus()
	if r.URL.Query().Get("format") == "html" ||
		(r.URL.Query().Get("format") == "" && strings.Contains(r.Header.Get("Accept"), "text/html")) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeFleetHTML(w, &st)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// writeFleetHTML renders the fleet status for humans, same endpoint as
// the JSON.
func writeFleetHTML(w http.ResponseWriter, st *FleetStatus) {
	esc := html.EscapeString
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>fleet</title><style>
body{font-family:monospace;margin:2em}table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #999;padding:4px 10px;text-align:right}th{background:#eee}
td:first-child,th:first-child{text-align:left}
.ok{color:#070}.warn{color:#b70}.alarm,.open{color:#b00;font-weight:bold}
</style></head><body><h1>fleet</h1>`)
	breaker := "closed"
	if st.BreakerOpen {
		breaker = `<span class="open">open</span>`
	}
	fmt.Fprintf(w, `<p>requests=%d · errors=%d · k=%d · breaker=%s · drift: error=<span class="%s">%s</span> input=<span class="%s">%s</span></p>`,
		st.Fleet.Requests, st.Fleet.Errors, st.Fleet.K, breaker,
		esc(st.ErrorDrift), esc(st.ErrorDrift), esc(st.InputDrift), esc(st.InputDrift))

	fmt.Fprintf(w, `<h2>global latency</h2><p>count=%d · p50=%.4gs · p90=%.4gs · p99=%.4gs · max=%.4gs</p>`,
		st.Fleet.Global.Count, st.Fleet.Global.P50, st.Fleet.Global.P90, st.Fleet.Global.P99, st.Fleet.Global.Max)

	fmt.Fprint(w, `<h2>entities (by request count)</h2><table><tr><th>entity</th><th>requests≤</th><th>±err</th><th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>`)
	for _, e := range st.Fleet.Entities {
		fmt.Fprintf(w, `<tr><td>%s</td><td>%.0f</td><td>%.0f</td><td>%.4g</td><td>%.4g</td><td>%.4g</td><td>%.4g</td></tr>`,
			esc(e.Entity), e.Requests, e.RequestsErr, e.Latency.P50, e.Latency.P90, e.Latency.P99, e.Latency.Max)
	}
	fmt.Fprint(w, "</table>")

	top := func(title string, items []sketch.Item) {
		if len(items) == 0 {
			return
		}
		fmt.Fprintf(w, `<h2>%s</h2><table><tr><th>entity</th><th>weight≤</th><th>±err</th></tr>`, title)
		for _, it := range items {
			fmt.Fprintf(w, `<tr><td>%s</td><td>%.4g</td><td>%.4g</td></tr>`, esc(it.Key), it.Weight, it.Err)
		}
		fmt.Fprint(w, "</table>")
	}
	top("top by latency sum (s)", st.Fleet.TopByLatency)
	top("top by errors", st.Fleet.TopByErrors)

	if len(st.Exemplars) > 0 {
		fmt.Fprint(w, `<h2>latency exemplars</h2><table><tr><th>le</th><th>value</th><th>entity</th><th>trace</th></tr>`)
		for _, ex := range st.Exemplars {
			fmt.Fprintf(w, `<tr><td>%s</td><td>%.4g</td><td>%s</td><td>%s</td></tr>`,
				esc(ex.Le), ex.Exemplar.Value, esc(ex.Exemplar.Entity), esc(ex.Exemplar.TraceID))
		}
		fmt.Fprint(w, "</table>")
	}
	if st.TraceSampling != nil {
		ts := st.TraceSampling
		fmt.Fprintf(w, `<h2>trace sampling</h2><p>kept: marked=%d slow=%d sampled=%d · dropped=%d</p>`,
			ts.KeptMarked, ts.KeptSlow, ts.KeptSampled, ts.Dropped)
	}
	fmt.Fprint(w, "</body></html>")
}

// handleDebugIndex is the human entry point: one page linking every
// diagnostic surface the process exposes.
func (s *Server) handleDebugIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>rptcnd debug</title><style>
body{font-family:monospace;margin:2em}li{margin:0.4em 0}</style></head>
<body><h1>rptcnd debug</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/debug/fleet?format=html">/debug/fleet</a> — per-entity sketches, exemplars, trace sampling (<a href="/debug/fleet">json</a>)</li>
<li><a href="/debug/quality?format=html">/debug/quality</a> — forecast accuracy, drift, SLO (<a href="/debug/quality">json</a>)</li>`)
	if s.adapt != nil {
		fmt.Fprint(w, `
<li><a href="/debug/adapt">/debug/adapt</a> — online adaptation: retrain/shadow/swap state (JSON)</li>`)
	}
	fmt.Fprint(w, `
<li><a href="/debug/shards">/debug/shards</a> — per-shard occupancy, queues, latency quantiles (JSON)</li>`)
	if s.tracer != nil {
		fmt.Fprint(w, `
<li><a href="/debug/traces">/debug/traces</a> — sampled span journal (JSONL)</li>`)
	}
	fmt.Fprint(w, `
<li><a href="/readyz">/readyz</a> · <a href="/healthz">/healthz</a> — probes</li>
<li><a href="/v1/model">/v1/model</a> — model metadata</li>`)
	if s.debugAddr != "" {
		h := html.EscapeString(s.debugAddr)
		fmt.Fprintf(w, `
<li><a href="http://%s/debug/pprof/">pprof sidecar</a> (%s) · <a href="http://%s/debug/vars">expvar</a></li>`, h, h, h)
	}
	fmt.Fprint(w, `
</ul></body></html>`)
}

// maxUnknownPathsLogged bounds how many distinct unknown paths are ever
// logged, so a port scan cannot flood the log.
const maxUnknownPathsLogged = 16

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.unknownPaths.Inc()
	s.unknownMu.Lock()
	if !s.unknownSeen[r.URL.Path] && len(s.unknownSeen) < maxUnknownPathsLogged {
		s.unknownSeen[r.URL.Path] = true
		s.log.Warn("request for unknown path", "path", r.URL.Path, "method", r.Method)
	}
	s.unknownMu.Unlock()
	s.writeError(w, http.StatusNotFound, "not found")
}
