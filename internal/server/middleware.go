package server

import (
	"context"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sketch"
	obstrace "repro/internal/obs/trace"
)

// instrumentation holds the serving-path metric families. All series are
// pre-registered at construction so /metrics shows the full schema (at
// zero) from the first scrape.
type instrumentation struct {
	reg      *obs.Registry
	tracer   *obstrace.Tracer // may be nil
	fleet    *sketch.Fleet    // may be nil (fleet telemetry disabled)
	inFlight *obs.Gauge
}

func newInstrumentation(s *Server) *instrumentation {
	return &instrumentation{
		reg:      s.reg,
		tracer:   s.tracer,
		fleet:    s.fleet,
		inFlight: s.reg.Gauge("rptcn_http_in_flight", "Requests currently being served."),
	}
}

// statusRecorder captures the response code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// wrap instruments one route: request counter (by path and code), error
// counter, in-flight gauge, a latency histogram, and (when tracing is
// enabled) one "http.request" span per request. The two forecast routes,
// POST /v1/forecast and the fleet's GET /v1/forecast/{entity}, also feed
// rptcn_forecast_latency_seconds — the SLO histogram for the paper's
// real-time prediction mode, with per-bucket (trace ID, entity)
// exemplars — and the per-entity fleet sketches.
//
// The route label is always one of the registered route patterns (the
// catch-all handler reports "other"), never the raw request path, so the
// path label's cardinality is bounded no matter what clients probe. The
// per-entity dimension deliberately never becomes a label: it flows into
// the O(K) sketches on /debug/fleet instead.
func (in *instrumentation) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	lat := in.reg.Histogram("rptcn_http_request_seconds",
		"HTTP request latency by route.", nil, obs.L("path", route))
	errs := in.reg.Counter("rptcn_http_errors_total",
		"HTTP responses with status >= 500.", obs.L("path", route))
	// The success series is resolved (and so visible) before the first
	// request; every other code's on the first response that carries it.
	codes := &codeCounters{reg: in.reg, route: route}
	codes.get(http.StatusOK)
	var forecastLat *obs.Histogram
	forecastMethod := forecastRoutes[route]
	if forecastMethod != "" {
		forecastLat = in.reg.Histogram("rptcn_forecast_latency_seconds",
			"End-to-end forecast request latency.", nil)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		in.inFlight.Inc()
		var span *obstrace.Span
		if in.tracer != nil {
			span = in.tracer.Start("http.request",
				obstrace.String("path", route), obstrace.String("method", r.Method))
		}
		// Forecast requests carry a telemetry slot the handler fills in
		// with what only it knows (entity, degraded) and the sketches
		// consume below. Only real forecasts feed the fleet; 405
		// fallbacks on the same route do not.
		var ft *forecastTelemetry
		if forecastLat != nil && r.Method == forecastMethod {
			ft = &forecastTelemetry{}
			r = r.WithContext(context.WithValue(r.Context(), telemetryKey{}, ft))
		}
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		in.inFlight.Dec()
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		span.SetAttr(obstrace.Int("status", rec.status))
		elapsed := time.Since(start).Seconds()
		lat.Observe(elapsed)
		if ft != nil {
			entity, degraded := ft.get()
			if degraded || rec.status >= 500 {
				// Tail sampling must never drop the interesting traces.
				span.Keep()
			}
			// Exemplar capture is a lock-free pointer store — it cannot
			// block this path even while /debug/fleet is reading.
			forecastLat.ObserveExemplar(elapsed, span.TraceID(), entity)
			if in.fleet != nil {
				in.fleet.Record(entity, elapsed, degraded || rec.status >= 400)
			}
		} else if forecastLat != nil {
			forecastLat.Observe(elapsed)
		}
		if rec.status >= 500 {
			span.Keep()
		}
		span.End()
		codes.get(rec.status).Inc()
		if rec.status >= 500 {
			errs.Inc()
		}
	}
}

// forecastRoutes maps each forecast route to the method that serves a
// forecast on it.
var forecastRoutes = map[string]string{
	"/v1/forecast":          http.MethodPost,
	"/v1/forecast/{entity}": http.MethodGet,
}

// codeCounters is one route's rptcn_http_requests_total{path,code}
// series, each looked up in the registry once: a copy-on-write map a
// response reads with one atomic load.
type codeCounters struct {
	reg    *obs.Registry
	route  string
	mu     sync.Mutex // serializes copies
	byCode atomic.Pointer[map[int]*obs.Counter]
}

// get returns the counter of responses with the given status code.
func (c *codeCounters) get(code int) *obs.Counter {
	if m := c.byCode.Load(); m != nil {
		if ctr := (*m)[code]; ctr != nil {
			return ctr
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.byCode.Load()
	if old != nil && (*old)[code] != nil {
		return (*old)[code]
	}
	m := make(map[int]*obs.Counter, 1)
	if old != nil {
		maps.Copy(m, *old)
	}
	ctr := c.reg.Counter("rptcn_http_requests_total", "Total HTTP requests.",
		obs.L("path", c.route), obs.L("code", strconv.Itoa(code)))
	m[code] = ctr
	c.byCode.Store(&m)
	return ctr
}
