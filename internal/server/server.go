// Package server exposes a fitted RPTCN predictor over HTTP so a cluster
// resource manager can query forecasts online — the integration point the
// paper's Sec. II motivates ("the predictive result can provide support
// for job scheduling and an effective reference for resource allocation").
//
// Endpoints:
//
//	GET  /healthz        liveness probe (process up)
//	GET  /readyz         readiness probe (model loaded, router open)
//	GET  /metrics        Prometheus text-format metrics
//	GET  /v1/model       model metadata (scenario, window, screening, size)
//	POST /v1/forecast    {"indicators": [[...],...]} → {"forecast": [...]}
//	POST /v1/observe     ground-truth ingestion for forecast-quality joins
//	GET  /debug/quality  live forecast-quality status (JSON, ?format=html)
//	GET  /debug/fleet    per-entity fleet telemetry: top-K heavy hitters,
//	                     latency quantiles, exemplars, trace sampling
//	                     (JSON, ?format=html)
//	GET  /debug          index page linking every diagnostic endpoint
//	GET  /debug/traces   sampled span journal (JSONL, when tracing is on)
//
// Every route is instrumented through internal/obs: request counters by
// path and status code, an in-flight gauge, per-route latency histograms,
// and the rptcn_forecast_latency_seconds SLO histogram.
//
// Forecast quality is measured online by internal/quality: each served
// forecast is remembered, and when ground truth for its target times
// arrives — via POST /v1/observe, or implicitly when a later forecast
// request's history overlaps them (requests that carry an entity and a
// sample time) — the resolved errors feed rolling accuracy windows,
// drift/mutation detectors, and SLO rules surfaced on /debug/quality.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/runlog"
	"repro/internal/obs/sketch"
	obstrace "repro/internal/obs/trace"
	"repro/internal/quality"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Server routes forecast requests to a fitted predictor. Every forecast
// runs on its request's own goroutine: a POST /v1/forecast prepares its
// window there, in parallel with other requests, and a GET
// /v1/forecast/{entity} reads it from the entity's ring inside its
// shard's batch. Both go to the same shard router (see internal/shard),
// whose shards have no goroutines: a request that finds its shard idle
// runs the forward itself, fused with up to MaxBatch − 1 requests that
// queued meanwhile, in one grad-free arena forward, and hands the shard
// to the next queued request. The handler itself is safe for concurrent
// use.
type Server struct {
	predictor  *core.Predictor
	mux        *http.ServeMux
	reg        *obs.Registry
	log        *slog.Logger
	tracer     *obstrace.Tracer
	inputs     quality.InputBounds
	resilience ResilienceConfig
	batchCfg   BatchConfig

	// Online forecast-quality engine (ground-truth joins, drift and
	// mutation detectors, SLO rules — see internal/quality).
	engine     *quality.Engine
	qualityCfg quality.Config
	journal    *runlog.Run
	reqSeq     atomic.Int64 // synthetic sample clock for t-less requests

	// ready flips true once the model is loaded, and false again on Close
	// — the /readyz answer.
	ready atomic.Bool

	// Fault-tolerance plumbing: load shedding, circuit breaking, and the
	// counters that account for every shed/degraded/recovered request.
	sem      chan struct{}
	breaker  *breaker
	dropped  *obs.Counter
	panics   *obs.Counter
	canceled *obs.Counter

	// Sharded serving and streaming ingestion: the entity→shard router
	// owns the per-shard micro-batchers every forecast runs through (POST
	// /v1/forecast and /v1/forecast/{entity} alike) and the per-entity
	// sample rings fed by /v1/ingest, plus the accounting metrics.
	rings          *shard.Router
	shardCfg       ShardConfig
	modelCache     *registry.Cache
	ingestCfg      IngestConfig
	ringCap        int // samples per entity ring, see ringCapacity
	ingestRows     *obs.Counter
	ingestSkipped  *obs.Counter
	ingestRejected *obs.Counter
	ingestEntities *obs.Gauge
	ingestEvicted  *obs.Counter

	// Online adaptation: the drift-triggered retrain/shadow/hot-swap
	// supervisor (nil unless WithAdaptation was given and it started).
	adapt    *adapt.Supervisor
	adaptCfg *adapt.Config

	// Fleet telemetry: O(K) per-entity sketches behind /debug/fleet
	// (nil when disabled), the forecast-latency histogram whose bucket
	// exemplars link into /debug/traces, and the unknown-path guard.
	fleet       *sketch.Fleet
	fleetCfg    FleetConfig
	forecastLat *obs.Histogram
	debugAddr   string

	unknownPaths *obs.Counter
	unknownMu    sync.Mutex
	unknownSeen  map[string]bool
}

// Option customizes a Server.
type Option func(*Server)

// WithRegistry directs the server's metrics into r instead of the
// process-wide obs.Default() registry. Tests use this for isolation.
func WithRegistry(r *obs.Registry) Option {
	return func(s *Server) { s.reg = r }
}

// WithTracer records one "http.request" span per served request into t
// (spans are collected only while t is enabled).
func WithTracer(t *obstrace.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithQualityConfig tunes the online quality engine (window sizes,
// detector thresholds, SLO rules). Horizon and Registry are always taken
// from the server's own predictor and registry.
func WithQualityConfig(cfg quality.Config) Option {
	return func(s *Server) { s.qualityCfg = cfg }
}

// WithJournal streams drift and SLO state transitions into the run
// journal (alongside the training events already recorded there).
func WithJournal(run *runlog.Run) Option {
	return func(s *Server) { s.journal = run }
}

// New wraps a fitted predictor. It panics if p is nil.
func New(p *core.Predictor, opts ...Option) *Server {
	if p == nil {
		panic("server: nil predictor")
	}
	s := &Server{predictor: p, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.Default()
	}
	if s.log == nil {
		s.log = obs.Logger("server")
	}
	s.inputs = quality.InputBounds{MinHistory: p.MinHistory()}
	s.inputs.Min, s.inputs.Max = p.NormBounds()
	if sel := p.SelectedIndicators(); len(sel) > 0 {
		s.inputs.Target = sel[0]
	}
	s.resilience.fillDefaults()
	s.sem = make(chan struct{}, s.resilience.MaxInFlight)
	s.dropped = s.reg.Counter("rptcn_dropped_requests_total",
		"Requests shed by the concurrency limiter (429).")
	s.panics = s.reg.Counter("rptcn_panics_recovered_total",
		"Panics recovered by the serving middleware instead of crashing the process.")
	s.canceled = s.reg.Counter("rptcn_canceled_requests_total",
		"Requests abandoned by the client before the forecast finished (499).")
	s.breaker = newBreaker(breakerWindow, breakerThreshold, breakerCooldown, s.reg.Gauge("rptcn_circuit_open",
		"1 while the inference circuit breaker is open or half-open, else 0."))
	if s.adaptCfg != nil {
		s.adaptCfg.Predictor = p
	}
	// The entity→shard router: the micro-batchers every forecast goes
	// through, and one fixed-capacity ring per ingested entity. The
	// limiter admits at most MaxInFlight requests, so while that stays
	// within a shard's queue (defaults 32 and 64) queueing never blocks a
	// request goroutine; beyond it producers wait for a slot, which
	// bounds memory. Built before the quality engine because the
	// adaptation supervisor trains from the rings AND subscribes to the
	// engine's events.
	s.ringCap = ringCapacity(p, s.adaptCfg)
	rt, err := s.buildRouter()
	if err != nil {
		// Every input was defaulted above, so only a bug gets here — and
		// with no router there is nothing to serve forecasts on.
		panic(fmt.Sprintf("server: shard router failed to start: %v", err))
	}
	s.rings = rt
	s.ingestRows = s.reg.Counter("rptcn_ingested_samples_total",
		"Usable CSV rows accepted by /v1/ingest.")
	s.ingestSkipped = s.reg.Counter("rptcn_ingest_skipped_rows_total",
		"Unusable CSV rows dropped by the lenient streaming scanner.")
	s.ingestRejected = s.reg.Counter("rptcn_ingest_rejected_samples_total",
		"Parsed samples rejected by the rings (non-advancing timestamps).")
	s.ingestEntities = s.reg.Gauge("rptcn_ingest_entities",
		"Entities with ring state from streaming ingestion.")
	s.ingestEvicted = s.reg.Counter("rptcn_ingest_evicted_entities_total",
		"Entities LRU-evicted from the ingestion ring store (max-entities cap).")
	s.reg.RegisterCollector(func() {
		if d := s.rings.Evicted() - uint64(s.ingestEvicted.Value()); d > 0 {
			s.ingestEvicted.Add(float64(d))
		}
	})
	// Online adaptation: fine-tune on drift, shadow-score, hot-swap. The
	// supervisor subscribes to the quality engine's drift/mutation
	// events, so it must exist before the engine. Serving never depends
	// on it: a failed setup degrades to a static model with an error.
	if cfg := s.adaptCfg; cfg != nil {
		cfg.Rings = s.rings
		if cfg.Registry == nil {
			cfg.Registry = s.reg
		}
		if cfg.Journal == nil {
			cfg.Journal = s.journal
		}
		if sup, err := adapt.New(*cfg); err != nil {
			s.log.Error("adaptation disabled: supervisor failed to start", "err", err)
		} else {
			s.adapt = sup
			userEvents := s.qualityCfg.Events
			s.qualityCfg.Events = func(ev quality.Event) {
				sup.OnQualityEvent(ev)
				if userEvents != nil {
					userEvents(ev)
				}
			}
		}
	}
	// The quality engine closes the forecast→ground-truth loop. It runs
	// on the request's goroutine under its own lock, sub-microsecond per
	// call, and delivers its events to the supervisor after unlocking.
	s.qualityCfg.Horizon = p.Cfg.Horizon
	s.qualityCfg.Registry = s.reg
	if s.qualityCfg.Journal == nil {
		s.qualityCfg.Journal = s.journal
	}
	s.engine = quality.New(s.qualityCfg)
	obs.RegisterBuildInfo(s.reg)
	// Pre-register every degradation reason so the family is complete on
	// /metrics before the first incident.
	for _, reason := range degradeReasons {
		s.reg.Counter(degradedName, degradedHelp, obs.L("reason", reason))
	}
	// Fleet telemetry: per-entity latency/error sketches at O(K) memory
	// (see internal/obs/sketch and /debug/fleet). On by default — a
	// Record is ~100 ns against a millisecond-scale forecast.
	if !s.fleetCfg.Disabled {
		s.fleet = sketch.NewFleet(sketch.Config{K: s.fleetCfg.K})
	}
	// The SLO histogram doubles as the exemplar carrier: the middleware
	// attaches (trace ID, entity) exemplars to its buckets, and
	// /debug/fleet surfaces them. Same family the middleware records
	// into — Histogram is get-or-create by name.
	s.forecastLat = s.reg.Histogram("rptcn_forecast_latency_seconds",
		"End-to-end forecast request latency.", nil)
	s.unknownSeen = make(map[string]bool)
	s.unknownPaths = s.reg.Counter("rptcn_http_unknown_paths_total",
		"Requests for paths the server does not route (404 catch-all).")
	if s.tracer != nil {
		registerTraceMetrics(s.reg, s.tracer)
	}

	in := newInstrumentation(s)
	// Middleware order (outer to inner): instrumentation sees the final
	// status; recovery turns handler panics into 500s; the limiter sheds
	// load before any work happens. /healthz and /metrics bypass the
	// limiter so probes and scrapes keep answering under overload.
	s.mux.HandleFunc("GET /healthz", in.wrap("/healthz", s.recovered(s.handleHealth)))
	s.mux.HandleFunc("GET /readyz", in.wrap("/readyz", s.recovered(s.handleReady)))
	s.mux.HandleFunc("GET /v1/model", in.wrap("/v1/model", s.recovered(s.limited(s.handleModel))))
	s.mux.HandleFunc("POST /v1/forecast", in.wrap("/v1/forecast", s.recovered(s.limited(s.handleForecast))))
	s.mux.HandleFunc("POST /v1/observe", in.wrap("/v1/observe", s.recovered(s.limited(s.handleObserve))))
	s.mux.HandleFunc("GET /debug/quality", in.wrap("/debug/quality", s.recovered(s.handleQualityStatus)))
	if s.adapt != nil {
		s.mux.HandleFunc("GET /debug/adapt", in.wrap("/debug/adapt", s.recovered(s.handleAdaptStatus)))
		s.mux.HandleFunc("/debug/adapt", in.wrap("/debug/adapt", methodNotAllowed(http.MethodGet)))
	}
	s.mux.HandleFunc("GET /debug/fleet", in.wrap("/debug/fleet", s.recovered(s.handleFleet)))
	s.mux.HandleFunc("GET /debug", in.wrap("/debug", s.recovered(s.handleDebugIndex)))
	s.mux.HandleFunc("GET /debug/{$}", in.wrap("/debug", s.recovered(s.handleDebugIndex)))
	if s.tracer != nil {
		// The exemplar trace IDs on /debug/fleet key into this journal,
		// so it must be reachable from the serving address, not only the
		// pprof sidecar.
		s.mux.HandleFunc("GET /debug/traces", in.wrap("/debug/traces", s.tracer.Handler().ServeHTTP))
	}
	s.mux.HandleFunc("POST /v1/ingest", in.wrap("/v1/ingest", s.recovered(s.limited(s.handleIngest))))
	s.mux.HandleFunc("GET /v1/entities", in.wrap("/v1/entities", s.recovered(s.limited(s.handleEntities))))
	s.mux.HandleFunc("GET /v1/forecast/{entity}", in.wrap("/v1/forecast/{entity}",
		s.recovered(s.limited(s.handleEntityForecast))))
	s.mux.HandleFunc("GET /debug/shards", in.wrap("/debug/shards", s.recovered(s.handleShards)))
	s.mux.HandleFunc("/v1/ingest", in.wrap("/v1/ingest", methodNotAllowed(http.MethodPost)))
	s.mux.HandleFunc("/v1/entities", in.wrap("/v1/entities", methodNotAllowed(http.MethodGet)))
	s.mux.HandleFunc("/debug/shards", in.wrap("/debug/shards", methodNotAllowed(http.MethodGet)))
	s.mux.Handle("GET /metrics", s.reg.Handler())
	// Method-less fallbacks keep 405 semantics for known paths (a bare
	// catch-all would swallow wrong-method requests as 404s).
	s.mux.HandleFunc("/v1/forecast", in.wrap("/v1/forecast", methodNotAllowed(http.MethodPost)))
	s.mux.HandleFunc("/v1/observe", in.wrap("/v1/observe", methodNotAllowed(http.MethodPost)))
	s.mux.HandleFunc("/healthz", in.wrap("/healthz", methodNotAllowed(http.MethodGet)))
	s.mux.HandleFunc("/readyz", in.wrap("/readyz", methodNotAllowed(http.MethodGet)))
	s.mux.HandleFunc("/v1/model", in.wrap("/v1/model", methodNotAllowed(http.MethodGet)))
	s.mux.HandleFunc("/debug/quality", in.wrap("/debug/quality", methodNotAllowed(http.MethodGet)))
	s.mux.HandleFunc("/debug/fleet", in.wrap("/debug/fleet", methodNotAllowed(http.MethodGet)))
	// Cardinality guard: every unregistered path lands here and is
	// instrumented under the single route label "other", so arbitrary
	// probing cannot mint new metric series.
	s.mux.HandleFunc("/", in.wrap("other", s.recovered(s.handleNotFound)))
	// Ready: the predictor carries a loaded model and the router is open.
	// An unfitted predictor serves metadata and probes but reports unready
	// until a model arrives.
	s.ready.Store(p.Model() != nil)
	return s
}

const (
	degradedName = "rptcn_degraded_forecasts_total"
	degradedHelp = "Forecasts served by the naive fallback instead of the model, by reason."
)

// degradeReasons enumerates every way a forecast can degrade.
var degradeReasons = []string{"panic", "timeout", "invalid_output", "breaker_open"}

func (s *Server) degradedInc(reason string) {
	s.reg.Counter(degradedName, degradedHelp, obs.L("reason", reason)).Inc()
}

// methodNotAllowed rejects a request to a known path with the wrong
// method, advertising the allowed one.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Allow", allow)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMethodNotAllowed)
		fmt.Fprintln(w, `{"error":"method not allowed"}`)
	}
}

// Registry returns the metrics registry the server reports into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close closes the shard router, the quality engine and the adaptation
// supervisor; forecasts caught mid-queue are answered 503 and /readyz
// flips to 503. Idempotent. In-flight HTTP requests should be drained
// first (http.Server.Shutdown).
func (s *Server) Close() error {
	s.ready.Store(false)
	s.rings.Close()
	err := s.engine.Close()
	if s.adapt != nil {
		// After the engine: no more quality events can arrive once it
		// is down.
		s.adapt.Close()
	}
	return err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// ModelInfo is the /v1/model response body.
type ModelInfo struct {
	Scenario       string   `json:"scenario"`
	Window         int      `json:"window"`
	Horizon        int      `json:"horizon"`
	ExpandFactor   int      `json:"expand_factor"`
	Selected       []string `json:"selected_indicators"`
	ParamCount     int      `json:"param_count"`
	ReceptiveField int      `json:"receptive_field"`
	// Generation counts the weights serving right now: 1 is the original
	// fit; every online hot-swap (promotion or rollback) increments it.
	Generation int64 `json:"generation,omitempty"`
	// Adapt is the online-adaptation supervisor's snapshot (state,
	// swaps, rollbacks, last swap time) — present only when adaptation
	// is enabled.
	Adapt *adapt.Status `json:"adapt,omitempty"`
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	p := s.predictor
	info := ModelInfo{
		Scenario:     p.Cfg.Scenario.String(),
		Window:       p.Cfg.Window,
		Horizon:      p.Cfg.Horizon,
		ExpandFactor: p.Cfg.ExpandFactor,
		Generation:   p.Generation(),
	}
	if s.adapt != nil {
		st := s.adapt.Status()
		info.Adapt = &st
	}
	for _, idx := range p.SelectedIndicators() {
		info.Selected = append(info.Selected, trace.Indicator(idx).String())
	}
	if m := p.Model(); m != nil {
		info.ParamCount = nn.ParamCount(m)
		info.ReceptiveField = m.ReceptiveField()
	}
	s.writeJSON(w, http.StatusOK, info)
}

// ForecastRequest is the /v1/forecast request body: raw indicator history
// in canonical indicator order, [indicator][time]. Entity and T are
// optional quality-tracking metadata: T is the sample time (monotone
// per-entity index) of the LAST history sample, so forecast step k
// predicts time T+k. Requests that carry them get their forecasts
// remembered and automatically resolved against later overlapping
// windows ("self-join") or POST /v1/observe ground truth.
type ForecastRequest struct {
	Indicators [][]float64 `json:"indicators"`
	Entity     string      `json:"entity,omitempty"`
	T          *int64      `json:"t,omitempty"`
}

// ForecastResponse is the /v1/forecast response body. Degraded marks a
// fallback (last-value) forecast served because the model failed, timed
// out, or is circuit-broken — still actionable for a resource manager,
// but flagged so callers can weigh it accordingly.
type ForecastResponse struct {
	Forecast []float64 `json:"forecast"`
	Target   string    `json:"target"`
	Horizon  int       `json:"horizon"`
	Degraded bool      `json:"degraded,omitempty"`
	// Generation identifies the serving-model weights that produced
	// this forecast (1 = the original fit, +1 per online hot-swap,
	// rollbacks included). 0 on degraded fallbacks, which bypass the
	// model entirely.
	Generation int64 `json:"generation,omitempty"`
	// Model names the registry model that served this forecast (entity
	// path with ?model=); empty for the default serving model.
	Model string `json:"model,omitempty"`
}

// maxBodyBytes bounds request bodies (a window of 8 indicators is tiny;
// 16 MiB leaves room for long histories without allowing abuse).
const maxBodyBytes = 16 << 20

// maxPresizeBytes caps how much of a request's Content-Length claim is
// believed before any byte of the body has arrived.
const maxPresizeBytes = 1 << 20

// readSized is io.ReadAll with the first buffer sized from the declared
// content length, so the usual body is read in one allocation instead of
// ReadAll's 512-byte start and repeated doubling. A length that is
// unknown (-1), wrong, or beyond maxPresizeBytes only costs the growth
// steps ReadAll would have taken.
func readSized(r io.Reader, contentLength int64) ([]byte, error) {
	size := min(max(contentLength, 0), maxPresizeBytes)
	if size == 0 {
		size = 512
	}
	buf := make([]byte, 0, size+1) // +1: room to read the EOF without growing
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	var req ForecastRequest
	body, err := readSized(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unreadable body: %v", err))
		return
	}
	if err := decodeForecastRequest(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON: %v", err))
		return
	}
	if len(req.Indicators) == 0 {
		s.writeError(w, http.StatusBadRequest, "indicators must be non-empty")
		return
	}
	// Ragged histories can never form a valid window; reject them as a
	// client error here rather than letting the pipeline's panic surface
	// as a model failure (which would charge the breaker for a bad payload).
	for i, row := range req.Indicators {
		if len(row) != len(req.Indicators[0]) {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"indicator series must all have the same length: series 0 has %d samples, series %d has %d",
				len(req.Indicators[0]), i, len(row)))
			return
		}
	}

	// Report the entity to the instrumentation middleware, which feeds
	// the fleet sketches and latency exemplars after the response is out.
	ft := telemetryFrom(r.Context())
	ft.set(req.Entity, false)

	o, res := s.infer(r.Context(), req.Entity, req.Indicators)
	forecast := o.forecast
	switch res.kind {
	case inferOK:
		// Quality is measured off the request path: the input summary
		// feeds the engine's drift detectors, and a forecast tagged with t
		// resolves against the actuals that follow it (see feedQuality).
		s.feedQuality(&req, forecast)
		// Shadow evaluation: mirror the served forecast (and its exact
		// prepared input) to the adaptation supervisor. A cheap atomic
		// no-op unless a candidate is actually being scored.
		if s.adapt != nil && req.T != nil {
			s.adapt.MirrorForecast(req.Entity, *req.T, o.in, forecast)
		}
		s.writeJSON(w, http.StatusOK, ForecastResponse{
			Forecast:   forecast,
			Target:     targetName(s.predictor),
			Horizon:    s.predictor.Cfg.Horizon,
			Generation: o.gen,
		})
	case inferBadInput:
		if errors.Is(res.err, shard.ErrClosed) {
			// Caught by shutdown: a server state, not a client error.
			s.writeError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, res.err.Error())
	case inferCanceled:
		// The client went away mid-inference. 499, not a 5xx: the model
		// did nothing wrong, so neither the error counter nor the
		// breaker hears about it.
		s.canceled.Inc()
		s.writeError(w, StatusClientClosedRequest, "client closed request")
	default: // degraded: fall back to the last-value forecast
		fb, ok := s.fallbackForecast(req.Indicators)
		if !ok {
			s.writeError(w, http.StatusServiceUnavailable,
				"model unavailable and history too short for a fallback forecast")
			return
		}
		ft.set(req.Entity, true)
		s.degradedInc(res.reason)
		s.log.Warn("serving degraded forecast", "reason", res.reason)
		s.writeJSON(w, http.StatusOK, ForecastResponse{
			Forecast: fb,
			Target:   targetName(s.predictor),
			Horizon:  s.predictor.Cfg.Horizon,
			Degraded: true,
		})
	}
}

// infer outcome kinds.
const (
	inferOK = iota
	inferBadInput
	inferCanceled
	inferDegraded
)

type inferResult struct {
	kind   int
	reason string // degradation reason, when kind == inferDegraded
	err    error  // client-side input error, when kind == inferBadInput
}

// infer runs one model inference with the full protection stack: the
// circuit breaker may short-circuit it, a panic anywhere on the model
// path is recovered, the request deadline and the client's context bound
// every wait, a canceled client context is surfaced as such, and a
// non-finite forecast is rejected as a model failure.
//
// All of it runs on the request's own goroutine: PrepareInput (read-only,
// so requests prepare in parallel), then the shard — the named entity's,
// or any for an anonymous request — where the request either takes the
// idle shard's lead and runs its forward itself, fused with whatever
// queued meanwhile, or queues for a leader to serve it. Every protection
// is still per-request: each waiter has its own deadline, its own breaker
// outcome, and its own degradation decision.
func (s *Server) infer(ctx context.Context, entity string, series [][]float64) (inferOutcome, inferResult) {
	return s.guardedInfer(ctx, func(deadline time.Time) inferOutcome {
		in, err := s.predictor.PrepareInput(series)
		if err != nil {
			return inferOutcome{err: err}
		}
		sr := s.rings.ForecastPrepared(ctx, deadline, entity, in)
		return inferOutcome{forecast: sr.Forecast, in: in, gen: sr.Gen, err: sr.Err, panicked: sr.Panicked}
	})
}

// inferOutcome is one protected inference attempt's result. in and gen
// ride along for the adaptation supervisor: the prepared input lets the
// shadow candidate re-run exactly what the live model saw, and the
// generation attributes the forecast to one set of weights.
type inferOutcome struct {
	forecast []float64
	in       *core.PreparedInput
	gen      int64
	err      error
	panicked bool
}

// guardedInfer runs one inference attempt under the full protection
// stack (breaker admission, panic recovery, request timeout,
// client-cancel detection, finite-output validation), inline on the
// handler's goroutine. run does the actual work — prepare + batched
// forward for the JSON path, ring window + batched forward for the
// entity path — and must bound its waits by the request context and the
// deadline it is given. A forward itself is never interrupted: one that
// overruns the deadline is reported as a timeout once it returns.
func (s *Server) guardedInfer(ctx context.Context, run func(deadline time.Time) inferOutcome) (inferOutcome, inferResult) {
	if !s.breaker.allow() {
		return inferOutcome{}, inferResult{kind: inferDegraded, reason: "breaker_open"}
	}
	deadline := time.Now().Add(s.resilience.RequestTimeout)
	o := s.runRecovered(ctx, deadline, run)
	switch {
	case o.panicked:
		s.breaker.record(true)
		return inferOutcome{}, inferResult{kind: inferDegraded, reason: "panic"}
	case ctx.Err() != nil:
		// No outcome to record: a disconnect says nothing about model
		// health, but a half-open probe slot must be handed back.
		s.breaker.release()
		return inferOutcome{}, inferResult{kind: inferCanceled}
	case errors.Is(o.err, context.DeadlineExceeded) || time.Now().After(deadline):
		s.breaker.record(true)
		return inferOutcome{}, inferResult{kind: inferDegraded, reason: "timeout"}
	case o.err != nil:
		// Errors here are input-validation failures (the client's
		// problem) or the router closing under the request — never the
		// model's; the breaker stays out.
		s.breaker.release()
		return inferOutcome{}, inferResult{kind: inferBadInput, err: o.err}
	case !finiteAll(o.forecast):
		s.breaker.record(true)
		return inferOutcome{}, inferResult{kind: inferDegraded, reason: "invalid_output"}
	default:
		s.breaker.record(false)
		return o, inferResult{kind: inferOK}
	}
}

// runRecovered calls run behind the server.forecast fault point, turning
// a panic into a panicked outcome. When the point's injected latency
// outlasts the request's bounds, run is not called at all.
func (s *Server) runRecovered(ctx context.Context, deadline time.Time, run func(time.Time) inferOutcome) (o inferOutcome) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			s.log.Error("panic recovered in inference",
				"panic", p, "stack", string(debug.Stack()))
			o = inferOutcome{panicked: true}
		}
	}()
	// Chaos hook: the server.forecast fault point injects latency or
	// panics here, upstream of the real model call.
	fault.DisruptWithin(ctx, deadline, "server.forecast")
	if ctx.Err() != nil || time.Now().After(deadline) {
		return inferOutcome{}
	}
	return run(deadline)
}

func targetName(p *core.Predictor) string {
	sel := p.SelectedIndicators()
	if len(sel) == 0 {
		return ""
	}
	return trace.Indicator(sel[0]).String()
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, errorBody{Error: msg})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out, so the client sees a truncated body;
		// record the failure instead of dropping it silently.
		s.log.Error("response encode failed", "status", code, "err", err)
		s.reg.Counter("rptcn_http_encode_errors_total",
			"Responses whose JSON encoding failed mid-write.").Inc()
	}
}
