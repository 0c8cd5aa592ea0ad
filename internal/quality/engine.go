// Package quality is the online forecast-quality engine: it closes the
// loop between served forecasts and the ground truth that arrives later.
//
// Every served forecast is recorded in a pending store keyed by
// (entity, target sample time). As actuals arrive — explicitly via
// Observe, or implicitly when callers send fresh history windows that
// overlap previously forecast timestamps — pending forecasts resolve
// into (forecast, actual) pairs that stream into rolling per-entity,
// per-horizon-step error windows (MAE, MSE, signed bias, over/under
// counts, p90 |error|).
//
// On top of the resolved stream sit the detectors RPTCN's high-dynamic
// premise demands: a Page–Hinkley mutation-point detector on input
// statistics and on residuals (the paper's regime shifts), an
// error-level drift detector with warn/alarm states, and an input
// out-of-range drift detector (the normalizer leaving its training
// bounds — the leading indicator of silent degradation). A declarative
// SLO rule engine (see slo.go) evaluates burn-window error statistics
// after every resolution.
//
// State transitions emit run-journal events (internal/obs/runlog) and
// metrics (internal/obs); the full picture is available as a Status
// snapshot, served by the HTTP layer as /debug/quality.
//
// The engine runs on a single worker goroutine fed by a bounded queue:
// the serving hot path only enqueues (non-blocking — overflow is
// counted and dropped, never waited on), so steady-state forecast
// latency is unaffected. All state is worker-owned; given the same
// event sequence the engine is fully deterministic.
package quality

import (
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/runlog"
)

// Config configures an Engine. The zero value of every field gets a
// usable default except Horizon, which must match the predictor.
type Config struct {
	// Horizon is the number of steps per forecast (required, ≥ 1).
	Horizon int
	// Window is the rolling resolved-pair window per statistic ring
	// (default 256).
	Window int
	// Preset picks the tuning of the mutation and drift detectors.
	Preset Preset
	// Rules are the SLO rules evaluated over the aggregate resolved
	// stream (see ParseRules).
	Rules []Rule
	// Registry receives the engine's metrics (default obs.Default()).
	Registry *obs.Registry
	// Journal, when set, receives drift and SLO state-transition
	// events (runlog.TypeDrift / runlog.TypeSLO).
	Journal *runlog.Run
	// Log receives transition warnings (default obs.Logger("quality")).
	Log *slog.Logger
	// Events, when set, receives every mutation fire and drift state
	// transition as it happens. The callback runs on the engine's
	// worker goroutine: it must return quickly and never block (hand
	// off to a channel or goroutine for anything heavier), or the
	// quality pipeline stalls behind it.
	Events func(Event)

	// Tests shorten these; zero means the default.
	maxEntities int   // entities with their own windows (32)
	maxAge      int64 // samples a pending forecast may lag its entity (4096)
	sloMinCount int   // resolved pairs a rule needs to leave "pending" (16)
}

// Preset is a tuning of the engine's detectors.
type Preset int

const (
	// PresetDefault sizes the detectors for production cadences.
	PresetDefault Preset = iota
	// PresetFast is for compressed replays (demos, CI drills): small
	// median and warmup windows flip within tens of requests instead of
	// hundreds, a fast EWMA tracks a diurnal wander between mutations,
	// and a widened tolerance and threshold keep a long mutated regime
	// from firing again.
	PresetFast
)

// Mutation is the preset's mutation-point detector tuning.
func (p Preset) Mutation() MutationConfig {
	if p == PresetFast {
		return MutationConfig{MedianWidth: 5, Warmup: 16, Cooldown: 8, Alpha: 0.25, Delta: 3, Lambda: 50}
	}
	return MutationConfig{}
}

// inputDrift is the preset's out-of-range-ratio drift detector tuning:
// in both, a ratio rise under ~4% never warns.
func (p Preset) inputDrift() DriftConfig {
	if p == PresetFast {
		return DriftConfig{Baseline: 16, Alpha: 0.5, MinStd: 0.02}
	}
	return DriftConfig{MinStd: 0.02}
}

const (
	maxPending = 1 << 16 // forecast steps awaiting ground truth, fleet wide
	queueSize  = 4096    // events between the serving path and the worker
)

// Event is one detector transition published to Config.Events. It is
// the subscription surface the adaptation supervisor (internal/adapt)
// hangs off: mutation fires and drift escalations are the triggers for
// background retraining.
type Event struct {
	// Kind is "mutation" (a Page–Hinkley detector fired) or "drift"
	// (a level detector changed state).
	Kind string
	// Signal identifies the watched series: "input" or "residual" for
	// mutations; "error" or "input" for drift.
	Signal string
	// Entity is the entity whose detector fired (mutation events; drift
	// detectors are global and leave it empty).
	Entity string
	// T is the sample time of the triggering observation.
	T int64
	// State is the new drift state ("ok"/"warn"/"alarm"); empty for
	// mutations.
	State string
}

func (c *Config) fillDefaults() {
	if c.Horizon <= 0 {
		c.Horizon = 1
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.maxEntities <= 0 {
		c.maxEntities = 32
	}
	if c.maxAge <= 0 {
		c.maxAge = 4096
	}
	if c.sloMinCount <= 0 {
		c.sloMinCount = 16
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Log == nil {
		c.Log = obs.Logger("quality")
	}
}

// event kinds.
const (
	evForecast = iota
	evObserve
	evInput
	evStatus
	evFlush
)

type event struct {
	kind   int
	entity string
	t      int64
	values []float64    // forecast (evForecast) or actuals (evObserve)
	input  InputSummary // evInput
	reply  chan StatusReport
	done   chan struct{}
}

// pendingPred is one recorded forecast step awaiting its actual.
type pendingPred struct {
	step     int // 1-based horizon step
	issuedAt int64
	value    float64
}

// entityState is the worker-owned record behind one row of the status:
// an entity's windows and detectors, or those of every entity folded
// into "_overflow".
type entityState struct {
	name    string
	lastT   int64
	hasT    bool
	pending int // forecast steps awaiting ground truth, over the entities folded here

	steps []ring // per horizon step, signed errors
	all   ring   // all steps

	inputDet *PageHinkley
	residDet *PageHinkley
	// Recent detection times, newest last, bounded.
	inputFires []int64
	residFires []int64
}

// pendingStore is one entity's forecasts awaiting ground truth, kept
// per entity even past maxEntities so entities folded into one window
// never resolve or overwrite each other's forecasts. Dropped once empty.
type pendingStore struct {
	byT        map[int64][]pendingPred // keyed by target sample time
	ent        *entityState            // the windows its pairs feed
	lastT      int64                   // newest observed sample time
	hasT       bool
	sinceSweep int // observe events since the last expiry sweep
}

// Engine is the online evaluation engine. All exported methods are safe
// for concurrent use.
type Engine struct {
	cfg Config

	ch      chan event
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once

	// Metrics (concurrency-safe; set from the worker and collector).
	resolved   *obs.Counter
	expired    *obs.Counter
	droppedEv  *obs.Counter
	droppedPen *obs.Counter
	invalid    *obs.Counter
	pendingG   *obs.Gauge
	mutInput   *obs.Counter
	mutResid   *obs.Counter
	errDriftG  *obs.Gauge
	inDriftG   *obs.Gauge

	// Worker-owned state.
	entities map[string]*entityState
	order    []string
	pending  map[string]*pendingStore
	pendingN int // forecast steps across every store
	agg      ring
	errDrift *DriftDetector
	inDrift  *DriftDetector
	sloState []string // last state per rule, for transition detection
	lastT    int64
	hasT     bool
}

// New starts an engine (one worker goroutine; stop it with Close).
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	reg := cfg.Registry
	e := &Engine{
		cfg:     cfg,
		ch:      make(chan event, queueSize),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		resolved: reg.Counter("rptcn_quality_resolved_pairs_total",
			"Forecast/actual pairs resolved by the quality engine."),
		expired: reg.Counter("rptcn_quality_expired_forecasts_total",
			"Pending forecasts that aged out before an actual arrived."),
		droppedEv: reg.Counter("rptcn_quality_dropped_events_total",
			"Quality events dropped because the engine queue was full."),
		droppedPen: reg.Counter("rptcn_quality_dropped_forecasts_total",
			"Forecasts dropped because the pending store was full."),
		invalid: reg.Counter("rptcn_quality_invalid_actuals_total",
			"Observed actuals discarded for being non-finite."),
		pendingG: reg.Gauge("rptcn_quality_pending_forecasts",
			"Forecast steps currently awaiting ground truth."),
		mutInput: reg.Counter("rptcn_quality_mutations_total",
			"Mutation points detected, by signal.", obs.L("signal", "input")),
		mutResid: reg.Counter("rptcn_quality_mutations_total",
			"Mutation points detected, by signal.", obs.L("signal", "residual")),
		errDriftG: reg.Gauge("rptcn_quality_drift_state",
			"Drift state by signal: 0 ok, 1 warn, 2 alarm.", obs.L("signal", "error")),
		inDriftG: reg.Gauge("rptcn_quality_drift_state",
			"Drift state by signal: 0 ok, 1 warn, 2 alarm.", obs.L("signal", "input")),
		entities: make(map[string]*entityState),
		pending:  make(map[string]*pendingStore),
		agg:      newRing(cfg.Window),
		errDrift: NewDriftDetector(DriftConfig{}),
		inDrift:  NewDriftDetector(cfg.Preset.inputDrift()),
		sloState: make([]string, len(cfg.Rules)),
	}
	for i := range e.sloState {
		e.sloState[i] = sloPending
		reg.Gauge("rptcn_quality_slo_ok",
			"1 while the SLO rule holds (or is pending), 0 while breached.",
			obs.L("rule", cfg.Rules[i].String())).Set(1)
	}
	// Per-step and aggregate error gauges refresh at scrape time from a
	// live status snapshot, so /metrics always shows current windows.
	reg.RegisterCollector(func() {
		st, ok := e.status()
		if !ok {
			return
		}
		set := func(s StepStats, label string) {
			reg.Gauge("rptcn_quality_mae",
				"Rolling MAE of resolved forecasts by horizon step.", obs.L("step", label)).Set(s.MAE)
			reg.Gauge("rptcn_quality_bias",
				"Rolling signed mean error (forecast-actual) by horizon step.", obs.L("step", label)).Set(s.Bias)
		}
		set(st.Aggregate, "all")
		for _, s := range st.Steps {
			set(s, strconv.Itoa(s.Step))
		}
	})
	go e.run()
	return e
}

// RecordForecast registers a served forecast for entity issued at
// sample time issuedAt: forecast[k] predicts time issuedAt+k+1. The
// slice is copied.
func (e *Engine) RecordForecast(entity string, issuedAt int64, forecast []float64) {
	if len(forecast) == 0 {
		return
	}
	vals := make([]float64, len(forecast))
	copy(vals, forecast)
	e.send(event{kind: evForecast, entity: entity, t: issuedAt, values: vals})
}

// Observe feeds ground truth for entity: actuals[i] is the target
// indicator's value at sample time t0+i. Matching pending forecasts
// resolve into error pairs. The slice is copied.
func (e *Engine) Observe(entity string, t0 int64, actuals []float64) {
	if len(actuals) == 0 {
		return
	}
	vals := make([]float64, len(actuals))
	copy(vals, actuals)
	e.send(event{kind: evObserve, entity: entity, t: t0, values: vals})
}

// ObserveInput feeds one request's input summary at sample time t (see
// InputBounds.Summarize): the target's trailing mean feeds the mutation
// detector, the out-of-range ratio the input drift detector.
func (e *Engine) ObserveInput(entity string, t int64, sum InputSummary) {
	if sum.HasMean || sum.HasOOR {
		e.send(event{kind: evInput, entity: entity, t: t, input: sum})
	}
}

// send enqueues without blocking; overflow is counted, not waited on.
func (e *Engine) send(ev event) {
	select {
	case e.ch <- ev:
	case <-e.stopped:
	default:
		e.droppedEv.Inc()
	}
}

// Flush blocks until every event enqueued before the call has been
// processed (no-op after Close). Tests and snapshot paths use it to
// make the asynchronous pipeline deterministic.
func (e *Engine) Flush() {
	done := make(chan struct{})
	select {
	case e.ch <- event{kind: evFlush, done: done}:
	case <-e.stopped:
		return
	}
	select {
	case <-done:
	case <-e.stopped:
	}
}

// Status returns a consistent snapshot of every window, detector, and
// SLO rule, after draining already-enqueued events. After Close it
// returns the zero report.
func (e *Engine) Status() StatusReport {
	st, _ := e.status()
	return st
}

func (e *Engine) status() (StatusReport, bool) {
	reply := make(chan StatusReport, 1)
	select {
	case e.ch <- event{kind: evStatus, reply: reply}:
	case <-e.stopped:
		return StatusReport{}, false
	}
	select {
	case st := <-reply:
		return st, true
	case <-e.stopped:
		return StatusReport{}, false
	}
}

// Close stops the worker and waits for it to exit. Idempotent; events
// sent after Close are discarded.
func (e *Engine) Close() error {
	e.once.Do(func() {
		close(e.stop)
		<-e.stopped
	})
	return nil
}

// run is the worker loop; it owns every map, ring, and detector.
func (e *Engine) run() {
	defer close(e.stopped)
	for {
		select {
		case ev := <-e.ch:
			e.handle(ev)
		case <-e.stop:
			// Serve already-queued flushes/statuses so no caller blocks,
			// then exit.
			for {
				select {
				case ev := <-e.ch:
					e.handle(ev)
				default:
					return
				}
			}
		}
	}
}

func (e *Engine) handle(ev event) {
	if ev.entity == "" {
		ev.entity = "_default"
	}
	switch ev.kind {
	case evForecast:
		e.recordForecast(ev)
	case evObserve:
		e.observe(ev)
	case evInput:
		e.observeInput(ev)
	case evStatus:
		ev.reply <- e.buildStatus()
	case evFlush:
		close(ev.done)
	}
}

// entity returns (creating if needed) the windows name's pairs feed,
// folding the entities beyond maxEntities into "_overflow".
func (e *Engine) entity(name string) *entityState {
	if ent, ok := e.entities[name]; ok {
		return ent
	}
	if len(e.entities) >= e.cfg.maxEntities {
		name = "_overflow"
		if ent, ok := e.entities[name]; ok {
			return ent
		}
	}
	ent := &entityState{
		name:     name,
		steps:    make([]ring, e.cfg.Horizon),
		all:      newRing(e.cfg.Window),
		inputDet: NewPageHinkley(e.cfg.Preset.Mutation()),
		residDet: NewPageHinkley(e.cfg.Preset.Mutation()),
	}
	for i := range ent.steps {
		ent.steps[i] = newRing(e.cfg.Window)
	}
	e.entities[name] = ent
	e.order = append(e.order, name)
	return ent
}

// addPending counts n forecast steps into (n > 0) or out of (n < 0) ps.
func (e *Engine) addPending(ps *pendingStore, n int) {
	ps.ent.pending += n
	e.pendingN += n
}

func (e *Engine) recordForecast(ev event) {
	ps := e.pending[ev.entity]
	if ps == nil {
		ps = &pendingStore{byT: make(map[int64][]pendingPred), ent: e.entity(ev.entity)}
		e.pending[ev.entity] = ps
	}
	for k, v := range ev.values {
		tt := ev.t + int64(k) + 1
		preds := ps.byT[tt]
		step := k + 1
		replaced := false
		for i := range preds {
			// A re-sent forecast for the same (issue time, step)
			// replaces rather than double-counts.
			if preds[i].issuedAt == ev.t && preds[i].step == step {
				preds[i].value = v
				replaced = true
				break
			}
		}
		if !replaced {
			if e.pendingN >= maxPending {
				e.droppedPen.Inc()
				continue
			}
			preds = append(preds, pendingPred{step: step, issuedAt: ev.t, value: v})
			e.addPending(ps, 1)
		}
		ps.byT[tt] = preds
	}
	if len(ps.byT) == 0 {
		delete(e.pending, ev.entity)
	}
	e.pendingG.Set(float64(e.pendingN))
}

func (e *Engine) observe(ev event) {
	ent := e.entity(ev.entity)
	ps := e.pending[ev.entity]
	resolvedAny := false
	for i, actual := range ev.values {
		tt := ev.t + int64(i)
		if tt > ent.lastT || !ent.hasT {
			ent.lastT, ent.hasT = tt, true
		}
		if tt > e.lastT || !e.hasT {
			e.lastT, e.hasT = tt, true
		}
		if ps == nil {
			continue
		}
		if tt > ps.lastT || !ps.hasT {
			ps.lastT, ps.hasT = tt, true
		}
		preds, ok := ps.byT[tt]
		if !ok {
			continue
		}
		if math.IsNaN(actual) || math.IsInf(actual, 0) {
			e.invalid.Inc()
			continue
		}
		delete(ps.byT, tt)
		e.addPending(ps, -len(preds))
		for _, p := range preds {
			err := p.value - actual
			if math.IsNaN(err) || math.IsInf(err, 0) {
				e.invalid.Inc()
				continue
			}
			resolvedAny = true
			e.resolved.Inc()
			ent.steps[p.step-1].push(err)
			ent.all.push(err)
			e.agg.push(err)
			// The residual mutation detector watches the freshest
			// signal: step-1 errors, indexed by target time.
			if p.step == 1 && ent.residDet.Push(err) {
				e.fireMutation(ent, "residual", tt, &ent.residFires, e.mutResid)
			}
			old := e.errDrift.State()
			if now := e.errDrift.Push(math.Abs(err)); now != old {
				e.driftTransition("error", old, now, e.errDrift, e.errDriftG, tt)
			}
		}
	}
	if ps != nil {
		// Periodic expiry sweep: forecasts whose actual never arrived.
		if ps.sinceSweep++; ps.sinceSweep >= 64 {
			ps.sinceSweep = 0
			e.sweep(ps)
		}
		if len(ps.byT) == 0 {
			delete(e.pending, ev.entity)
		}
	}
	if resolvedAny {
		e.evalSLO()
	}
	e.pendingG.Set(float64(e.pendingN))
}

func (e *Engine) observeInput(ev event) {
	ent := e.entity(ev.entity)
	in := ev.input
	if in.HasMean && ent.inputDet.Push(in.Mean) {
		e.fireMutation(ent, "input", ev.t, &ent.inputFires, e.mutInput)
	}
	if in.HasOOR {
		old := e.inDrift.State()
		if now := e.inDrift.Push(in.OOR); now != old {
			e.driftTransition("input", old, now, e.inDrift, e.inDriftG, ev.t)
		}
	}
}

// sweep expires ps's entries older than its lastT-maxAge.
func (e *Engine) sweep(ps *pendingStore) {
	if !ps.hasT {
		return
	}
	cutoff := ps.lastT - e.cfg.maxAge
	for tt, preds := range ps.byT {
		if tt < cutoff {
			delete(ps.byT, tt)
			e.addPending(ps, -len(preds))
			e.expired.Add(float64(len(preds)))
		}
	}
}

// fireMutation records one detector fire: bounded recent-times list,
// counter, journal event, log line.
func (e *Engine) fireMutation(ent *entityState, signal string, t int64, fires *[]int64, c *obs.Counter) {
	*fires = append(*fires, t)
	if len(*fires) > 32 {
		*fires = (*fires)[len(*fires)-32:]
	}
	c.Inc()
	e.cfg.Journal.Log(runlog.TypeDrift, map[string]any{
		"kind": "mutation", "signal": signal, "entity": ent.name, "t": t,
	})
	e.cfg.Log.Warn("mutation point detected", "signal", signal, "entity", ent.name, "t", t)
	if e.cfg.Events != nil {
		e.cfg.Events(Event{Kind: "mutation", Signal: signal, Entity: ent.name, T: t})
	}
}

// driftTransition records one drift state change.
func (e *Engine) driftTransition(signal string, old, now DriftState, d *DriftDetector, g *obs.Gauge, t int64) {
	g.Set(float64(now))
	mean, std, _ := d.Baseline()
	e.cfg.Journal.Log(runlog.TypeDrift, map[string]any{
		"kind": "level", "signal": signal, "from": old.String(), "state": now.String(),
		"level": d.Level(), "baseline_mean": mean, "baseline_std": std, "t": t,
	})
	e.cfg.Log.Warn("drift state change", "signal", signal, "from", old.String(),
		"state", now.String(), "level", d.Level(), "t", t)
	if e.cfg.Events != nil {
		e.cfg.Events(Event{Kind: "drift", Signal: signal, T: t, State: now.String()})
	}
}

// evalSLO re-evaluates every rule over the aggregate window and emits
// transitions.
func (e *Engine) evalSLO() {
	if len(e.cfg.Rules) == 0 {
		return
	}
	errs := e.agg.ordered(nil)
	for i, r := range e.cfg.Rules {
		st := evalRule(r, errs, e.cfg.Window, e.cfg.sloMinCount)
		if st.State == e.sloState[i] {
			continue
		}
		old := e.sloState[i]
		e.sloState[i] = st.State
		ok := 1.0
		if st.State == sloBreach {
			ok = 0
		}
		e.cfg.Registry.Gauge("rptcn_quality_slo_ok",
			"1 while the SLO rule holds (or is pending), 0 while breached.",
			obs.L("rule", st.Rule)).Set(ok)
		e.cfg.Registry.Counter("rptcn_quality_slo_transitions_total",
			"SLO rule state transitions.", obs.L("rule", st.Rule)).Inc()
		e.cfg.Journal.Log(runlog.TypeSLO, map[string]any{
			"rule": st.Rule, "from": old, "state": st.State,
			"value": st.Value, "count": st.Count, "t": e.lastT,
		})
		e.cfg.Log.Warn("slo transition", "rule", st.Rule, "from", old,
			"state", st.State, "value", st.Value)
	}
}

// ring is a fixed-capacity chronological buffer of signed errors.
type ring struct {
	buf     []float64
	next, n int
}

func newRing(capacity int) ring { return ring{buf: make([]float64, capacity)} }

func (r *ring) push(v float64) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// ordered appends the contents oldest→newest to dst and returns it.
func (r *ring) ordered(dst []float64) []float64 {
	if r.n < len(r.buf) {
		return append(dst, r.buf[:r.n]...)
	}
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}

// StepStats summarizes one rolling window of resolved pairs. Every
// statistic is computed over the window in chronological order, so an
// offline recomputation over the same pairs matches bitwise.
type StepStats struct {
	// Step is the 1-based horizon step (0 for all steps combined).
	Step  int     `json:"step"`
	Count int     `json:"count"`
	MAE   float64 `json:"mae"`
	MSE   float64 `json:"mse"`
	// Bias is the signed mean error, forecast-actual: positive means
	// over-prediction (wasted allocation), negative under-prediction
	// (SLA risk) — the asymmetry the cost-aware provisioning literature
	// prices differently.
	Bias      float64 `json:"bias"`
	Over      int     `json:"over"`
	Under     int     `json:"under"`
	P90AbsErr float64 `json:"p90_abs_err"`
}

// statsOf computes StepStats over chronological signed errors.
func statsOf(step int, errs []float64) StepStats {
	st := StepStats{Step: step, Count: len(errs)}
	if len(errs) == 0 {
		return st
	}
	var sumAbs, sumSq, sum float64
	for _, e := range errs {
		sumAbs += math.Abs(e)
		sumSq += e * e
		sum += e
		if e > 0 {
			st.Over++
		} else if e < 0 {
			st.Under++
		}
	}
	n := float64(len(errs))
	st.MAE = sumAbs / n
	st.MSE = sumSq / n
	st.Bias = sum / n
	st.P90AbsErr = absQuantile(errs, 0.90)
	return st
}

// DriftStatus is the live state of one drift detector.
type DriftStatus struct {
	State        string  `json:"state"`
	Level        float64 `json:"level"`
	BaselineMean float64 `json:"baseline_mean"`
	BaselineStd  float64 `json:"baseline_std"`
	Samples      int     `json:"samples"`
}

func driftStatus(d *DriftDetector) DriftStatus {
	mean, std, n := d.Baseline()
	return DriftStatus{
		State: d.State().String(), Level: d.Level(),
		BaselineMean: mean, BaselineStd: std, Samples: n,
	}
}

// EntityStatus is one entity's live quality picture.
type EntityStatus struct {
	Entity  string `json:"entity"`
	LastT   int64  `json:"last_t"`
	Pending int    `json:"pending"`
	// All aggregates every horizon step; Steps break it down.
	All   StepStats   `json:"all"`
	Steps []StepStats `json:"steps"`
	// Recent mutation-point detection times (sample time), newest last.
	InputMutations    []int64 `json:"input_mutations,omitempty"`
	ResidualMutations []int64 `json:"residual_mutations,omitempty"`
}

// StatusReport is the full engine snapshot behind /debug/quality.
type StatusReport struct {
	// Time is the newest observed sample time across entities.
	Time     int64  `json:"t"`
	Pending  int    `json:"pending"`
	Resolved uint64 `json:"resolved_pairs"`
	Expired  uint64 `json:"expired_forecasts"`
	Dropped  uint64 `json:"dropped_events"`
	// Aggregate covers all entities and steps; Steps is the per-step
	// breakdown over all entities.
	Aggregate  StepStats      `json:"aggregate"`
	Steps      []StepStats    `json:"steps"`
	ErrorDrift DriftStatus    `json:"error_drift"`
	InputDrift DriftStatus    `json:"input_drift"`
	SLO        []RuleStatus   `json:"slo,omitempty"`
	Entities   []EntityStatus `json:"entities,omitempty"`
}

func (e *Engine) buildStatus() StatusReport {
	st := StatusReport{
		Time:       e.lastT,
		Pending:    e.pendingN,
		Resolved:   uint64(e.resolved.Value()),
		Expired:    uint64(e.expired.Value()),
		Dropped:    uint64(e.droppedEv.Value()),
		Aggregate:  statsOf(0, e.agg.ordered(nil)),
		ErrorDrift: driftStatus(e.errDrift),
		InputDrift: driftStatus(e.inDrift),
	}
	// Per-step aggregates across entities: concatenate entity rings in
	// entity order, then per-entity chronological order. (Cross-entity
	// interleaving is not reconstructible from per-entity rings; the
	// canonical chronological stream is the aggregate ring.)
	for k := 1; k <= e.cfg.Horizon; k++ {
		var errs []float64
		for _, name := range e.order {
			errs = e.entities[name].steps[k-1].ordered(errs)
		}
		st.Steps = append(st.Steps, statsOf(k, errs))
	}
	if len(e.cfg.Rules) > 0 {
		errs := e.agg.ordered(nil)
		for _, r := range e.cfg.Rules {
			st.SLO = append(st.SLO, evalRule(r, errs, e.cfg.Window, e.cfg.sloMinCount))
		}
	}
	names := append([]string(nil), e.order...)
	sort.Strings(names)
	for _, name := range names {
		ent := e.entities[name]
		es := EntityStatus{
			Entity: name, LastT: ent.lastT, Pending: ent.pending,
			All:               statsOf(0, ent.all.ordered(nil)),
			InputMutations:    append([]int64(nil), ent.inputFires...),
			ResidualMutations: append([]int64(nil), ent.residFires...),
		}
		for k := 1; k <= e.cfg.Horizon; k++ {
			es.Steps = append(es.Steps, statsOf(k, ent.steps[k-1].ordered(nil)))
		}
		st.Entities = append(st.Entities, es)
	}
	return st
}
