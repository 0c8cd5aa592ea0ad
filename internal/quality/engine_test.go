package quality

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/runlog"
)

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	e := New(cfg)
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEngineMatchesOfflineRecomputation drives the engine with a
// forecast/observe stream and checks that its rolling windows match an
// offline recomputation bitwise (==) — the acceptance criterion.
func TestEngineMatchesOfflineRecomputation(t *testing.T) {
	const horizon, window = 3, 64
	e := newTestEngine(t, Config{Horizon: horizon, Window: window})

	// Offline mirror of the resolution semantics: pending forecasts by
	// target time in insertion order; resolution in target-time order.
	type pred struct {
		step  int
		value float64
	}
	pending := map[int64][]pred{}
	var resolved []float64              // all steps, chronological
	stepResolved := map[int][]float64{} // per step

	series := func(tt int64) float64 { // deterministic pseudo-workload
		f := float64(tt)
		return 30 + 10*math.Sin(f/7) + 3*math.Sin(f/3)
	}
	forecast := func(tt int64, k int) float64 { // deliberately imperfect
		return series(tt+int64(k)) + 0.5*float64(k) + math.Sin(float64(tt))
	}

	for tt := int64(0); tt < 500; tt++ {
		actual := series(tt)
		e.Observe("m1", tt, []float64{actual})
		if preds, ok := pending[tt]; ok {
			delete(pending, tt)
			for _, p := range preds {
				err := p.value - actual
				resolved = append(resolved, err)
				stepResolved[p.step] = append(stepResolved[p.step], err)
			}
		}
		fc := make([]float64, horizon)
		for k := range fc {
			fc[k] = forecast(tt, k+1)
			pending[tt+int64(k)+1] = append(pending[tt+int64(k)+1], pred{step: k + 1, value: fc[k]})
		}
		e.RecordForecast("m1", tt, fc)
	}
	st := e.Status()

	offline := func(errs []float64) StepStats {
		if len(errs) > window {
			errs = errs[len(errs)-window:]
		}
		return statsOf(0, errs)
	}
	want := offline(resolved)
	if st.Aggregate.Count != want.Count || st.Aggregate.MAE != want.MAE ||
		st.Aggregate.MSE != want.MSE || st.Aggregate.Bias != want.Bias ||
		st.Aggregate.P90AbsErr != want.P90AbsErr {
		t.Fatalf("aggregate %+v != offline %+v", st.Aggregate, want)
	}
	if st.Aggregate.Over+st.Aggregate.Under > st.Aggregate.Count {
		t.Fatal("over/under counts exceed window")
	}
	for k := 1; k <= horizon; k++ {
		want := offline(stepResolved[k])
		got := st.Steps[k-1]
		if got.Step != k || got.MAE != want.MAE || got.Bias != want.Bias || got.Count != want.Count {
			t.Fatalf("step %d: %+v != offline %+v", k, got, want)
		}
	}
	if int(st.Resolved) != len(resolved) {
		t.Fatalf("resolved = %d, want %d", st.Resolved, len(resolved))
	}
	if st.Pending != len(pending)*horizon-(horizon-1)*horizon/2 {
		// Outstanding: 3 target times with 3+2+1 steps... just sanity:
		t.Logf("pending=%d (engine) vs %d target times (offline)", st.Pending, len(pending))
	}
	if len(st.Entities) != 1 || st.Entities[0].Entity != "m1" {
		t.Fatalf("entities = %+v", st.Entities)
	}
	if st.Entities[0].All.MAE != want.MAE {
		// Single entity: entity window must equal aggregate window.
		t.Fatalf("entity MAE %v != aggregate %v", st.Entities[0].All.MAE, st.Aggregate.MAE)
	}
}

// TestEngineSelfJoin: ground truth arriving as overlapping history
// windows (the serving self-join path) must resolve each target exactly
// once.
func TestEngineSelfJoin(t *testing.T) {
	e := newTestEngine(t, Config{Horizon: 2, Window: 32})
	e.RecordForecast("c1", 10, []float64{5, 6}) // targets 11, 12
	// Overlapping windows: [8..11], then [9..12] — target 11 appears in
	// both, but must only resolve from the first.
	e.Observe("c1", 8, []float64{1, 1, 1, 4}) // resolves t=11 (err 5-4=1)
	e.Observe("c1", 9, []float64{1, 1, 4, 7}) // resolves t=12 (err 6-7=-1)
	st := e.Status()
	if st.Resolved != 2 {
		t.Fatalf("resolved = %d, want 2", st.Resolved)
	}
	if st.Aggregate.MAE != 1 || st.Aggregate.Bias != 0 {
		t.Fatalf("aggregate = %+v, want MAE 1 bias 0", st.Aggregate)
	}
	if st.Steps[0].Over != 1 || st.Steps[1].Under != 1 {
		t.Fatalf("steps = %+v", st.Steps)
	}
	if st.Pending != 0 {
		t.Fatalf("pending = %d, want 0", st.Pending)
	}
}

// TestEngineDedupe: re-sending a forecast for the same (issue time,
// step) replaces rather than double-counts.
func TestEngineDedupe(t *testing.T) {
	e := newTestEngine(t, Config{Horizon: 1, Window: 32})
	e.RecordForecast("m1", 5, []float64{10})
	e.RecordForecast("m1", 5, []float64{12}) // retry with newer value
	e.Observe("m1", 6, []float64{11})
	st := e.Status()
	if st.Resolved != 1 {
		t.Fatalf("resolved = %d, want 1 (dedupe)", st.Resolved)
	}
	if st.Aggregate.Bias != 1 { // 12-11, the replacement value
		t.Fatalf("bias = %v, want 1", st.Aggregate.Bias)
	}
}

// TestEngineExpiry: pending forecasts whose actuals never arrive age out
// and are counted.
func TestEngineExpiry(t *testing.T) {
	e := newTestEngine(t, Config{Horizon: 1, Window: 32, maxAge: 16})
	e.RecordForecast("m1", 0, []float64{10}) // target t=1, never observed
	// 64+ observes far past maxAge trigger the periodic sweep.
	for tt := int64(100); tt < 170; tt++ {
		e.Observe("m1", tt, []float64{1})
	}
	st := e.Status()
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if st.Pending != 0 {
		t.Fatalf("pending = %d, want 0", st.Pending)
	}
}

// TestEngineEntityOverflow: entities beyond maxEntities fold into
// "_overflow" so metric label cardinality stays bounded.
func TestEngineEntityOverflow(t *testing.T) {
	e := newTestEngine(t, Config{Horizon: 1, Window: 8, maxEntities: 2})
	for _, name := range []string{"a", "b", "c", "d", ""} {
		e.RecordForecast(name, 0, []float64{2})
		e.Observe(name, 1, []float64{1})
	}
	st := e.Status()
	names := make([]string, len(st.Entities))
	for i, es := range st.Entities {
		names[i] = es.Entity
	}
	joined := strings.Join(names, ",")
	if len(st.Entities) != 3 || !strings.Contains(joined, "_overflow") {
		t.Fatalf("entities = %v, want a, b and _overflow", joined)
	}
	// "" and the overflowed entities share _overflow's window; every
	// pair still resolves.
	if st.Resolved != 5 {
		t.Fatalf("resolved = %d, want 5", st.Resolved)
	}
}

// TestEngineOverflowKeepsForecastsApart: two entities folded into
// "_overflow" forecast the same target time. Each forecast resolves
// against its own entity's actual, so two exact forecasts score two
// pairs at zero error, not one pair scored against the other entity.
func TestEngineOverflowKeepsForecastsApart(t *testing.T) {
	e := newTestEngine(t, Config{Horizon: 1, Window: 8, maxEntities: 1})
	e.RecordForecast("a", 0, []float64{1})
	e.RecordForecast("b", 0, []float64{10}) // folds into _overflow
	e.RecordForecast("c", 0, []float64{20}) // so does this
	if st := e.Status(); st.Pending != 3 {
		t.Fatalf("pending = %d, want 3", st.Pending)
	}
	e.Observe("b", 1, []float64{10})
	e.Observe("c", 1, []float64{20})
	st := e.Status()
	if st.Resolved != 2 || st.Aggregate.MAE != 0 {
		t.Fatalf("resolved %d pairs at MAE %v, want 2 at 0", st.Resolved, st.Aggregate.MAE)
	}
	if st.Pending != 1 {
		t.Fatalf("pending = %d, want a's 1", st.Pending)
	}
	for _, es := range st.Entities {
		if want := map[string]int{"a": 1, "_overflow": 0}[es.Entity]; es.Pending != want {
			t.Fatalf("entity %s pending = %d, want %d", es.Entity, es.Pending, want)
		}
	}
}

// TestEngineSLOTransitions: rules transition pending→ok→breach→ok with
// journal events at every change.
func TestEngineSLOTransitions(t *testing.T) {
	var buf bytes.Buffer
	journal := runlog.New(&buf)
	rules, err := ParseRules("mae<=1@8")
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{
		Horizon: 1, Window: 16, Rules: rules, sloMinCount: 4, Journal: journal,
	})
	feed := func(t0 int64, n int, errv float64) int64 {
		for i := 0; i < n; i++ {
			e.RecordForecast("m1", t0, []float64{10 + errv})
			e.Observe("m1", t0+1, []float64{10})
			t0++
		}
		return t0
	}
	tt := feed(0, 8, 0) // err 0 → pending → ok
	if st := e.Status(); st.SLO[0].State != sloOK {
		t.Fatalf("after good stream: %+v", st.SLO[0])
	}
	tt = feed(tt, 8, 5) // err 5 → breach
	if st := e.Status(); st.SLO[0].State != sloBreach || st.SLO[0].Value != 5 {
		t.Fatalf("after bad stream: %+v", st.SLO[0])
	}
	feed(tt, 8, 0) // recover
	if st := e.Status(); st.SLO[0].State != sloOK {
		t.Fatalf("after recovery: %+v", st.SLO[0])
	}

	e.Close()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := runlog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, ev := range events {
		if ev.Type == runlog.TypeSLO {
			states = append(states, ev.Data["state"].(string))
			if ev.Data["rule"] != "mae<=1@8" {
				t.Fatalf("journal rule = %v", ev.Data["rule"])
			}
		}
	}
	want := []string{"ok", "breach", "ok"}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("journal SLO states = %v, want %v", states, want)
	}
}

// TestEngineMutationAndDriftEvents: input-statistic steps fire the
// mutation detector; a rising OOR ratio walks the input drift detector
// to alarm; both leave journal events.
func TestEngineMutationAndDriftEvents(t *testing.T) {
	var buf bytes.Buffer
	journal := runlog.New(&buf)
	e := newTestEngine(t, Config{
		Horizon: 1,
		Preset:  PresetFast,
		Journal: journal,
	})
	dither := func(i int) float64 { return float64(i%2)*2 - 1 }
	tt := int64(0)
	for i := 0; i < 64; i++ { // stationary input level, OOR 0
		e.ObserveInput("m1", tt, InputSummary{Mean: 20 + dither(i), HasMean: true, HasOOR: true})
		tt++
	}
	for i := 0; i < 64; i++ { // level step + OOR surge
		e.ObserveInput("m1", tt, InputSummary{Mean: 60 + dither(i), OOR: 0.5, HasMean: true, HasOOR: true})
		tt++
	}
	st := e.Status()
	if len(st.Entities) != 1 || len(st.Entities[0].InputMutations) == 0 {
		t.Fatalf("no input mutation detected: %+v", st.Entities)
	}
	fireT := st.Entities[0].InputMutations[0]
	if fireT < 64 || fireT > 64+2*5 {
		t.Fatalf("mutation at t=%d, want within 2 windows of 64", fireT)
	}
	if st.InputDrift.State != "alarm" {
		t.Fatalf("input drift = %q, want alarm", st.InputDrift.State)
	}

	e.Close()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := runlog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sawMutation, sawLevel := false, false
	for _, ev := range events {
		if ev.Type != runlog.TypeDrift {
			continue
		}
		switch ev.Data["kind"] {
		case "mutation":
			if ev.Data["signal"] == "input" {
				sawMutation = true
			}
		case "level":
			if ev.Data["signal"] == "input" {
				sawLevel = true
			}
		}
	}
	if !sawMutation || !sawLevel {
		t.Fatalf("journal missing events: mutation=%v level=%v", sawMutation, sawLevel)
	}
}

// TestEngineEventsSubscription: the Events callback sees the same
// mutation fire and drift transitions the journal records, in order,
// with the firing entity attached, and never with the engine lock held.
func TestEngineEventsSubscription(t *testing.T) {
	var (
		got    []Event
		e      *Engine
		locked bool
	)
	e = newTestEngine(t, Config{
		Horizon: 1,
		Preset:  PresetFast,
		Events: func(ev Event) { // this goroutine's calls only
			got = append(got, ev)
			if e.mu.TryLock() {
				e.mu.Unlock()
			} else {
				locked = true
			}
		},
	})
	dither := func(i int) float64 { return float64(i%2)*2 - 1 }
	tt := int64(0)
	for i := 0; i < 64; i++ {
		e.ObserveInput("m1", tt, InputSummary{Mean: 20 + dither(i), HasMean: true, HasOOR: true})
		tt++
	}
	for i := 0; i < 64; i++ {
		e.ObserveInput("m1", tt, InputSummary{Mean: 60 + dither(i), OOR: 0.5, HasMean: true, HasOOR: true})
		tt++
	}

	var mutations, drifts []Event
	for _, ev := range got {
		switch ev.Kind {
		case "mutation":
			mutations = append(mutations, ev)
		case "drift":
			drifts = append(drifts, ev)
		default:
			t.Fatalf("unexpected event kind %q", ev.Kind)
		}
	}
	if len(mutations) == 0 {
		t.Fatal("no mutation event delivered")
	}
	m := mutations[0]
	if m.Signal != "input" || m.Entity != "m1" || m.State != "" {
		t.Fatalf("mutation event = %+v", m)
	}
	if m.T < 64 || m.T > 64+2*5 {
		t.Fatalf("mutation event at t=%d, want within 2 windows of 64", m.T)
	}
	if len(drifts) == 0 || drifts[len(drifts)-1].State != "alarm" {
		t.Fatalf("drift events = %+v, want a transition ending in alarm", drifts)
	}
	for _, d := range drifts {
		if d.Signal != "input" || d.Entity != "" {
			t.Fatalf("drift event = %+v", d)
		}
	}
	if locked {
		t.Fatal("an event was delivered with the engine lock held")
	}
}

// TestEngineMetrics: the registry exposes the engine's gauges and
// counters, refreshed at scrape time.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, Config{Horizon: 2, Window: 8, Registry: reg})
	e.RecordForecast("m1", 0, []float64{4, 5})
	e.Observe("m1", 1, []float64{3, 3})

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"rptcn_quality_resolved_pairs_total 2",
		`rptcn_quality_mae{step="all"} 1.5`,
		`rptcn_quality_mae{step="1"} 1`,
		`rptcn_quality_mae{step="2"} 2`,
		`rptcn_quality_bias{step="all"} 1.5`,
		"rptcn_quality_pending_forecasts 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestEngineCloseLifecycle: Close is idempotent, post-Close calls are
// safe no-ops, and scrapes after Close do not hang.
func TestEngineCloseLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Horizon: 1, Registry: reg})
	e.RecordForecast("m1", 0, []float64{1})
	e.Close()
	e.Close()
	e.RecordForecast("m1", 1, []float64{2})
	e.Observe("m1", 1, []float64{2})
	e.ObserveInput("m1", 1, InputSummary{Mean: 2, HasMean: true, HasOOR: true})
	if st := e.Status(); st.Resolved != 0 {
		t.Fatalf("post-close status = %+v", st)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestEngineInvalidActuals: NaN/Inf actuals are counted and discarded,
// never poisoning the windows.
func TestEngineInvalidActuals(t *testing.T) {
	e := newTestEngine(t, Config{Horizon: 1, Window: 8})
	e.RecordForecast("m1", 0, []float64{1})
	e.RecordForecast("m1", 1, []float64{1})
	e.Observe("m1", 1, []float64{math.NaN()})
	e.Observe("m1", 2, []float64{math.Inf(1)})
	st := e.Status()
	if st.Resolved != 0 {
		t.Fatalf("resolved = %d, want 0", st.Resolved)
	}
	if st.Aggregate.Count != 0 {
		t.Fatalf("window count = %d, want 0", st.Aggregate.Count)
	}
}

// TestEngineAbandonedEntitiesDoNotStarveResolution: forecasts for
// entities that never send actuals must not hold the fleet-wide pending
// cap. 14,000 abandoned horizon-5 forecasts overfill it; once a live
// entity's clock is maxAge past them they expire fleet wide, and every
// one of the live entity's forecasts resolves.
func TestEngineAbandonedEntitiesDoNotStarveResolution(t *testing.T) {
	const horizon, abandoned = 5, 14000
	e := newTestEngine(t, Config{Horizon: horizon})
	fc := []float64{1, 2, 3, 4, 5}
	for i := 0; i < abandoned; i++ {
		e.RecordForecast("gone"+strconv.Itoa(i), 0, fc)
	}
	if st := e.Status(); st.Pending != maxPending {
		t.Fatalf("pending = %d, want the cap %d", st.Pending, maxPending)
	}
	const base = 10000 // more than maxAge (4096) past the abandoned targets
	for i := int64(0); i < 100; i++ {
		e.Observe("live", base+i, []float64{3})
		e.RecordForecast("live", base+i, fc)
	}
	e.Observe("live", base+100, []float64{3, 3, 3, 3, 3})
	st := e.Status()
	if st.Resolved != 100*horizon || st.Pending != 0 {
		t.Fatalf("resolved %d, pending %d; want %d, 0", st.Resolved, st.Pending, 100*horizon)
	}
	if st.Expired != maxPending {
		t.Fatalf("expired = %d, want every abandoned forecast held, %d", st.Expired, maxPending)
	}
	if got, want := e.droppedPen.Value(), float64(abandoned*horizon-maxPending); got != want {
		t.Fatalf("dropped forecasts = %v, want only the abandoned overflow %v", got, want)
	}
}

// TestEngineConcurrentBurstResolvesEverything: 8 goroutines each record
// and observe 5,000 forecasts on their own entities at once. Nothing is
// queued, so nothing is lost: every step resolves and none stays
// pending.
func TestEngineConcurrentBurstResolvesEverything(t *testing.T) {
	const workers, perWorker, horizon = 8, 5000, 3
	e := newTestEngine(t, Config{Horizon: horizon})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(entity string) {
			defer wg.Done()
			fc, actuals := []float64{1, 2, 3}, []float64{2, 2, 2}
			for i := int64(0); i < perWorker; i++ {
				e.RecordForecast(entity, i, fc)
				e.Observe(entity, i+1, actuals) // targets i+1 … i+horizon
			}
		}("burst" + strconv.Itoa(w))
	}
	wg.Wait()
	st := e.Status()
	if st.Resolved != workers*perWorker*horizon || st.Pending != 0 {
		t.Fatalf("resolved %d, pending %d; want %d, 0", st.Resolved, st.Pending, workers*perWorker*horizon)
	}
}
