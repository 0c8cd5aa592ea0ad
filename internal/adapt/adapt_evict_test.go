package adapt

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/trace"
)

// TestAdaptShadowSurvivesEntityEviction pins the sharded-fleet hazard:
// the entity a shadow run was triggered on is LRU-evicted from a
// bounded ring store while the candidate is still being scored. The
// supervisor must not panic or wedge — scoring runs entirely off
// mirrored events, so the in-flight cycle concludes normally; only the
// NEXT retrain notices the data is gone, walks its bounded retries, and
// raises the alarm while serving stays untouched. Close() afterwards
// must leave no goroutine behind.
func TestAdaptShadowSurvivesEntityEviction(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ser := trace.GenerateWithMutations(fxSamples, []int{fxMutateAt}, 13)
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 12, Horizon: 2, ExpandFactor: 2,
		Epochs: 3, BatchSize: 8, Seed: 9,
		Model: core.Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
	})
	if err := p.Fit(sliceSeries(ser, 0, fxTrainLen), 0); err != nil {
		t.Fatal(err)
	}

	// Capacity for exactly 2 entities: m1 plus one newcomer fits, the
	// second newcomer evicts m1 (the LRU entry).
	rings := trace.NewBoundedRingStore(fxSamples, 2)
	var vals [trace.NumIndicators]float64
	for s := fxMutateAt; s < fxSamples; s++ {
		for i := range vals {
			vals[i] = ser.Metrics[i][s]
		}
		rings.IngestString("m1", s*ser.Interval, &vals)
	}

	sup, err := New(Config{
		Predictor:         p,
		Rings:             rings,
		MinSamples:        120,
		FineTune:          core.FineTuneConfig{Epochs: 2, Seed: 5},
		MinShadowResolved: 8,
		// Unreachable gate: the cycle must end in a clean discard, so the
		// test never depends on candidate quality.
		promoteMargin: 0.999,
		maxRetries:    2,
		retryBackoff:  time.Millisecond,
		Cooldown:      time.Millisecond,
		Registry:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	f := &fixture{p: p, sup: sup, ser: ser}

	sup.OnQualityEvent(quality.Event{Kind: "mutation", Signal: "input", Entity: "m1", T: int64(fxMutateAt + 20)})
	f.waitState(t, StateShadow)

	// Mid-shadow: fleet churn evicts the triggering entity.
	for _, id := range []string{"noise1", "noise2"} {
		for s := 0; s < 8; s++ {
			rings.IngestString(id, (s+1)*10, &vals)
		}
	}
	if rings.SampleCount("m1") != 0 {
		t.Fatal("m1 not evicted; fixture broken")
	}
	if ev := rings.Evicted(); ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}

	// Scoring still runs purely off mirrored events — the evicted entity
	// resolves to a verdict as if nothing happened.
	f.feedScoring(t, 0, func() bool { return sup.Status().State == StateIdle })
	st := sup.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("discard after eviction changed serving: %+v", st)
	}
	if st.Retrains != 1 {
		t.Fatalf("retrains = %d, want 1", st.Retrains)
	}

	// The NEXT cycle is where the eviction bites: m1's ring is gone and
	// the churn entities are far too shallow to retrain on, so gather
	// fails every attempt, the bounded backoff runs out, and the alarm
	// raises — an abort, not a panic or a wedge.
	time.Sleep(2 * time.Millisecond) // clear the 1ms cooldown
	sup.OnQualityEvent(quality.Event{Kind: "mutation", Signal: "input", Entity: "m1", T: int64(fxSamples)})
	deadline := time.Now().Add(30 * time.Second)
	for {
		st = sup.Status()
		if st.Alarm && st.State == StateIdle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alarm never raised after eviction starved retraining; at %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Failures != 3 { // initial attempt + maxRetries
		t.Fatalf("failures = %d, want 3", st.Failures)
	}
	if p.Generation() != 1 {
		t.Fatalf("generation = %d, want 1 (serving untouched)", p.Generation())
	}

	// Teardown leaks nothing: Close is idempotent, and the goroutine
	// count settles back to the pre-supervisor baseline.
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sup.Status(); got.State != "" {
		t.Fatalf("status after close = %+v, want zero", got)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdaptShadowSurvivesAbandonedEntities fills the mirror store with
// forecasts no actual will ever resolve: 2,100 one-shot entities mirror
// one forecast each in shadow, 4,200 steps against a store of 4,096. The
// oldest of them must give way to m1's new pairs, so honest scoring on
// m1 still reaches a verdict; a store that refuses new pairs once full
// leaves the candidate in shadow for good.
func TestAdaptShadowSurvivesAbandonedEntities(t *testing.T) {
	f := newFixture(t, Config{})
	f.trigger()
	f.waitState(t, StateShadow)

	win := sliceSeries(f.ser, fxMutateAt, fxMutateAt+f.p.MinHistory())
	live, err := f.p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	in, err := f.p.PrepareInput(win)
	if err != nil {
		t.Fatal(err)
	}
	const abandoned = 2100
	if abandoned*len(live) <= maxPending {
		t.Fatalf("%d one-shot entities of horizon %d do not fill a store of %d", abandoned, len(live), maxPending)
	}
	for i := range abandoned {
		f.sup.MirrorForecast("gone-"+strconv.Itoa(i), int64(i), in, live)
	}
	if st := f.sup.Status(); st.State != StateShadow {
		t.Fatalf("abandoned forecasts moved the supervisor to %q", st.State)
	}

	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateProbation })
}
