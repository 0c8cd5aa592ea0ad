package adapt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/runlog"
	"repro/internal/quality"
	"repro/internal/trace"
	"repro/internal/train"
)

// fixture is one self-contained adaptation scenario: a predictor fitted
// on the clean prefix of a mutated trace, rings filled with the mutated
// tail, and a supervisor with test-sized gates.
type fixture struct {
	p      *core.Predictor
	rings  *trace.RingStore
	sup    *Supervisor
	ser    *trace.EntitySeries
	dir    string
	reg    *obs.Registry
	logBuf *bytes.Buffer
}

const (
	fxSamples  = 600
	fxMutateAt = 300 // regime flips high at sample 300 and stays
	fxTrainLen = 280 // clean prefix the predictor is fitted on
)

// series returns [indicator][time] over [lo,hi).
func sliceSeries(e *trace.EntitySeries, lo, hi int) [][]float64 {
	out := make([][]float64, trace.NumIndicators)
	for i := range out {
		out[i] = e.Metrics[i][lo:hi]
	}
	return out
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	ser := trace.GenerateWithMutations(fxSamples, []int{fxMutateAt}, 13)
	p := core.NewPredictor(core.PredictorConfig{
		Scenario:     core.MulExp,
		Window:       12,
		Horizon:      2,
		ExpandFactor: 2,
		Epochs:       3,
		BatchSize:    8,
		Seed:         9,
		Model:        core.Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
	})
	if err := p.Fit(sliceSeries(ser, 0, fxTrainLen), 0); err != nil {
		t.Fatal(err)
	}

	rings := trace.NewBoundedRingStore(fxSamples, 0)
	var vals [trace.NumIndicators]float64
	for s := fxMutateAt; s < fxSamples; s++ {
		for i := range vals {
			vals[i] = ser.Metrics[i][s]
		}
		if !rings.IngestString("m1", s*ser.Interval, &vals) {
			t.Fatalf("ring rejected sample %d", s)
		}
	}

	f := &fixture{p: p, rings: rings, ser: ser, dir: t.TempDir(), reg: obs.NewRegistry()}
	cfg.Predictor = p
	cfg.Rings = rings
	if cfg.Dir == "" {
		cfg.Dir = f.dir
	} else {
		f.dir = cfg.Dir
	}
	cfg.Registry = f.reg
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 120
	}
	if cfg.FineTune.Epochs == 0 {
		cfg.FineTune = core.FineTuneConfig{Epochs: 2, Seed: 5}
	}
	if cfg.MinShadowResolved == 0 {
		cfg.MinShadowResolved = 8
	}
	if cfg.ProbationResolved == 0 {
		cfg.ProbationResolved = 8
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = time.Millisecond
	}
	if cfg.retryBackoff == 0 {
		cfg.retryBackoff = 5 * time.Millisecond
	}
	sup, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	f.sup = sup
	return f
}

// waitState polls Status until the supervisor reaches want. Only the
// fine-tune job runs off the caller's goroutine, so only waits on it poll.
func (f *fixture) waitState(t *testing.T, want string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := f.sup.Status()
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for state %q; at %+v", want, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// trigger fires a synthetic mutation event for m1.
func (f *fixture) trigger() {
	f.sup.OnQualityEvent(quality.Event{Kind: "mutation", Signal: "input", Entity: "m1", T: int64(fxMutateAt + 20)})
}

// feedScoring streams live forecasts + ground truth from the mutated
// regime through the mirror/actuals path until stop returns true (or the
// data runs out). distort is added to each actual (0 for honest truth).
func (f *fixture) feedScoring(t *testing.T, distort float64, stop func() bool) {
	t.Helper()
	hist := f.p.MinHistory()
	h := f.p.Cfg.Horizon
	for s := fxMutateAt + hist; s < fxSamples-h; s++ {
		if stop() {
			return
		}
		win := sliceSeries(f.ser, s-hist, s)
		live, err := f.p.ForecastFrom(win)
		if err != nil {
			t.Fatal(err)
		}
		in, err := f.p.PrepareInput(win)
		if err != nil {
			t.Fatal(err)
		}
		f.sup.MirrorForecast("m1", int64(s-1), in, live)
		actuals := make([]float64, h)
		for k := 0; k < h; k++ {
			actuals[k] = f.ser.Metrics[0][s+k] + distort
		}
		f.sup.ObserveActuals("m1", int64(s), actuals)
	}
	if !stop() {
		t.Fatal("scoring data exhausted before the supervisor reached a verdict")
	}
}

// TestAdaptPromoteAndProbationPass walks the happy path end to end:
// mutation trigger → background retrain on the mutated ring window →
// shadow scoring beats live (the live model only ever saw the clean
// regime) → atomic promotion to generation 2 → honest probation truth →
// promotion is final.
func TestAdaptPromoteAndProbationPass(t *testing.T) {
	var journal bytes.Buffer
	jr := runlog.New(&journal)
	f := newFixture(t, Config{Journal: jr})
	f.trigger()
	f.waitState(t, StateShadow)

	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateProbation })
	st := f.sup.Status()
	if st.Generation != 2 {
		t.Fatalf("generation after promotion = %d, want 2", st.Generation)
	}
	if st.Swaps != 1 || st.Rollbacks != 0 {
		t.Fatalf("swaps/rollbacks = %d/%d, want 1/0", st.Swaps, st.Rollbacks)
	}

	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateIdle })
	st = f.sup.Status()
	if st.Generation != 2 || st.Rollbacks != 0 {
		t.Fatalf("after probation: generation %d rollbacks %d, want 2/0", st.Generation, st.Rollbacks)
	}
	if st.LastSwapUnix == 0 {
		t.Fatal("LastSwapUnix not stamped")
	}

	// Journal tells the whole story (close flushes the buffered writer).
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"retrain_start", "shadow_start", "promoted", "probation_pass"} {
		if !strings.Contains(journal.String(), `"kind":"`+kind+`"`) {
			t.Errorf("journal missing %q event:\n%s", kind, journal.String())
		}
	}
	// Candidate artifacts are pruned once the cycle ends.
	if files, _ := filepath.Glob(filepath.Join(f.dir, "candidates", "ckpt-*.json")); len(files) != 0 {
		t.Fatalf("candidate checkpoints not pruned: %v", files)
	}
	// State persisted crash-safely.
	if _, err := os.Stat(filepath.Join(f.dir, stateFile)); err != nil {
		t.Fatalf("state file missing: %v", err)
	}
}

// TestAdaptRollback promotes a candidate, then feeds probation actuals
// shifted far from every forecast: the post-swap MAE blows past the
// rollback gate and the supervisor must swap the old weights back as a
// new generation.
func TestAdaptRollback(t *testing.T) {
	f := newFixture(t, Config{})
	f.trigger()
	f.waitState(t, StateShadow)
	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateProbation })

	f.feedScoring(t, 500, func() bool { return f.sup.Status().State == StateIdle })
	st := f.sup.Status()
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", st.Rollbacks)
	}
	if st.Generation != 3 {
		t.Fatalf("generation after rollback = %d, want 3 (promotion + rollback)", st.Generation)
	}
	if st.Swaps != 2 {
		t.Fatalf("swaps = %d, want 2", st.Swaps)
	}
}

// TestAdaptDiscardOnGate sets an unreachable promotion margin: the
// candidate must be quietly discarded, serving stays on generation 1,
// and no swap happens.
func TestAdaptDiscardOnGate(t *testing.T) {
	f := newFixture(t, Config{promoteMargin: 0.999})
	f.trigger()
	f.waitState(t, StateShadow)
	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateIdle })
	st := f.sup.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("discard changed serving: generation %d swaps %d", st.Generation, st.Swaps)
	}
	if st.Retrains != 1 {
		t.Fatalf("retrains = %d, want 1", st.Retrains)
	}
}

// TestAdaptRetryAndAlarm starves the supervisor of training data (empty
// rings): every retrain attempt fails, the bounded backoff walks through
// maxRetries, and the alarm raises while serving continues untouched.
func TestAdaptRetryAndAlarm(t *testing.T) {
	ser := trace.GenerateWithMutations(fxSamples, []int{fxMutateAt}, 13)
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 12, Horizon: 2, ExpandFactor: 2,
		Epochs: 2, BatchSize: 8, Seed: 9,
		Model: core.Config{Channels: []int{6, 6}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
	})
	if err := p.Fit(sliceSeries(ser, 0, fxTrainLen), 0); err != nil {
		t.Fatal(err)
	}
	sup, err := New(Config{
		Predictor: p, Rings: trace.NewBoundedRingStore(64, 0),
		maxRetries: 2, retryBackoff: time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sup.OnQualityEvent(quality.Event{Kind: "mutation", Signal: "input", Entity: "ghost", T: 100})

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := sup.Status()
		if st.Alarm && st.State == StateIdle {
			if st.Failures != 3 { // initial attempt + 2 retries
				t.Fatalf("failures = %d, want 3", st.Failures)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alarm never raised; at %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Serving is untouched throughout.
	if p.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", p.Generation())
	}
	// A fresh trigger resets the retry budget and tries again (and
	// clears the alarm on the next successful retrain — not reachable
	// here, but the trigger must at least restart the cycle).
	sup.OnQualityEvent(quality.Event{Kind: "mutation", Signal: "input", Entity: "ghost", T: 200})
	deadline = time.Now().Add(30 * time.Second)
	for {
		if st := sup.Status(); st.Failures > 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("new trigger after alarm did not restart retraining")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdaptDriftEventFilter: only drift ALARMS trigger retraining —
// warn/ok transitions must be ignored.
func TestAdaptDriftEventFilter(t *testing.T) {
	f := newFixture(t, Config{})
	f.sup.OnQualityEvent(quality.Event{Kind: "drift", Signal: "error", T: 100, State: "warn"})
	f.sup.OnQualityEvent(quality.Event{Kind: "drift", Signal: "error", T: 101, State: "ok"})
	if st := f.sup.Status(); st.State != StateIdle || st.Retrains != 0 {
		t.Fatalf("non-alarm drift events triggered retraining: %+v", st)
	}
	f.sup.OnQualityEvent(quality.Event{Kind: "drift", Signal: "error", T: 102, State: "alarm"})
	f.waitState(t, StateShadow) // alarm does trigger (rings have data)
}

// TestAdaptCooldown: a second trigger inside the cooldown window is
// ignored.
func TestAdaptCooldown(t *testing.T) {
	now := time.Unix(1000, 0)
	f := newFixture(t, Config{
		Cooldown: time.Hour,
		now:      func() time.Time { return now },
	})
	f.trigger()
	f.waitState(t, StateShadow)
	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateProbation })
	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateIdle })
	st := f.sup.Status()
	if st.Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", st.Swaps)
	}
	f.trigger() // inside the 1h cooldown — must be ignored
	if st := f.sup.Status(); st.State != StateIdle || st.Retrains != 1 {
		t.Fatalf("trigger inside cooldown not ignored: %+v", st)
	}
}

// TestAdaptRecovery simulates a crash: a supervisor that swapped once is
// closed, a stray candidate checkpoint is planted, and a new supervisor
// over the same dir must restore the counters, prune the orphan, and
// journal the recovery.
func TestAdaptRecovery(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, Config{Dir: dir})
	f.trigger()
	f.waitState(t, StateShadow)
	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateProbation })
	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateIdle })
	f.sup.Close()

	// Plant an orphaned candidate checkpoint, as a SIGKILL mid-retrain
	// would leave behind.
	candDir := filepath.Join(dir, "candidates")
	if err := os.MkdirAll(candDir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(candDir, "ckpt-000001.json")
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	var journal bytes.Buffer
	jr := runlog.New(&journal)
	sup2, err := New(Config{
		Predictor: f.p, Rings: f.rings, Dir: dir,
		Registry: obs.NewRegistry(), Journal: jr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Close()
	st := sup2.Status()
	if st.State != StateIdle {
		t.Fatalf("recovered state = %q, want idle", st.State)
	}
	if st.Swaps != 1 || st.Retrains != 1 {
		t.Fatalf("recovered counters swaps/retrains = %d/%d, want 1/1", st.Swaps, st.Retrains)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned candidate checkpoint not pruned on recovery")
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(journal.String(), `"kind":"recovered"`) {
		t.Errorf("journal missing recovered event:\n%s", journal.String())
	}
}

// TestAdaptCorruptStateQuarantined: garbage in adapt-state.json must not
// prevent startup — it is renamed aside and counters start fresh.
func TestAdaptCorruptStateQuarantined(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, Config{Dir: dir})
	if st := f.sup.Status(); st.Swaps != 0 || st.State != StateIdle {
		t.Fatalf("corrupt state leaked into supervisor: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, stateFile+".corrupt")); err != nil {
		t.Fatalf("corrupt state not quarantined: %v", err)
	}
}

// TestAdaptMirrorCheapWhenIdle: while the supervisor is idle the mirror
// path must neither take the supervisor lock nor record anything (the
// atomic gate keeps the serve path free).
func TestAdaptMirrorCheapWhenIdle(t *testing.T) {
	f := newFixture(t, Config{})
	hist := f.p.MinHistory()
	win := sliceSeries(f.ser, fxMutateAt, fxMutateAt+hist)
	in, err := f.p.PrepareInput(win)
	if err != nil {
		t.Fatal(err)
	}
	// With the lock held here, a call that took it could not return.
	f.sup.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			f.sup.MirrorForecast("m1", int64(i), in, []float64{1, 2})
			f.sup.ObserveActuals("m1", int64(i), []float64{1})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("idle mirroring waited on the supervisor lock")
	}
	f.sup.mu.Unlock()
	<-done
	if st := f.sup.Status(); st.State != StateIdle {
		t.Fatalf("idle mirroring did work: %+v", st)
	}
	if got := f.sup.pendingN; got != 0 {
		t.Fatalf("idle mirroring buffered %d pairs", got)
	}
}

// TestCloseAbandonsInflightRetrain: Close returns while the fine-tune job
// is still running, and the job's late result changes nothing — no state,
// no counter, no adapt-state.json write, no swap. A pending retry timer
// is stopped by Close.
func TestCloseAbandonsInflightRetrain(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	f := newFixture(t, Config{})
	f.sup.fineTune = func(p *core.Predictor, _ [][]float64, _ core.FineTuneConfig) (*core.Model, train.Dataset, *train.History, error) {
		started <- struct{}{}
		<-release
		return p.Model().Clone(), train.Dataset{}, nil, nil
	}
	f.trigger()
	select {
	case <-started:
	case <-time.After(60 * time.Second):
		t.Fatal("fine-tune job never started")
	}
	statePath := filepath.Join(f.dir, stateFile)
	stateBefore, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	infoBefore, err := os.Stat(statePath)
	if err != nil {
		t.Fatal(err)
	}

	// A Close that waited for the job would return only once this timer
	// released it.
	watchdog := time.AfterFunc(10*time.Second, func() { close(release) })
	f.sup.Close()
	if !watchdog.Stop() {
		t.Fatal("Close waited for the in-flight fine-tune")
	}

	// Let the job finish and wait for its goroutine to exit.
	running := runtime.NumGoroutine()
	close(release)
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() >= running; {
		if time.Now().After(deadline) {
			t.Fatal("fine-tune job goroutine never exited")
		}
		time.Sleep(time.Millisecond)
	}
	f.sup.mu.Lock()
	state, retrains, inf := f.sup.state, f.sup.retrains, f.sup.inf
	f.sup.mu.Unlock()
	if state != StateTraining || retrains != 1 || inf != nil || f.sup.mirroring.Load() {
		t.Fatalf("late result changed state: %s, retrains %d, candidate %v, mirroring %v",
			state, retrains, inf != nil, f.sup.mirroring.Load())
	}
	if ok, ko, shadow := f.sup.retrainOK.Value(), f.sup.retrainKO.Value(), f.sup.shadowC.Value(); ok+ko+shadow != 0 {
		t.Fatalf("late result moved counters: ok %v failed %v shadow %v", ok, ko, shadow)
	}
	stateAfter, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	infoAfter, err := os.Stat(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBefore, stateAfter) || !infoAfter.ModTime().Equal(infoBefore.ModTime()) {
		t.Fatalf("late result rewrote %s:\n%s\nthen\n%s", stateFile, stateBefore, stateAfter)
	}
	if g := f.p.Generation(); g != 1 {
		t.Fatalf("generation = %d after an abandoned retrain, want 1", g)
	}

	// A failed fine-tune arms the retry timer; Close must stop it.
	g := newFixture(t, Config{retryBackoff: time.Hour})
	g.sup.fineTune = func(*core.Predictor, [][]float64, core.FineTuneConfig) (*core.Model, train.Dataset, *train.History, error) {
		return nil, train.Dataset{}, nil, errors.New("injected fine-tune failure")
	}
	g.sup.OnQualityEvent(quality.Event{Kind: "mutation", Signal: "input", Entity: "m1", T: int64(fxMutateAt + 20)})
	for deadline := time.Now().Add(60 * time.Second); g.sup.Status().Failures == 0; {
		if time.Now().After(deadline) {
			t.Fatal("fine-tune failure never reported")
		}
		time.Sleep(time.Millisecond)
	}
	g.sup.Close()
	g.sup.mu.Lock()
	timer := g.sup.retryTimer
	g.sup.mu.Unlock()
	if timer == nil || timer.Stop() {
		t.Fatal("Close left the retry timer pending")
	}
}

// TestAdaptConcurrentScoring: in shadow, mirrored forecasts and actuals
// arrive from several request goroutines at once, each candidate forward
// outside the supervisor lock, and the cycle still reaches its verdict:
// the candidate, trained on the mutated regime, is promoted.
func TestAdaptConcurrentScoring(t *testing.T) {
	f := newFixture(t, Config{})
	f.trigger()
	f.waitState(t, StateShadow)
	hist, h := f.p.MinHistory(), f.p.Cfg.Horizon
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(entity string) {
			defer wg.Done()
			for s := fxMutateAt + hist; s < fxSamples-h && f.sup.Status().State == StateShadow; s++ {
				in, err := f.p.PrepareInput(sliceSeries(f.ser, s-hist, s))
				if err != nil {
					t.Error(err)
					return
				}
				live, _, err := f.p.ForecastBatchGen([]*core.PreparedInput{in})
				if err != nil {
					t.Error(err)
					return
				}
				f.sup.MirrorForecast(entity, int64(s-1), in, live[0])
				f.sup.ObserveActuals(entity, int64(s), f.ser.Metrics[0][s:s+h])
			}
		}("m" + strconv.Itoa(g))
	}
	wg.Wait()
	// Stragglers may finish probation too; either way one promotion.
	st := f.sup.Status()
	if st.State != StateProbation && st.State != StateIdle || st.Swaps != 1 || st.Rollbacks != 0 || st.Generation != 2 {
		t.Fatalf("concurrent scoring ended at %+v, want one promotion to generation 2", st)
	}
}
