// Package adapt closes RPTCN's high-dynamic loop: when the online
// quality engine (internal/quality) detects a mutation point or drift
// escalation, the supervisor fine-tunes a CANDIDATE model in the
// background on recent windows from the ingestion ring store, scores it
// against live traffic in shadow (mirrored forecasts, never returned to
// clients), and atomically hot-swaps it into serving only when the
// promotion gates pass. A probation window after every swap watches the
// new generation's live error and rolls back to the previous weights if
// quality regresses — adaptation can only ever be a no-op or an
// improvement from the caller's perspective, never a new failure mode.
//
// Robustness contract:
//   - The request path never waits on a retrain: while idle a mirrored
//     forecast or actual costs one atomic load, and the swap itself
//     publishes a new snapshot that serving picks up on its next batch,
//     without a lock.
//   - One retrain in flight, ever: the fine-tune is the supervisor's one
//     background job. Failures retry with bounded exponential backoff;
//     exhausting the budget raises the rptcn_adapt_alarm gauge and
//     serving continues on the old weights.
//   - Cooldown between swaps bounds churn under detector flapping.
//   - Counters and lifecycle state persist crash-safely under the run
//     dir (internal/fsx); a restart discards any in-flight candidate
//     (its artifacts are pruned) and resumes from idle.
//
// The supervisor is a state machine stepped under one mutex by its
// callers (quality events, mirrored forecasts, actuals) and by the
// fine-tune job when it finishes; it is fully deterministic given the
// same sequence of steps. Candidate training reuses
// train.Fit's crash-safe checkpoints, divergence guards, and
// deterministic RNG streams, so a retrain is reproducible bit for bit.
package adapt

import (
	"errors"
	"log/slog"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/runlog"
	"repro/internal/quality"
	"repro/internal/trace"
	"repro/internal/train"
)

// Config configures a Supervisor. Predictor and Rings are required.
type Config struct {
	// Predictor is the serving predictor to adapt.
	Predictor *core.Predictor
	// Rings is the recent-history source candidates train on — a plain
	// *trace.RingStore, or the sharded router's delegating view.
	Rings trace.RingSource
	// Dir, when set, holds crash-safe supervisor state
	// (adapt-state.json) and candidate training checkpoints
	// (candidates/). Empty runs fully in-memory.
	Dir string
	// MinSamples is the fewest ring samples an entity needs before its
	// history is worth retraining on (see EffectiveMinSamples).
	MinSamples int
	// FineTune tunes candidate training (see core.FineTuneConfig); the
	// checkpoint dir is pointed at Dir/candidates when Dir is set.
	FineTune core.FineTuneConfig
	// MinShadowResolved is how many mirrored forecasts must resolve
	// against ground truth before the promotion verdict (default 32).
	MinShadowResolved int
	// ProbationResolved is how many post-swap live pairs decide the
	// rollback verdict (default MinShadowResolved).
	ProbationResolved int
	// Cooldown is the minimum gap between swaps; triggers inside it are
	// ignored (default 60s).
	Cooldown time.Duration
	// Registry receives rptcn_adapt_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Journal, when set, receives runlog.TypeAdapt lifecycle events.
	Journal *runlog.Run

	// Tests shorten these; zero means the default.
	promoteMargin float64          // see decideShadow (0.02)
	maxRetries    int              // retrain failures before the alarm (3)
	retryBackoff  time.Duration    // first retry delay, doubling per failure (2s)
	now           func() time.Time // the clock (time.Now)
}

// EffectiveMinSamples is MinSamples, or its default when unset: 4× the
// predictor's MinHistory, so the supervised split has real windows on
// each side.
func (c *Config) EffectiveMinSamples() int {
	if c.MinSamples > 0 {
		return c.MinSamples
	}
	return 4 * c.Predictor.MinHistory()
}

const (
	rollbackFactor = 1.10 // probation MAE over the pre-swap live MAE that rolls back
	maxPending     = 4096 // mirrored forecast steps awaiting ground truth
)

func (c *Config) fillDefaults() error {
	if c.Predictor == nil {
		return errors.New("adapt: Config.Predictor is required")
	}
	if c.Rings == nil {
		return errors.New("adapt: Config.Rings is required")
	}
	c.MinSamples = c.EffectiveMinSamples()
	if c.MinShadowResolved <= 0 {
		c.MinShadowResolved = 32
	}
	if c.promoteMargin == 0 {
		c.promoteMargin = 0.02
	}
	if c.ProbationResolved <= 0 {
		c.ProbationResolved = c.MinShadowResolved
	}
	if c.maxRetries <= 0 {
		c.maxRetries = 3
	}
	if c.retryBackoff <= 0 {
		c.retryBackoff = 2 * time.Second
	}
	if c.Cooldown == 0 {
		c.Cooldown = 60 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.Dir != "" && c.FineTune.Checkpoint.Dir == "" {
		c.FineTune.Checkpoint.Dir = filepath.Join(c.Dir, "candidates")
	}
	return nil
}

// Lifecycle states.
const (
	StateIdle      = "idle"
	StateTraining  = "training"
	StateShadow    = "shadow"
	StateProbation = "probation"
)

func stateCode(s string) float64 {
	switch s {
	case StateTraining:
		return 1
	case StateShadow:
		return 2
	case StateProbation:
		return 3
	}
	return 0
}

// shadowPair is one mirrored horizon step awaiting ground truth.
type shadowPair struct {
	live, cand float64
	hasCand    bool
}

// Supervisor is the drift-adaptive retraining loop. All exported
// methods are safe for concurrent use and never wait on a retrain.
type Supervisor struct {
	cfg Config
	log *slog.Logger
	// fineTune is the one background job: Predictor.FineTune, or a
	// stand-in a test controls.
	fineTune func(*core.Predictor, [][]float64, core.FineTuneConfig) (*core.Model, train.Dataset, *train.History, error)

	// mirroring is true while the supervisor wants mirrored forecasts
	// and actuals (shadow or probation): the serve path checks it before
	// taking the lock, so adaptation costs one atomic load while idle.
	mirroring atomic.Bool

	// Metrics.
	stateG    *obs.Gauge
	genG      *obs.Gauge
	alarmG    *obs.Gauge
	swapsC    *obs.Counter
	rollbackC *obs.Counter
	retrainOK *obs.Counter
	retrainKO *obs.Counter
	shadowC   *obs.Counter

	// infMu serializes shadow forwards on inf, which run outside mu.
	infMu sync.Mutex

	// State, guarded by mu.
	mu           sync.Mutex
	closed       bool
	state        string
	alarm        bool
	swaps        uint64
	rollbacks    uint64
	retrains     uint64
	failures     uint64
	lastSwapUnix int64
	cooldownEnd  time.Time
	retry        int
	retryTimer   *time.Timer

	// Candidate under evaluation (shadow) and rollback capture
	// (probation).
	entity    string
	candModel *core.Model
	candEval  train.Dataset
	inf       *core.ShardInferencer // pinned to candModel; set only in shadow
	pending   map[string]map[int64][]shadowPair
	pendingN  int
	shadowRes int
	liveAbs   float64
	candAbs   float64
	prevModel *core.Model
	prevEval  train.Dataset
	probRes   int
	probAbs   float64
	baseMAE   float64 // pre-swap live MAE, the probation baseline
}

// New returns an idle supervisor; it starts no goroutine. Any
// candidate left behind by a crash is discarded: its checkpoints are
// pruned and the persisted counters resume from disk with state idle —
// the serving model is authoritative, a half-trained candidate never is.
func New(cfg Config) (*Supervisor, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	s := &Supervisor{
		cfg:      cfg,
		log:      obs.Logger("adapt"),
		fineTune: (*core.Predictor).FineTune,
		state:    StateIdle,
		pending:  map[string]map[int64][]shadowPair{},
		stateG: reg.Gauge("rptcn_adapt_state",
			"Adaptation state: 0 idle, 1 training, 2 shadow, 3 probation."),
		genG: reg.Gauge("rptcn_adapt_generation",
			"Serving model generation (1 = original fit)."),
		alarmG: reg.Gauge("rptcn_adapt_alarm",
			"1 while retraining has exhausted its retry budget; serving continues on old weights."),
		swapsC: reg.Counter("rptcn_adapt_swaps_total",
			"Model hot-swaps performed (promotions and rollbacks)."),
		rollbackC: reg.Counter("rptcn_adapt_rollbacks_total",
			"Post-swap probation rollbacks to the previous generation."),
		retrainOK: reg.Counter("rptcn_adapt_retrains_total",
			"Background retrains, by result.", obs.L("result", "ok")),
		retrainKO: reg.Counter("rptcn_adapt_retrains_total",
			"Background retrains, by result.", obs.L("result", "failed")),
		shadowC: reg.Counter("rptcn_adapt_shadow_forecasts_total",
			"Candidate forecasts computed in shadow (never served)."),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.genG.Set(float64(cfg.Predictor.Generation()))
	s.stateG.Set(stateCode(s.state))
	if s.alarm {
		s.alarmG.Set(1)
	}
	return s, nil
}

// OnQualityEvent is the quality.Config.Events subscription point. Only
// escalations trigger retraining — every mutation fire, and drift
// reaching alarm; a drift recovery ("ok") is not a reason to retrain —
// and only while idle and past the post-swap cooldown. A trigger reads
// the ring windows on the calling goroutine, so no ring lock may be held
// across a quality engine call.
func (s *Supervisor) OnQualityEvent(ev quality.Event) {
	if ev.Kind == "drift" && ev.State != "alarm" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.state != StateIdle {
		return
	}
	if s.cfg.now().Before(s.cooldownEnd) {
		s.journal("trigger_ignored", map[string]any{"reason": "cooldown", "entity": ev.Entity, "t": ev.T})
		return
	}
	s.retry = 0
	s.startRetrain(ev.Entity)
}

// MirrorForecast mirrors one served forecast (with its prepared input)
// for shadow/probation scoring. Cheap no-op unless the supervisor is
// actively scoring; in must be immutable (core.PreparedInput is). In
// shadow the candidate runs the same prepared input, outside the lock;
// its pairs count only if that candidate is still the one in shadow.
func (s *Supervisor) MirrorForecast(entity string, t int64, in *core.PreparedInput, live []float64) {
	if !s.mirroring.Load() || in == nil || len(live) == 0 {
		return
	}
	s.mu.Lock()
	inf := s.inf
	s.mu.Unlock()
	var cand []float64
	if inf != nil {
		s.infMu.Lock()
		out, _, err := inf.ForecastBatchGen([]*core.PreparedInput{in})
		s.infMu.Unlock()
		if err != nil {
			s.log.Warn("shadow forecast failed", "err", err)
			return
		}
		cand = out[0]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.inf == inf {
		s.onMirror(entity, t, live, cand)
	}
}

// ObserveActuals feeds ground truth: actuals[i] is the target
// indicator's value at sample time t0+i. Cheap no-op unless scoring.
func (s *Supervisor) ObserveActuals(entity string, t0 int64, actuals []float64) {
	if !s.mirroring.Load() || len(actuals) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.onActuals(entity, t0, actuals)
	}
}

// Status returns a consistent snapshot. After Close it returns the zero
// status.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Status{}
	}
	return s.buildStatus()
}

// Close stops the supervisor: later calls are no-ops, a pending retry is
// cancelled, and a fine-tune still in flight is abandoned — Close does
// not wait for it, and its result is discarded. Idempotent.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.mirroring.Store(false)
	if s.retryTimer != nil {
		s.retryTimer.Stop()
	}
	return nil
}

// startRetrain gathers training windows and starts the (single)
// fine-tune job. Insufficient data counts as a failure and walks the
// same bounded-retry backoff — rings may simply need to fill up.
func (s *Supervisor) startRetrain(entity string) {
	entity, series := s.gather(entity)
	if series == nil {
		s.onTrainDone(entity, nil, train.Dataset{}, errors.New("adapt: no entity with enough ring samples to retrain on"))
		return
	}
	s.entity = entity
	s.retrains++
	s.setState(StateTraining)
	s.journal("retrain_start", map[string]any{
		"entity": entity, "samples": len(series[0]), "generation": s.cfg.Predictor.Generation(),
		"attempt": s.retry + 1,
	})
	s.log.Info("retraining candidate", "entity", entity,
		"samples", len(series[0]), "attempt", s.retry+1)
	p, ft, job := s.cfg.Predictor, s.cfg.FineTune, s.fineTune
	go func() {
		cand, eval, _, err := job(p, series, ft)
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed {
			s.onTrainDone(entity, cand, eval, err)
		}
	}()
}

// gather snapshots training history: the triggering entity's ring if it
// is deep enough, else the deepest ring in the store.
func (s *Supervisor) gather(entity string) (string, [][]float64) {
	snap := func(id string) [][]float64 {
		var out [][]float64
		s.cfg.Rings.WithWindow(id, 1<<30, func(win [][]float64, _, _ int) {
			if len(win) == 0 || len(win[0]) < s.cfg.MinSamples {
				return
			}
			out = make([][]float64, len(win))
			for i, row := range win {
				out[i] = append([]float64(nil), row...)
			}
		})
		return out
	}
	if entity != "" {
		if ser := snap(entity); ser != nil {
			return entity, ser
		}
	}
	best, bestN := "", 0
	for _, id := range s.cfg.Rings.Entities() {
		if n := s.cfg.Rings.SampleCount(id); n > bestN {
			best, bestN = id, n
		}
	}
	if best != "" && best != entity {
		if ser := snap(best); ser != nil {
			return best, ser
		}
	}
	return entity, nil
}

// onTrainDone moves a finished retrain into shadow, or schedules a
// bounded-backoff retry, or raises the alarm.
func (s *Supervisor) onTrainDone(entity string, cand *core.Model, eval train.Dataset, err error) {
	if err != nil {
		s.failures++
		s.retrainKO.Inc()
		s.journal("retrain_failed", map[string]any{
			"entity": entity, "attempt": s.retry + 1, "err": err.Error(),
		})
		s.log.Warn("candidate retrain failed", "entity", entity,
			"attempt", s.retry+1, "err", err)
		s.retry++
		if s.retry > s.cfg.maxRetries {
			s.alarm = true
			s.alarmG.Set(1)
			s.journal("alarm", map[string]any{"reason": "retrain retries exhausted", "attempts": s.retry})
			s.log.Error("adaptation alarm: retrain retries exhausted; serving continues on current weights",
				"attempts", s.retry)
			s.toIdle()
			return
		}
		// Exponential backoff: retryBackoff × 2^(attempt−1).
		delay := s.cfg.retryBackoff << (s.retry - 1)
		s.setState(StateTraining)
		s.entity = entity
		s.retryTimer = time.AfterFunc(delay, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if !s.closed {
				s.startRetrain(s.entity)
			}
		})
		return
	}
	s.retrainOK.Inc()
	s.candModel = cand
	s.candEval = eval
	s.entity = entity
	s.inf = s.cfg.Predictor.NewCandidateInferencer(cand)
	s.resetScoring()
	s.setState(StateShadow)
	s.mirroring.Store(true)
	s.journal("shadow_start", map[string]any{
		"entity": entity, "need_resolved": s.cfg.MinShadowResolved,
	})
	s.log.Info("candidate in shadow", "entity", entity,
		"need_resolved", s.cfg.MinShadowResolved)
}

func (s *Supervisor) resetScoring() {
	s.pending = map[string]map[int64][]shadowPair{}
	s.pendingN = 0
	s.shadowRes = 0
	s.liveAbs, s.candAbs = 0, 0
	s.probRes = 0
	s.probAbs = 0
}

// onMirror records one served forecast: in shadow paired with the
// candidate's forecast of the same input; in probation only the live
// (new-generation) forecast is tracked against ground truth.
func (s *Supervisor) onMirror(entity string, t int64, live, cand []float64) {
	if s.state != StateShadow && s.state != StateProbation {
		return
	}
	if s.state == StateShadow {
		s.shadowC.Inc()
		for _, v := range cand {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// Non-finite shadow output is an instant disqualification.
				s.journal("discarded", map[string]any{"entity": s.entity, "reason": "non-finite shadow forecast"})
				s.log.Warn("candidate discarded: non-finite shadow forecast")
				s.toIdle()
				return
			}
		}
	}
	byT := s.pending[entity]
	if byT == nil {
		byT = map[int64][]shadowPair{}
		s.pending[entity] = byT
	}
	for k, lv := range live {
		if s.pendingN >= maxPending {
			break
		}
		pair := shadowPair{live: lv}
		if cand != nil && k < len(cand) {
			pair.cand, pair.hasCand = cand[k], true
		}
		tt := t + int64(k) + 1
		byT[tt] = append(byT[tt], pair)
		s.pendingN++
	}
}

// onActuals resolves mirrored pairs against ground truth and applies
// the shadow/probation verdicts when enough pairs have resolved.
func (s *Supervisor) onActuals(entity string, t0 int64, actuals []float64) {
	if s.state != StateShadow && s.state != StateProbation {
		return
	}
	byT := s.pending[entity]
	if byT == nil {
		return
	}
	for i, actual := range actuals {
		if math.IsNaN(actual) || math.IsInf(actual, 0) {
			continue
		}
		tt := t0 + int64(i)
		pairs, ok := byT[tt]
		if !ok {
			continue
		}
		delete(byT, tt)
		s.pendingN -= len(pairs)
		for _, pr := range pairs {
			switch s.state {
			case StateShadow:
				if !pr.hasCand {
					continue
				}
				s.liveAbs += math.Abs(pr.live - actual)
				s.candAbs += math.Abs(pr.cand - actual)
				s.shadowRes++
			case StateProbation:
				s.probAbs += math.Abs(pr.live - actual)
				s.probRes++
			}
		}
	}
	switch {
	case s.state == StateShadow && s.shadowRes >= s.cfg.MinShadowResolved:
		s.decideShadow()
	case s.state == StateProbation && s.probRes >= s.cfg.ProbationResolved:
		s.decideProbation()
	}
}

// decideShadow applies the promotion gate — the candidate's shadow MAE
// must beat the live MAE by promoteMargin, relative — and either
// hot-swaps the candidate into serving (entering probation) or discards
// it.
func (s *Supervisor) decideShadow() {
	liveMAE := s.liveAbs / float64(s.shadowRes)
	candMAE := s.candAbs / float64(s.shadowRes)
	gate := liveMAE * (1 - s.cfg.promoteMargin)
	if candMAE > gate {
		s.journal("discarded", map[string]any{
			"entity": s.entity, "live_mae": liveMAE, "cand_mae": candMAE,
			"resolved": s.shadowRes, "reason": "promotion gate not met",
		})
		s.log.Info("candidate discarded: promotion gate not met",
			"live_mae", liveMAE, "cand_mae", candMAE, "resolved", s.shadowRes)
		s.toIdle()
		return
	}
	prev, prevEval, gen, err := s.cfg.Predictor.SwapModel(s.candModel, s.candEval)
	if err != nil {
		s.journal("discarded", map[string]any{"entity": s.entity, "reason": "swap failed: " + err.Error()})
		s.log.Error("hot-swap failed; candidate discarded", "err", err)
		s.toIdle()
		return
	}
	s.swaps++
	s.swapsC.Inc()
	s.lastSwapUnix = s.cfg.now().Unix()
	s.cooldownEnd = s.cfg.now().Add(s.cfg.Cooldown)
	s.genG.Set(float64(gen))
	s.alarm = false
	s.alarmG.Set(0)
	s.prevModel, s.prevEval = prev, prevEval
	s.baseMAE = liveMAE
	s.resetScoring()
	s.candModel, s.inf = nil, nil
	s.setState(StateProbation)
	s.journal("promoted", map[string]any{
		"entity": s.entity, "generation": gen,
		"live_mae": liveMAE, "cand_mae": candMAE,
	})
	s.log.Info("candidate promoted", "generation", gen,
		"live_mae", liveMAE, "cand_mae", candMAE, "probation_need", s.cfg.ProbationResolved)
}

// decideProbation keeps the new generation or rolls back to the old.
func (s *Supervisor) decideProbation() {
	probMAE := s.probAbs / float64(s.probRes)
	if probMAE <= s.baseMAE*rollbackFactor {
		s.journal("probation_pass", map[string]any{
			"generation": s.cfg.Predictor.Generation(), "mae": probMAE, "baseline_mae": s.baseMAE,
		})
		s.log.Info("probation passed; promotion is final",
			"mae", probMAE, "baseline_mae", s.baseMAE)
		s.toIdle()
		return
	}
	prev, prevEval := s.prevModel, s.prevEval
	_, _, gen, err := s.cfg.Predictor.SwapModel(prev, prevEval)
	if err != nil {
		// Rolling back can only fail if serving was lost entirely;
		// alarm and keep what we have.
		s.alarm = true
		s.alarmG.Set(1)
		s.journal("alarm", map[string]any{"reason": "rollback failed: " + err.Error()})
		s.log.Error("rollback failed", "err", err)
		s.toIdle()
		return
	}
	s.rollbacks++
	s.rollbackC.Inc()
	s.swaps++
	s.swapsC.Inc()
	s.lastSwapUnix = s.cfg.now().Unix()
	s.cooldownEnd = s.cfg.now().Add(s.cfg.Cooldown)
	s.genG.Set(float64(gen))
	s.journal("rollback", map[string]any{
		"generation": gen, "mae": probMAE, "baseline_mae": s.baseMAE,
	})
	s.log.Warn("post-swap quality regressed; rolled back to previous weights",
		"generation", gen, "mae", probMAE, "baseline_mae", s.baseMAE)
	s.toIdle()
}

// toIdle clears candidate state, prunes candidate artifacts, and
// persists.
func (s *Supervisor) toIdle() {
	s.candModel, s.inf = nil, nil
	s.candEval = train.Dataset{}
	s.prevModel, s.prevEval = nil, train.Dataset{}
	s.resetScoring()
	s.mirroring.Store(false)
	if dir := s.cfg.FineTune.Checkpoint.Dir; dir != "" {
		train.PruneCheckpoints(dir, 0)
	}
	s.setState(StateIdle)
}

func (s *Supervisor) setState(state string) {
	s.state = state
	s.stateG.Set(stateCode(state))
	s.persist()
}

func (s *Supervisor) journal(kind string, data map[string]any) {
	if s.cfg.Journal == nil {
		return
	}
	d := map[string]any{"kind": kind}
	for k, v := range data {
		d[k] = v
	}
	s.cfg.Journal.Log(runlog.TypeAdapt, d)
}
