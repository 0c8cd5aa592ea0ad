package adapt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fsx"
	"repro/internal/train"
)

// stateFile is the crash-safe supervisor snapshot under Config.Dir.
const stateFile = "adapt-state.json"

// stateFormat is bumped on incompatible changes.
const stateFormat = 1

// persistedState is what survives a crash: the lifetime counters and the
// alarm. Lifecycle state deliberately does NOT survive — a candidate
// that was training or in shadow when the process died is discarded on
// restart (its checkpoints are pruned), because the serving model is the
// only weights a recovered process can trust.
type persistedState struct {
	Format       int    `json:"format"`
	State        string `json:"state"` // informational: state at last persist
	Swaps        uint64 `json:"swaps"`
	Rollbacks    uint64 `json:"rollbacks"`
	Retrains     uint64 `json:"retrains"`
	Failures     uint64 `json:"failures"`
	Alarm        bool   `json:"alarm"`
	LastSwapUnix int64  `json:"last_swap_unix,omitempty"`
}

// persist writes the snapshot atomically; called on every lifecycle
// transition, under the supervisor lock. Persistence errors are logged,
// never fatal — adaptation keeps running in-memory.
func (s *Supervisor) persist() {
	if s.cfg.Dir == "" {
		return
	}
	st := persistedState{
		Format:       stateFormat,
		State:        s.state,
		Swaps:        s.swaps,
		Rollbacks:    s.rollbacks,
		Retrains:     s.retrains,
		Failures:     s.failures,
		Alarm:        s.alarm,
		LastSwapUnix: s.lastSwapUnix,
	}
	err := fsx.WriteFileAtomic(filepath.Join(s.cfg.Dir, stateFile), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(st)
	})
	if err != nil {
		s.log.Warn("persisting adaptation state failed", "err", err)
	}
}

// recover restores counters from a previous run and cleans up any
// abandoned candidate artifacts. Called from New before the supervisor
// is shared. A corrupt state file is quarantined (renamed aside), not
// fatal: losing counters is better than refusing to adapt.
func (s *Supervisor) recover() error {
	if s.cfg.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	path := filepath.Join(s.cfg.Dir, stateFile)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	var st persistedState
	if uerr := json.Unmarshal(raw, &st); uerr != nil || st.Format != stateFormat {
		s.log.Warn("quarantining unreadable adaptation state", "path", path, "err", uerr)
		_ = os.Rename(path, path+".corrupt")
		return nil
	}
	s.swaps = st.Swaps
	s.rollbacks = st.Rollbacks
	s.retrains = st.Retrains
	s.failures = st.Failures
	s.alarm = st.Alarm
	s.lastSwapUnix = st.LastSwapUnix
	s.swapsC.Add(float64(st.Swaps))
	s.rollbackC.Add(float64(st.Rollbacks))
	// A candidate in flight at crash time is gone; drop its artifacts so
	// they cannot be confused with a live retrain's checkpoints.
	interrupted := st.State != StateIdle
	var pruned int
	if dir := s.cfg.FineTune.Checkpoint.Dir; dir != "" {
		pruned = train.PruneCheckpoints(dir, 0)
	}
	if interrupted || pruned > 0 {
		s.journal("recovered", map[string]any{
			"prev_state": st.State, "pruned_checkpoints": pruned,
		})
		s.log.Info("recovered adaptation state; in-flight candidate discarded",
			"prev_state", st.State, "pruned_checkpoints", pruned)
	}
	return nil
}

// ShadowStatus is the live shadow/probation scorecard.
type ShadowStatus struct {
	// Resolved forecasts scored so far and how many the verdict needs.
	Resolved int `json:"resolved"`
	Needed   int `json:"needed"`
	// LiveMAE/CandMAE are the paired MAEs over resolved pairs (shadow
	// phase); in probation CandMAE is 0 and LiveMAE tracks the new
	// generation against the pre-swap BaselineMAE.
	LiveMAE     float64 `json:"live_mae"`
	CandMAE     float64 `json:"cand_mae,omitempty"`
	BaselineMAE float64 `json:"baseline_mae,omitempty"`
}

// Status is a point-in-time snapshot of the supervisor, served by
// /debug/adapt and folded into /v1/model.
type Status struct {
	State        string        `json:"state"`
	Generation   int64         `json:"generation"`
	Entity       string        `json:"entity,omitempty"` // entity driving the current cycle
	Swaps        uint64        `json:"swaps"`
	Rollbacks    uint64        `json:"rollbacks"`
	Retrains     uint64        `json:"retrains"`
	Failures     uint64        `json:"failures"`
	Alarm        bool          `json:"alarm"`
	Retry        int           `json:"retry,omitempty"` // consecutive failures this cycle
	LastSwapUnix int64         `json:"last_swap_unix,omitempty"`
	Shadow       *ShadowStatus `json:"shadow,omitempty"`
	Probation    *ShadowStatus `json:"probation,omitempty"`
}

// buildStatus runs under the supervisor lock.
func (s *Supervisor) buildStatus() Status {
	st := Status{
		State:        s.state,
		Generation:   s.cfg.Predictor.Generation(),
		Entity:       s.entity,
		Swaps:        s.swaps,
		Rollbacks:    s.rollbacks,
		Retrains:     s.retrains,
		Failures:     s.failures,
		Alarm:        s.alarm,
		Retry:        s.retry,
		LastSwapUnix: s.lastSwapUnix,
	}
	switch s.state {
	case StateShadow:
		sh := &ShadowStatus{Resolved: s.shadowRes, Needed: s.cfg.MinShadowResolved}
		if s.shadowRes > 0 {
			sh.LiveMAE = s.liveAbs / float64(s.shadowRes)
			sh.CandMAE = s.candAbs / float64(s.shadowRes)
		}
		st.Shadow = sh
	case StateProbation:
		pb := &ShadowStatus{Resolved: s.probRes, Needed: s.cfg.ProbationResolved, BaselineMAE: s.baseMAE}
		if s.probRes > 0 {
			pb.LiveMAE = s.probAbs / float64(s.probRes)
		}
		st.Probation = pb
	}
	return st
}
