package server

import (
	"net/http"

	"repro/internal/adapt"
)

// Online adaptation wiring: WithAdaptation hands the server an
// adapt.Config; New fills in the serving predictor, the ingestion ring
// store (the retraining data source), the shared registry, and the run
// journal, then subscribes the supervisor to the quality engine's
// drift/mutation events. From there the loop is automatic:
//
//	quality event → background fine-tune on recent ring windows →
//	shadow-score against live traffic → atomic hot-swap when the
//	candidate wins → probation → rollback if quality regresses.
//
// While the supervisor is idle the request path pays two atomic loads:
// the mirror gate in MirrorForecast/ObserveActuals, and the generation
// read that already rides the batched forward. In shadow a mirrored POST
// also pays one candidate forward, and in shadow or probation the
// supervisor's lock to record it. The supervisor trains on the ingestion
// rings, the only history it has, so they grow to hold a full training
// set (see ringCapacity).

// WithAdaptation enables drift-adaptive online retraining. Zero-value
// fields of cfg get adapt's defaults; Predictor, Rings, Registry, and
// Journal are supplied by the server and need not be set.
func WithAdaptation(cfg adapt.Config) Option {
	return func(s *Server) { c := cfg; s.adaptCfg = &c }
}

// Adaptation returns the adaptation supervisor, or nil when disabled —
// tests and CLIs use it to inspect swap progress.
func (s *Server) Adaptation() *adapt.Supervisor { return s.adapt }

// handleAdaptStatus serves GET /debug/adapt: the supervisor's live
// snapshot (state machine position, shadow scorecard, swap/rollback
// counters).
func (s *Server) handleAdaptStatus(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.adapt.Status())
}
