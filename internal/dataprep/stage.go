package dataprep

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Stage names of Algorithm 1's data pipeline, as used in the stage
// duration metric and in predictor trace spans ("dataprep.<stage>").
const (
	StageClean     = "clean"
	StageNormalize = "normalize"
	StageScreen    = "screen"
	StageExpand    = "expand"
	StageWindow    = "window"
	// StageServe is the serving prepare (core.Predictor.PrepareInput),
	// which runs clean, normalize, screen and expand as one pass over
	// the history's tail.
	StageServe = "serve"
)

// stageHistograms holds each stage's series of
//
//	rptcn_dataprep_stage_seconds{stage="clean"|"normalize"|...}
//
// in the default registry, looked up on a stage's first observation and
// never again: the serving prepare observes once per forecast, where a
// registry lookup would cost as much as the stage.
var stageHistograms = func() map[string]func() *obs.Histogram {
	m := make(map[string]func() *obs.Histogram)
	for _, stage := range []string{StageClean, StageNormalize, StageScreen, StageExpand, StageWindow, StageServe} {
		m[stage] = sync.OnceValue(func() *obs.Histogram {
			return obs.Default().Histogram("rptcn_dataprep_stage_seconds",
				"Wall time of Algorithm 1 data-preparation stages.",
				obs.ExponentialBuckets(1e-5, 4, 10),
				obs.L("stage", stage))
		})
	}
	return m
}()

// observeStage records one execution of stage, begun at start.
func observeStage(stage string, start time.Time) {
	stageHistograms[stage]().Observe(time.Since(start).Seconds())
}

// ObserveServe records one serving prepare, begun at start, as
// stage="serve".
func ObserveServe(start time.Time) { observeStage(StageServe, start) }
