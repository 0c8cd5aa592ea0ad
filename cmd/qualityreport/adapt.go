// Adapt mode (-adapt): the mutation-recovery study. One synthetic
// series with a single persistent regime mutation is replayed through
// TWO predictors trained identically on the clean prefix:
//
//   - the adapted predictor serves behind a live adapt.Supervisor wired
//     to the quality engine, exactly as rptcnd -adapt runs it: the
//     mutation fires, a candidate fine-tunes in the background on the
//     mutated windows (from a RingStore, as ingestion would fill it),
//     shadow-scores against the mirrored live forecasts, and hot-swaps;
//   - the frozen control is a Save/Load clone that never retrains.
//
// The report compares rolling MAE on the mutated tail: recovery means
// the adapted model returns to within 10% of its own clean-prefix
// baseline while the frozen control stays degraded. -require-recovery
// turns that into an exit code; -out writes the report to a file
// (results_adapt.txt in the repo was produced this way).
package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/runlog"
	"repro/internal/quality"
	"repro/internal/trace"
)

type adaptReplayConfig struct {
	samples, trainN                  int
	mutateAt                         int
	window, horizon, epochs          int
	stride, histLen                  int
	seed                             uint64
	runDir, outPath                  string
	requireRecovery                  bool
	minShadow, probation             int
	fineTuneEpochs                   int
	recoverFactor, degradedThreshold float64
}

func runAdaptReplay(cfg adaptReplayConfig) {
	log := obs.Logger("qualityreport")
	fatal := func(msg string, err error) {
		log.Error(msg, "err", err)
		os.Exit(1)
	}

	e := trace.GenerateWithMutations(cfg.samples, []int{cfg.mutateAt}, cfg.seed)

	// Both predictors fit the clean prefix; the frozen control is a
	// Save/Load round-trip so it shares not one tensor with the live one.
	trainSeries := make([][]float64, trace.NumIndicators)
	for i, srs := range e.Matrix() {
		trainSeries[i] = srs[:cfg.trainN]
	}
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: cfg.window, Horizon: cfg.horizon, Epochs: cfg.epochs, Seed: 2,
		Model: core.Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16},
	})
	if err := p.Fit(trainSeries, int(trace.CPUUtilPercent)); err != nil {
		fatal("fit", err)
	}
	var snap bytes.Buffer
	if err := p.Save(&snap); err != nil {
		fatal("snapshot predictor", err)
	}
	frozen, err := core.LoadPredictor(&snap)
	if err != nil {
		fatal("load frozen control", err)
	}

	// The rings hold the mutated tail — what streaming ingestion would
	// have delivered since the regime changed, and what the candidate
	// fine-tunes on.
	tailLen := cfg.samples - cfg.mutateAt
	rings := trace.NewBoundedRingStore(tailLen, 0)
	var vals [trace.NumIndicators]float64
	for s := cfg.mutateAt; s < cfg.samples; s++ {
		for i, srs := range e.Matrix() {
			vals[i] = srs[s]
		}
		rings.IngestString(entityName, s, &vals)
	}

	adaptDir := ""
	if cfg.runDir != "" {
		adaptDir = filepath.Join(cfg.runDir, "adapt-state")
	} else if adaptDir, err = os.MkdirTemp("", "qualityreport-adapt"); err != nil {
		fatal("adapt state dir", err)
	}
	var (
		journal *runlog.Run
		jbuf    bytes.Buffer
	)
	if cfg.runDir != "" {
		if journal, err = runlog.Create(cfg.runDir); err != nil {
			fatal("create journal", err)
		}
		log.Info("journaling", "path", journal.Path())
	} else {
		journal = runlog.New(&jbuf)
	}

	minSamples := 4 * p.MinHistory()
	if max := tailLen - cfg.horizon; minSamples > max {
		minSamples = max
	}
	sup, err := adapt.New(adapt.Config{
		Predictor:         p,
		Rings:             rings,
		Dir:               adaptDir,
		MinSamples:        minSamples,
		FineTune:          core.FineTuneConfig{Epochs: cfg.fineTuneEpochs, Seed: 5},
		MinShadowResolved: cfg.minShadow,
		ProbationResolved: cfg.probation,
		Cooldown:          time.Hour, // one swap: keep the tail measurement clean
		Registry:          obs.NewRegistry(),
		Journal:           journal,
	})
	if err != nil {
		fatal("start supervisor", err)
	}
	defer sup.Close()

	eng := quality.New(quality.Config{
		Horizon:  cfg.horizon,
		Window:   cfg.samples * cfg.horizon,
		Preset:   quality.PresetFast,
		Registry: obs.NewRegistry(),
		Events:   sup.OnQualityEvent,
	})
	defer eng.Close()

	// Replay, serving through the swap-safe batched path (the supervisor
	// swaps concurrently; PrepareInput is lock-free, the forward holds
	// the same lock as the swap — the exact contract rptcnd serves under).
	adapted, control := newMirror(cfg.horizon), newMirror(cfg.horizon)
	swapT, requests := 0, 0
	for t := cfg.trainN; t < cfg.samples; t += cfg.stride {
		if t+1 < cfg.histLen {
			continue
		}
		hist := make([][]float64, trace.NumIndicators)
		for i, srs := range e.Matrix() {
			hist[i] = srs[t+1-cfg.histLen : t+1]
		}
		tgt := hist[trace.CPUUtilPercent]
		t0 := int64(t - cfg.histLen + 1)
		eng.Observe(entityName, t0, tgt)
		sup.ObserveActuals(entityName, t0, tgt)
		adapted.observe(t0, tgt)
		control.observe(t0, tgt)

		in, err := p.PrepareInput(hist)
		if err != nil {
			continue
		}
		live, _, err := p.ForecastBatchGen([]*core.PreparedInput{in})
		if err != nil {
			continue
		}
		served := live[0]
		eng.RecordForecast(entityName, int64(t), served)
		sup.MirrorForecast(entityName, int64(t), in, served)
		adapted.record(int64(t), served)
		if ctl, err := frozen.ForecastFrom(hist); err == nil {
			control.record(int64(t), ctl)
		}
		requests++
		if swapT == 0 && p.Generation() > 1 {
			swapT = t
		}

		// Keep the async pipeline in lockstep with the replay: the engine
		// must process this step's observations (so the mutation fires at
		// its true sample time) and the supervisor must drain the trigger
		// and mirrors before the next step decides whether to pause.
		eng.Flush()
		sup.Flush()

		// Pace the replay while the candidate trains, so the remaining
		// samples are spent shadow-scoring it rather than running out.
		for deadline := time.Now().Add(5 * time.Minute); sup.Status().State == adapt.StateTraining; {
			if time.Now().After(deadline) {
				fatal("replay", fmt.Errorf("candidate still training after 5m"))
			}
			time.Sleep(10 * time.Millisecond)
		}
		if swapT == 0 && p.Generation() > 1 {
			swapT = t
		}
	}
	eng.Flush()
	sup.Flush()
	st := sup.Status()

	// ---- Recovery report -------------------------------------------
	var report bytes.Buffer
	out := io.Writer(&report)

	fmt.Fprintf(out, "qualityreport -adapt: %d requests (stride %d, hist %d) over %d samples, mutation at %d\n",
		requests, cfg.stride, cfg.histLen, cfg.samples, cfg.mutateAt)
	fmt.Fprintf(out, "adapt: state=%s generation=%d swaps=%d rollbacks=%d retrains=%d failures=%d\n\n",
		st.State, st.Generation, st.Swaps, st.Rollbacks, st.Retrains, st.Failures)

	firstTarget := cfg.trainN + cfg.histlenFloor()
	cleanBase := maeIn(adapted, int64(firstTarget), int64(cfg.mutateAt))
	cleanCtl := maeIn(control, int64(firstTarget), int64(cfg.mutateAt))
	fmt.Fprintf(out, "clean prefix  [%d,%d): adapted MAE %.3f   frozen MAE %.3f (same weights: must match)\n",
		firstTarget, cfg.mutateAt, cleanBase, cleanCtl)

	ok := true
	if st.Swaps < 1 || swapT == 0 {
		fmt.Fprintf(out, "\nNO HOT-SWAP: the supervisor never promoted a candidate (state %s, retrains %d, failures %d)\n",
			st.State, st.Retrains, st.Failures)
		ok = false
	} else {
		tailStart := int64(swapT + cfg.horizon)
		adaptedTail := maeIn(adapted, tailStart, int64(cfg.samples))
		frozenTail := maeIn(control, tailStart, int64(cfg.samples))
		degraded := maeIn(adapted, int64(cfg.mutateAt), tailStart)

		fmt.Fprintf(out, "mutated, pre-swap  [%d,%d): adapted MAE %.3f (degraded — this is what fires the detector)\n",
			cfg.mutateAt, tailStart, degraded)
		fmt.Fprintf(out, "post-swap tail [%d,%d):  adapted MAE %.3f   frozen MAE %.3f\n\n",
			tailStart, cfg.samples, adaptedTail, frozenTail)

		recov := adaptedTail / cleanBase
		stay := frozenTail / cleanBase
		fmt.Fprintf(out, "recovery: adapted tail / clean baseline = %.3f (gate ≤ %.2f)\n", recov, cfg.recoverFactor)
		fmt.Fprintf(out, "control:  frozen tail / clean baseline  = %.3f (gate > %.2f: stays degraded)\n",
			stay, cfg.degradedThreshold)
		if !(recov <= cfg.recoverFactor) {
			fmt.Fprintf(out, "RECOVERY CHECK FAILED: post-swap MAE did not return to the clean baseline\n")
			ok = false
		}
		if !(stay > cfg.degradedThreshold) {
			fmt.Fprintf(out, "CONTROL CHECK FAILED: the frozen model was not degraded — nothing to recover from\n")
			ok = false
		}
	}

	fmt.Fprintf(out, "\ntimeline (MAE per bin over forecast target time; * mutation, ⇅ hot-swap):\n")
	printAdaptTimeline(out, adapted, control, cfg.mutateAt, swapT, cfg.trainN, cfg.samples)

	os.Stdout.Write(report.Bytes())
	if cfg.outPath != "" {
		if err := os.WriteFile(cfg.outPath, report.Bytes(), 0o644); err != nil {
			fatal("write -out", err)
		}
		log.Info("report written", "path", cfg.outPath)
	}

	sup.Close()
	eng.Close()
	if err := journal.Close(); err != nil {
		fatal("close journal", err)
	}
	if cfg.requireRecovery && !ok {
		os.Exit(1)
	}
}

// histlenFloor is where resolved forecast targets can first appear: the
// first replayed request issues at max(trainN, histLen-1)+1 … keep it
// simple and skip one full history window into the replay.
func (c adaptReplayConfig) histlenFloor() int {
	if c.histLen > c.stride {
		return c.histLen
	}
	return c.stride
}

// maeIn is the mean absolute error of resolved pairs whose forecast
// target time lies in [lo, hi).
func maeIn(m *mirror, lo, hi int64) float64 {
	sum, n := 0.0, 0
	for i, tt := range m.targets {
		if tt >= lo && tt < hi {
			sum += math.Abs(m.errs[i])
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// printAdaptTimeline draws adapted vs frozen MAE per target-time bin.
func printAdaptTimeline(w io.Writer, adapted, control *mirror, mutateAt, swapT, from, to int) {
	const bins = 24
	width := (to - from + bins - 1) / bins
	if width == 0 {
		return
	}
	maxMAE := 0.0
	binned := func(m *mirror) []float64 {
		out := make([]float64, bins)
		cnt := make([]int, bins)
		for i, tt := range m.targets {
			b := (int(tt) - from) / width
			if b < 0 || b >= bins {
				continue
			}
			out[b] += math.Abs(m.errs[i])
			cnt[b]++
		}
		for b := range out {
			if cnt[b] > 0 {
				out[b] /= float64(cnt[b])
				if out[b] > maxMAE {
					maxMAE = out[b]
				}
			} else {
				out[b] = math.NaN()
			}
		}
		return out
	}
	a, c := binned(adapted), binned(control)
	bar := func(mae float64) string {
		if math.IsNaN(mae) || maxMAE == 0 {
			return ""
		}
		return strings.Repeat("#", int(mae/maxMAE*30))
	}
	fmt.Fprintf(w, "  %5s    %-38s %s\n", "t", "adapted", "frozen control")
	for b := 0; b < bins; b++ {
		lo, hi := from+b*width, from+(b+1)*width
		mark := " "
		if mutateAt >= lo && mutateAt < hi {
			mark = "*"
		}
		if swapT >= lo && swapT < hi && swapT > 0 {
			mark += "⇅"
		}
		av, cv := "", ""
		if !math.IsNaN(a[b]) {
			av = fmt.Sprintf("%s %.2f", bar(a[b]), a[b])
		}
		if !math.IsNaN(c[b]) {
			cv = fmt.Sprintf("%s %.2f", bar(c[b]), c[b])
		}
		fmt.Fprintf(w, "  %5d %-2s |%-36s |%s\n", lo, mark, av, cv)
	}
}
