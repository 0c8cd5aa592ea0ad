// Command qualityreport replays a synthetic workload with injected
// mutation points through a freshly trained RPTCN model and the online
// quality engine, then renders the accuracy/drift timeline the engine
// observed. It is both a human-readable diagnostic and the CI smoke
// check for the forecast-quality pipeline:
//
//	qualityreport                          # defaults: 1400 samples, mutations at 600,1000
//	qualityreport -mutations 500 -seed 17
//	qualityreport -require-detect -require-drift -rundir runs   # CI mode
//
// With -require-detect the process exits non-zero unless the input
// mutation detector fires within the detection tolerance of every
// injected point and nowhere else; -require-drift additionally demands
// the input drift detector reach the alarm state after the first
// mutation. The engine's rolling error statistics are recomputed
// offline from the replayed forecast/actual pairs and must match the
// engine bitwise — any divergence is a hard failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/runlog"
	"repro/internal/quality"
	"repro/internal/trace"
)

const entityName = "replay"

func main() {
	var (
		samples   = flag.Int("samples", 1400, "synthetic series length")
		mutSpec   = flag.String("mutations", "600,1000", "comma-separated sample times to inject mutation points at (each toggles a +35 CPU regime)")
		seed      = flag.Uint64("seed", 13, "generator seed")
		trainN    = flag.Int("train", 400, "train on the first N samples (must precede the first mutation)")
		window    = flag.Int("window", 16, "model input window")
		horizon   = flag.Int("horizon", 3, "forecast steps")
		epochs    = flag.Int("epochs", 6, "training epochs")
		stride    = flag.Int("stride", 2, "samples between replayed forecast requests")
		histLen   = flag.Int("hist", 64, "history samples per replayed request")
		sloSpec   = flag.String("slo", "", `SLO rules to evaluate during replay (e.g. "mae<=8@256")`)
		runDir    = flag.String("rundir", "", "also write drift/SLO journal events (JSONL) under this directory")
		reqDetect = flag.Bool("require-detect", false, "exit non-zero unless every injected mutation is detected in tolerance with no false alarms")
		reqDrift  = flag.Bool("require-drift", false, "exit non-zero unless input drift reaches the alarm state")

		adaptMode  = flag.Bool("adapt", false, "mutation-recovery study: replay with a live adapt supervisor vs a frozen control (single -mutations point; see adapt.go)")
		reqRecover = flag.Bool("require-recovery", false, "adapt mode: exit non-zero unless post-swap MAE returns within the recovery factor of the clean baseline while the frozen control stays degraded")
		outPath    = flag.String("out", "", "adapt mode: also write the recovery report to this file")
		ftEpochs   = flag.Int("finetune-epochs", 0, "adapt mode: candidate fine-tune epochs (0 = same as -epochs)")
	)
	flag.Parse()
	log := obs.Logger("qualityreport")
	fatal := func(msg string, err error) {
		log.Error(msg, "err", err)
		os.Exit(1)
	}

	points, err := parsePoints(*mutSpec)
	if err != nil {
		fatal("parse -mutations", err)
	}
	if len(points) > 0 && *trainN >= points[0] {
		fatal("configure", fmt.Errorf("-train %d overlaps first mutation at %d", *trainN, points[0]))
	}
	if *adaptMode {
		if len(points) != 1 {
			fatal("configure", fmt.Errorf("-adapt needs exactly one mutation point (a persistent regime flip), got %v; e.g. -mutations 600", points))
		}
		fe := *ftEpochs
		if fe <= 0 {
			fe = *epochs
		}
		runAdaptReplay(adaptReplayConfig{
			samples: *samples, trainN: *trainN, mutateAt: points[0],
			window: *window, horizon: *horizon, epochs: *epochs,
			stride: *stride, histLen: *histLen, seed: *seed,
			runDir: *runDir, outPath: *outPath, requireRecovery: *reqRecover,
			minShadow: 12, probation: 12, fineTuneEpochs: fe,
			recoverFactor: 1.10, degradedThreshold: 1.10,
		})
		return
	}
	rules, err := quality.ParseRules(*sloSpec)
	if err != nil {
		fatal("parse -slo", err)
	}

	e := trace.GenerateWithMutations(*samples, points, *seed)
	target := e.Series(trace.CPUUtilPercent)

	// Train on the clean prefix only: the replay then walks the model
	// into the injected regime changes, exactly the situation the
	// quality engine exists to surface.
	trainSeries := make([][]float64, trace.NumIndicators)
	for i, srs := range e.Matrix() {
		trainSeries[i] = srs[:*trainN]
	}
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: *window, Horizon: *horizon, Epochs: *epochs, Seed: 2,
		Model: core.Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16},
	})
	if err := p.Fit(trainSeries, int(trace.CPUUtilPercent)); err != nil {
		fatal("fit", err)
	}
	minHist := p.MinHistory()
	// The input detectors see what rptcnd feeds them for a request.
	bounds := quality.InputBounds{Target: p.SelectedIndicators()[0], MinHistory: minHist}
	bounds.Min, bounds.Max = p.NormBounds()

	// Journal drift/SLO transitions either to a run artifact (-rundir)
	// or to memory; either way the events are read back for the report.
	var (
		journal *runlog.Run
		buf     bytes.Buffer
	)
	if *runDir != "" {
		journal, err = runlog.Create(*runDir)
		if err != nil {
			fatal("create journal", err)
		}
		log.Info("journaling", "path", journal.Path())
	} else {
		journal = runlog.New(&buf)
	}

	// Detectors tuned for the compressed replay cadence; the +35 step
	// stays far above the preset's raised threshold.
	eng := quality.New(quality.Config{
		Horizon: *horizon,
		// One ring large enough to hold every replayed pair (up to
		// horizon per sample), so the offline recomputation below must
		// match the engine exactly.
		Window:   *samples * *horizon,
		Preset:   quality.PresetFast,
		Rules:    rules,
		Registry: obs.NewRegistry(),
		Journal:  journal,
	})
	defer eng.Close()

	// Replay. Each request self-joins its own history window (resolving
	// earlier forecasts), records a fresh forecast, and reports input
	// statistics — the same protocol rptcnd's /v1/forecast follows for
	// requests tagged with entity and t.
	mirror := newMirror(*horizon)
	requests, skipped := 0, 0
	for t := *trainN; t < *samples; t += *stride {
		if t+1 < *histLen {
			continue
		}
		hist := make([][]float64, trace.NumIndicators)
		for i, srs := range e.Matrix() {
			hist[i] = srs[t+1-*histLen : t+1]
		}
		tgt := hist[trace.CPUUtilPercent]
		eng.Observe(entityName, int64(t-*histLen+1), tgt)
		mirror.observe(int64(t-*histLen+1), tgt)

		forecast, err := p.ForecastFrom(hist)
		if err != nil {
			skipped++
			continue
		}
		eng.RecordForecast(entityName, int64(t), forecast)
		mirror.record(int64(t), forecast)
		eng.ObserveInput(entityName, int64(t), bounds.Summarize(hist))
		requests++
	}
	st := eng.Status()

	// ---- Report ----------------------------------------------------
	fmt.Printf("qualityreport: %d requests (stride %d, hist %d) over %d samples, mutations at %v\n",
		requests, *stride, *histLen, *samples, points)
	if skipped > 0 {
		fmt.Printf("  %d requests skipped (inference error)\n", skipped)
	}
	// The engine queues nothing, so it drops nothing; the column stays
	// so the report reads as it always has.
	fmt.Printf("resolved pairs: %d   pending: %d   expired: %d   dropped: 0\n\n",
		st.Resolved, st.Pending, st.Expired)

	ok := true
	offMAE, offBias := mirror.stats()
	if st.Aggregate.MAE != offMAE || st.Aggregate.Bias != offBias {
		fmt.Printf("OFFLINE MISMATCH: engine mae=%v bias=%v, offline mae=%v bias=%v\n",
			st.Aggregate.MAE, st.Aggregate.Bias, offMAE, offBias)
		ok = false
	} else {
		fmt.Printf("offline recomputation: MAE %.4f, bias %+.4f — exact match with engine\n\n", offMAE, offBias)
	}

	fmt.Println("per-step accuracy:")
	fmt.Println("  step  count     mae      mse     bias  over/under   p90|e|")
	printStep := func(label string, s quality.StepStats) {
		fmt.Printf("  %4s %6d %7.3f %8.3f %+8.3f %5d/%-5d %8.3f\n",
			label, s.Count, s.MAE, s.MSE, s.Bias, s.Over, s.Under, s.P90AbsErr)
	}
	printStep("all", st.Aggregate)
	for _, s := range st.Steps {
		printStep(strconv.Itoa(s.Step), s)
	}

	fmt.Println("\ndrift:")
	fmt.Printf("  input: %-5s  level %.4f  baseline %.4f ± %.4f\n",
		st.InputDrift.State, st.InputDrift.Level, st.InputDrift.BaselineMean, st.InputDrift.BaselineStd)
	fmt.Printf("  error: %-5s  level %.4f  baseline %.4f ± %.4f\n",
		st.ErrorDrift.State, st.ErrorDrift.Level, st.ErrorDrift.BaselineMean, st.ErrorDrift.BaselineStd)

	var fires []int64
	if len(st.Entities) > 0 {
		fires = st.Entities[0].InputMutations
	}
	// Detection tolerance: the median filter needs MedianWidth requests
	// to flip, and the input window mean ramps over MinHistory samples.
	tol := int64(2*quality.PresetFast.Mutation().MedianWidth**stride + minHist)
	fmt.Printf("\ninput mutations fired at %v (injected %v, tolerance +%d)\n", fires, points, tol)
	detectOK := validateDetections(points, fires, tol)
	if !detectOK {
		fmt.Println("DETECTION CHECK FAILED: missed or spurious mutation fires")
	}

	if len(st.SLO) > 0 {
		fmt.Println("\nslo:")
		for _, r := range st.SLO {
			fmt.Printf("  %-24s %-8s value %.4f over %d pairs\n", r.Rule, r.State, r.Value, r.Count)
		}
	}

	fmt.Println("\ntimeline (MAE per bin over forecast target time; * injected mutation, ! detector fire):")
	printTimeline(mirror, target, points, fires, *trainN, *samples)

	eng.Close()
	if err := journal.Close(); err != nil {
		fatal("close journal", err)
	}
	events := readEvents(journal, &buf, *runDir)
	drift, slo := 0, 0
	inputAlarmed := false
	for _, ev := range events {
		switch ev.Type {
		case runlog.TypeDrift:
			drift++
			if ev.Data["kind"] == "level" && ev.Data["signal"] == "input" && ev.Data["state"] == "alarm" {
				inputAlarmed = true
			}
		case runlog.TypeSLO:
			slo++
		}
	}
	fmt.Printf("\njournal: %d drift events, %d slo transitions; input drift reached alarm: %v (final state %q)\n",
		drift, slo, inputAlarmed, st.InputDrift.State)

	if *reqDetect && !detectOK {
		ok = false
	}
	// The drift detector recovers once a mutation toggles back off, so
	// the requirement is that the alarm was reached, not that it is the
	// final state.
	if *reqDrift && !inputAlarmed {
		fmt.Println("DRIFT CHECK FAILED: input drift never reached alarm")
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

func parsePoints(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad mutation point %q", part)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// mirror replays the engine's pending-store semantics offline so the
// engine's rolling statistics can be checked bitwise: same resolution
// order, same chronological summation.
type mirror struct {
	horizon int
	pending map[int64][]mirrorPred
	errs    []float64 // resolution order
	targets []int64   // forecast target time per resolved pair
}

type mirrorPred struct {
	step   int
	issued int64
	value  float64
}

func newMirror(horizon int) *mirror {
	return &mirror{horizon: horizon, pending: make(map[int64][]mirrorPred)}
}

func (m *mirror) record(issuedAt int64, forecast []float64) {
	for k, v := range forecast {
		tt := issuedAt + int64(k) + 1
		list := m.pending[tt]
		replaced := false
		for i := range list {
			if list[i].issued == issuedAt && list[i].step == k+1 {
				list[i].value = v
				replaced = true
				break
			}
		}
		if !replaced {
			list = append(list, mirrorPred{step: k + 1, issued: issuedAt, value: v})
		}
		m.pending[tt] = list
	}
}

func (m *mirror) observe(t0 int64, actuals []float64) {
	for i, actual := range actuals {
		if math.IsNaN(actual) || math.IsInf(actual, 0) {
			continue
		}
		tt := t0 + int64(i)
		for _, pred := range m.pending[tt] {
			m.errs = append(m.errs, pred.value-actual)
			m.targets = append(m.targets, tt)
		}
		delete(m.pending, tt)
	}
}

func (m *mirror) stats() (mae, bias float64) {
	if len(m.errs) == 0 {
		return 0, 0
	}
	sumAbs, sum := 0.0, 0.0
	for _, e := range m.errs {
		sum += e
		sumAbs += math.Abs(e)
	}
	n := float64(len(m.errs))
	return sumAbs / n, sum / n
}

func validateDetections(points []int, fires []int64, tol int64) bool {
	matched := make([]bool, len(points))
	for _, f := range fires {
		hit := false
		for i, pt := range points {
			if f >= int64(pt) && f <= int64(pt)+tol {
				matched[i] = true
				hit = true
			}
		}
		if !hit {
			return false // spurious fire
		}
	}
	for _, m := range matched {
		if !m {
			return false // missed point
		}
	}
	return true
}

// printTimeline buckets resolved pairs by forecast target time and draws
// a crude MAE bar per bucket with mutation/fire markers.
func printTimeline(m *mirror, target []float64, points []int, fires []int64, from, to int) {
	const bins = 24
	width := (to - from + bins - 1) / bins
	if width == 0 {
		return
	}
	sumAbs := make([]float64, bins)
	count := make([]int, bins)
	for i, tt := range m.targets {
		b := (int(tt) - from) / width
		if b < 0 || b >= bins {
			continue
		}
		sumAbs[b] += math.Abs(m.errs[i])
		count[b]++
	}
	maxMAE := 0.0
	for b := range sumAbs {
		if count[b] > 0 && sumAbs[b]/float64(count[b]) > maxMAE {
			maxMAE = sumAbs[b] / float64(count[b])
		}
	}
	for b := 0; b < bins; b++ {
		lo, hi := from+b*width, from+(b+1)*width
		mark := " "
		for _, pt := range points {
			if pt >= lo && pt < hi {
				mark = "*"
			}
		}
		for _, f := range fires {
			if f >= int64(lo) && f < int64(hi) {
				mark += "!"
			}
		}
		if count[b] == 0 {
			fmt.Printf("  %5d %-2s |\n", lo, mark)
			continue
		}
		mae := sumAbs[b] / float64(count[b])
		barLen := 0
		if maxMAE > 0 {
			barLen = int(mae / maxMAE * 40)
		}
		fmt.Printf("  %5d %-2s |%s %.2f\n", lo, mark, strings.Repeat("#", barLen), mae)
	}
}

// readEvents loads the journal back, from disk for -rundir runs and from
// the in-memory buffer otherwise.
func readEvents(journal *runlog.Run, buf *bytes.Buffer, runDir string) []runlog.Event {
	if runDir != "" {
		events, err := runlog.ReadFile(journal.Path())
		if err != nil {
			return nil
		}
		return events
	}
	events, err := runlog.Read(buf)
	if err != nil {
		return nil
	}
	return events
}
