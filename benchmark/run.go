package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	traced   bool
	measured time.Duration
	warmup   time.Duration
	// setups is the least number of times set-up runs, the last for the run
	// that is measured; setup_s is the median. A set-up that takes
	// milliseconds is repeated for a second, so that its median is steady.
	setups int
	// minTailSamples is the least a tail window may hold (see windowedTailMs).
	minTailSamples int
	maxFits        int    // train-fit: stop a phase after this many fits; 0 is no cap
	out            string // directory the span file goes to
	// replayScale shortens the traced run's replays and probe loops; the
	// smoke test runs them at a tenth.
	replayScale float64
}

// scaled is n replayed ops or probe calls at the run's replay scale.
func (c runConfig) scaled(n int) int { return max(int(float64(n)*c.replayScale), 2) }

func defaultRunConfig(workload string, seed uint64, seconds int, traced bool) runConfig {
	return runConfig{
		workload: workload, seed: seed, traced: traced,
		measured: time.Duration(seconds) * time.Second, warmup: 2 * time.Second,
		setups: 3, minTailSamples: 1000, out: ".bench_build/traces", replayScale: 1,
	}
}

// basePhase is how long the traced run runs the workload untraced first.
func (c runConfig) basePhase() time.Duration { return max(c.measured/4, time.Second) }

// result is what a run reports. Its JSON form is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and writes the report to w, the result line last.
func run(cfg runConfig, w io.Writer) (result, error) {
	fmt.Fprintln(w, header(cfg))
	var (
		res result
		err error
	)
	if cfg.traced {
		res, err = runTraced(cfg, w)
	} else {
		res, err = runUntraced(cfg, w)
	}
	if err != nil {
		return res, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return res, err
}

// setUpRepeatedly sets the workload up cfg.setups times or for a second,
// whichever is more (but 50 times at most), tearing it down in between, and
// returns the median set-up time with the workload left set up.
func setUpRepeatedly(wl workload, cfg runConfig) (float64, error) {
	var times []float64
	start := time.Now()
	for i := 0; i < cfg.setups || (cfg.setups > 1 && i < 50 && time.Since(start) < time.Second); i++ {
		if i > 0 {
			if err := wl.tearDown(); err != nil {
				return 0, fmt.Errorf("tear-down: %w", err)
			}
		}
		t0 := time.Now()
		if err := wl.setUp(); err != nil {
			return 0, errors.Join(fmt.Errorf("set-up: %w", err), wl.tearDown())
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

func printPhase(w io.Writer, pc phaseCount, elapsed time.Duration) {
	fmt.Fprintf(w, "# phase %-8s %7.2fs  sent=%d succeeded=%d failed=%d\n",
		pc.name, elapsed.Seconds(), pc.sent, pc.ok, pc.failed)
	if pc.firstErr != nil {
		fmt.Fprintf(w, "#   first failure: %v\n", pc.firstErr)
	}
}

func runUntraced(cfg runConfig, w io.Writer) (res result, err error) {
	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.maxFits)
	if err != nil {
		return res, err
	}
	setupS, err := setUpRepeatedly(wl, cfg)
	if err != nil {
		return res, err
	}
	defer func() { err = errors.Join(err, wl.tearDown()) }()
	fmt.Fprintf(w, "# input digest %s\n", wl.inputDigest())
	runtime.GC() // the earlier set-ups' garbage is the harness's, not the run's

	t0 := time.Now()
	warm, err := wl.run(cfg.warmup, nil)
	if err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	warm.name = "warm-up"
	printPhase(w, warm, time.Since(t0))

	lat := &latencies{}
	t0 = time.Now()
	meas, err := wl.run(cfg.measured, lat)
	elapsed := time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("measured phase: %w", err)
	}
	meas.name = "measured"
	printPhase(w, meas, elapsed)

	v, err := wl.verify()
	if err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	fmt.Fprintf(w, "# verify: %d forecasts scored against the generator, %d differ from the oracle\n",
		v.checked, v.mismatches)

	// A request workload's throughput and tail are medians over windows of
	// the phase, so that one stall moves neither; a fit is too long an op
	// for windows.
	var rate, tail float64
	if tw := wl.tailWindow(); tw > 0 {
		var n int
		if tail, n, err = lat.windowedTailMs(elapsed, tw, cfg.minTailSamples); err != nil {
			return res, err
		}
		rate = lat.windowedRate(elapsed)
		fmt.Fprintf(w, "# op_p50_ms over %d samples; op_tail_ms is the median of %d windows' p99; ops_per_s the median second's\n", len(lat.ns), n)
		lo, mid, hi := lat.secondsP50(elapsed)
		fmt.Fprintf(w, "# p50 of each second of the phase: lowest %.4g, median %.4g, highest %.4g ms\n", lo, mid, hi)
	} else {
		tail = quantile(slices.Clone(lat.ns), 0.80) / 1e6
		rate = float64(meas.ok) / elapsed.Seconds()
		fmt.Fprintf(w, "# op_p50_ms over %d fits; op_tail_ms is their p80 (%d beyond)\n", len(lat.ns), len(lat.ns)/5)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	m := values{
		"ops_per_s":    rate,
		"op_p50_ms":    lat.p50ms(),
		"op_tail_ms":   tail,
		"ok_ratio":     float64(meas.ok) / float64(meas.sent),
		"forecast_mae": v.mae,
		"peak_rss_mb":  rss,
		"setup_s":      setupS,
	}
	res.Attempted = warm.sent + meas.sent
	res.Failed = warm.failed + meas.failed
	res.Correct = res.Failed == 0 && v.mismatches == 0
	if res.Metrics, err = m.emit(endToEnd); err != nil {
		return res, err
	}
	printMetrics(w, endToEnd, res.Metrics)
	return res, nil
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.6g %-8s (%s is better)\n", d.Name, m[d.Name].Value, d.Unit, d.Better)
	}
}
