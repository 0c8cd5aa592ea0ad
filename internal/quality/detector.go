package quality

import (
	"math"
	"sort"
)

// Detectors for the two failure modes of a high-dynamic forecaster:
//
//   - Mutation points (the paper's Fig. 1/8 regime shifts): an abrupt,
//     sustained level change in a signal. Detected with a two-sided
//     Page–Hinkley test over a median-filtered stream, so short bursts
//     (co-location interference spikes) do not fire it but a genuine
//     step does, within roughly MedianWidth/2 samples.
//   - Drift (esDNN's adapt-or-degrade setting): the error level or the
//     out-of-range input fraction creeping above its baseline. Detected
//     with an EWMA level against a frozen baseline distribution, with
//     warn/alarm states.

// MutationConfig tunes the Page–Hinkley mutation-point detector. The
// zero value gets usable defaults; Delta and Lambda are expressed in
// units of the signal's own scale (standard deviation estimated during
// warmup), so one configuration works for CPU percent and for residuals
// alike.
type MutationConfig struct {
	// MedianWidth is the width of the rolling-median prefilter that
	// suppresses short bursts (default 31, forced odd). A level change
	// shorter than MedianWidth/2 samples is treated as a burst, not a
	// mutation.
	MedianWidth int
	// Warmup is how many filtered samples estimate the signal scale
	// before detection arms (default 64).
	Warmup int
	// Alpha is the EWMA forgetting factor of the running level
	// (default 1/32). Slow trends (diurnal cycles) are absorbed by the
	// level; abrupt steps outrun it and accumulate.
	Alpha float64
	// Delta is the drift tolerance in scale units (default 1.5):
	// deviations below Delta·scale never accumulate. Scale is the raw
	// signal's warmup standard deviation — the filtered stream is too
	// smooth to price the tolerance in.
	Delta float64
	// Lambda is the alarm threshold in scale units (default 35).
	Lambda float64
	// Cooldown suppresses re-detection for this many samples after a
	// fire while the level re-anchors (default Warmup).
	Cooldown int
}

func (c *MutationConfig) fillDefaults() {
	if c.MedianWidth <= 0 {
		c.MedianWidth = 31
	}
	if c.MedianWidth%2 == 0 {
		c.MedianWidth++
	}
	if c.Warmup <= 0 {
		c.Warmup = 64
	}
	if c.Alpha <= 0 {
		c.Alpha = 1.0 / 32
	}
	if c.Delta <= 0 {
		c.Delta = 1.5
	}
	if c.Lambda <= 0 {
		c.Lambda = 35
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Warmup
	}
}

// PageHinkley is a two-sided Page–Hinkley mutation-point detector with a
// rolling-median prefilter and an EWMA baseline. Not safe for concurrent
// use; the engine serializes all detector pushes on its worker.
type PageHinkley struct {
	cfg    MutationConfig
	median *medianFilter

	// Warmup scale estimation (Welford over the raw signal).
	n     int
	mean  float64
	m2    float64
	scale float64

	level    float64 // EWMA of the filtered signal
	levelSet bool
	up, down float64 // one-sided cumulative sums, clipped at zero
	cooldown int
	fired    int
}

// NewPageHinkley returns an armed-after-warmup detector.
func NewPageHinkley(cfg MutationConfig) *PageHinkley {
	cfg.fillDefaults()
	return &PageHinkley{cfg: cfg, median: newMedianFilter(cfg.MedianWidth)}
}

// Push feeds one sample and reports whether a mutation point was
// detected at (or within ~MedianWidth/2 samples before) this sample.
// Non-finite samples are ignored.
func (d *PageHinkley) Push(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	f, ok := d.median.push(x)
	if d.n < d.cfg.Warmup {
		// Scale comes from the raw signal: bursts and noise belong in
		// the tolerance, and the filtered stream underestimates both.
		d.n++
		delta := x - d.mean
		d.mean += delta / float64(d.n)
		d.m2 += delta * (x - d.mean)
		if d.n == d.cfg.Warmup {
			d.scale = math.Sqrt(d.m2 / float64(d.n-1))
			// A constant warmup segment must not make the detector
			// hair-triggered.
			d.scale = max(d.scale, 1e-9)
		}
		if ok {
			d.level, d.levelSet = f, true
		}
		return false
	}
	if !ok {
		return false
	}
	if !d.levelSet {
		d.level, d.levelSet = f, true
		return false
	}
	dev := f - d.level
	d.level += d.cfg.Alpha * dev
	if d.cooldown > 0 {
		d.cooldown--
		d.up, d.down = 0, 0
		return false
	}
	tol := d.cfg.Delta * d.scale
	d.up += dev - tol
	if d.up < 0 {
		d.up = 0
	}
	d.down += -dev - tol
	if d.down < 0 {
		d.down = 0
	}
	if d.up > d.cfg.Lambda*d.scale || d.down > d.cfg.Lambda*d.scale {
		d.up, d.down = 0, 0
		d.level = f // re-anchor on the post-mutation level
		d.cooldown = d.cfg.Cooldown
		d.fired++
		return true
	}
	return false
}

// Armed reports whether warmup completed and detection is active.
func (d *PageHinkley) Armed() bool { return d.n >= d.cfg.Warmup }

// Fired returns how many mutation points have been detected.
func (d *PageHinkley) Fired() int { return d.fired }

// medianFilter is a fixed-width rolling median.
type medianFilter struct {
	buf     []float64
	scratch []float64
	next, n int
}

func newMedianFilter(w int) *medianFilter {
	return &medianFilter{buf: make([]float64, w), scratch: make([]float64, w)}
}

// push adds one sample; ok is false until the window is full.
func (m *medianFilter) push(x float64) (med float64, ok bool) {
	m.buf[m.next] = x
	m.next = (m.next + 1) % len(m.buf)
	if m.n < len(m.buf) {
		m.n++
		if m.n < len(m.buf) {
			return 0, false
		}
	}
	copy(m.scratch, m.buf)
	sort.Float64s(m.scratch)
	return m.scratch[len(m.scratch)/2], true
}

// DriftState is the level-drift severity ladder.
type DriftState int

// The drift states, in escalation order.
const (
	DriftOK DriftState = iota
	DriftWarn
	DriftAlarm
)

// String returns the state name.
func (s DriftState) String() string {
	switch s {
	case DriftWarn:
		return "warn"
	case DriftAlarm:
		return "alarm"
	}
	return "ok"
}

// DriftConfig tunes a DriftDetector. The zero value gets defaults.
type DriftConfig struct {
	// Baseline is how many samples establish the reference mean/std
	// before the detector arms (default 64).
	Baseline int
	// Alpha is the EWMA forgetting factor of the current level
	// (default 1/32).
	Alpha float64
	// MinStd floors the baseline std — it is the smallest level scale
	// considered meaningful, so signals with a near-constant baseline
	// (e.g. an out-of-range ratio pinned at 0) only alarm on a rise of
	// at least a few MinStd (default 1e-9; set higher per signal).
	MinStd float64
}

func (c *DriftConfig) fillDefaults() {
	if c.Baseline <= 0 {
		c.Baseline = 64
	}
	if c.Alpha <= 0 {
		c.Alpha = 1.0 / 32
	}
	if c.MinStd <= 0 {
		c.MinStd = 1e-9
	}
}

// The drift thresholds, in baseline standard deviations above the
// baseline mean.
const (
	warnK  = 2
	alarmK = 3.5
)

// DriftDetector tracks a one-sided level drift: an EWMA of the signal
// compared against the mean/std of a frozen baseline window. Rising
// above mean+2·std is a warning, above mean+3.5·std an alarm; falling
// back recovers. Not safe for concurrent use.
type DriftDetector struct {
	cfg DriftConfig

	n        int
	mean, m2 float64
	std      float64

	ewma  float64
	state DriftState
}

// NewDriftDetector returns a detector that arms after cfg.Baseline
// samples.
func NewDriftDetector(cfg DriftConfig) *DriftDetector {
	cfg.fillDefaults()
	return &DriftDetector{cfg: cfg}
}

// Push feeds one sample and returns the resulting state. Non-finite
// samples are ignored.
func (d *DriftDetector) Push(x float64) DriftState {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return d.state
	}
	if d.n < d.cfg.Baseline {
		d.n++
		delta := x - d.mean
		d.mean += delta / float64(d.n)
		d.m2 += delta * (x - d.mean)
		if d.n == d.cfg.Baseline {
			d.std = math.Sqrt(d.m2 / float64(d.n-1))
			if d.std < d.cfg.MinStd {
				d.std = d.cfg.MinStd
			}
			d.ewma = d.mean
		}
		return DriftOK
	}
	d.ewma += d.cfg.Alpha * (x - d.ewma)
	switch {
	case d.ewma > d.mean+alarmK*d.std:
		d.state = DriftAlarm
	case d.ewma > d.mean+warnK*d.std:
		d.state = DriftWarn
	default:
		d.state = DriftOK
	}
	return d.state
}

// State returns the current drift state.
func (d *DriftDetector) State() DriftState { return d.state }

// Level returns the current EWMA level (the baseline mean before
// arming completes).
func (d *DriftDetector) Level() float64 {
	if d.n < d.cfg.Baseline {
		return d.mean
	}
	return d.ewma
}

// Baseline returns the reference mean and std (std 0 before arming)
// and how many samples have been consumed.
func (d *DriftDetector) Baseline() (mean, std float64, samples int) {
	return d.mean, d.std, d.n
}
