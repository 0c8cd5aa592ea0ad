// Package naive provides the classical reference forecasters every
// prediction study should be measured against: persistence (naive-1),
// drift, moving average, exponential smoothing, and Holt's
// linear trend method. They are cheap sanity baselines for the deep models
// and the building blocks of the capacity-planner example's "reactive"
// policy.
package naive

import (
	"errors"
	"fmt"
)

// Forecaster is the common interface: fit on history, then alternate
// OneStep (predict) and Update (absorb the realized value).
type Forecaster interface {
	// Fit initializes the forecaster from a history series.
	Fit(series []float64) error
	// OneStep returns the one-step-ahead forecast from the current state.
	OneStep() float64
	// Update absorbs the realized observation.
	Update(actual float64)
	// Forecast returns an h-step-ahead trajectory from the current state.
	Forecast(h int) []float64
}

// RollingForecast produces one-step forecasts for each element of actuals,
// updating f with the true value after each prediction.
func RollingForecast(f Forecaster, actuals []float64) []float64 {
	out := make([]float64, len(actuals))
	for i, a := range actuals {
		out[i] = f.OneStep()
		f.Update(a)
	}
	return out
}

// Persistence predicts the last observed value (naive-1) — the strongest
// trivial baseline for high-frequency resource usage.
type Persistence struct {
	last float64
	ok   bool
}

// Fit implements Forecaster.
func (p *Persistence) Fit(series []float64) error {
	if len(series) == 0 {
		return errors.New("naive: empty series")
	}
	p.last = series[len(series)-1]
	p.ok = true
	return nil
}

// OneStep implements Forecaster.
func (p *Persistence) OneStep() float64 { return p.last }

// Update implements Forecaster.
func (p *Persistence) Update(actual float64) { p.last = actual }

// Forecast implements Forecaster.
func (p *Persistence) Forecast(h int) []float64 { return repeat(p.last, h) }

// Drift extrapolates the average historical slope (the "drift method").
type Drift struct {
	last  float64
	slope float64
	n     int
	first float64
}

// Fit implements Forecaster.
func (d *Drift) Fit(series []float64) error {
	if len(series) < 2 {
		return errors.New("naive: drift needs at least 2 observations")
	}
	d.first = series[0]
	d.last = series[len(series)-1]
	d.n = len(series)
	d.slope = (d.last - d.first) / float64(len(series)-1)
	return nil
}

// OneStep implements Forecaster.
func (d *Drift) OneStep() float64 { return d.last + d.slope }

// Update implements Forecaster.
func (d *Drift) Update(actual float64) {
	d.n++
	d.last = actual
	d.slope = (actual - d.first) / float64(d.n-1)
}

// Forecast implements Forecaster.
func (d *Drift) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = d.last + d.slope*float64(i+1)
	}
	return out
}

// MovingAverage predicts the mean of the last Window observations.
type MovingAverage struct {
	Window int
	buf    []float64
	sum    float64
	pos    int
	full   bool
}

// Fit implements Forecaster.
func (m *MovingAverage) Fit(series []float64) error {
	if m.Window < 1 {
		return fmt.Errorf("naive: invalid window %d", m.Window)
	}
	if len(series) == 0 {
		return errors.New("naive: empty series")
	}
	m.buf = make([]float64, m.Window)
	m.sum = 0
	m.pos = 0
	m.full = false
	start := len(series) - m.Window
	if start < 0 {
		start = 0
	}
	for _, v := range series[start:] {
		m.Update(v)
	}
	return nil
}

// OneStep implements Forecaster.
func (m *MovingAverage) OneStep() float64 {
	n := m.Window
	if !m.full {
		n = m.pos
	}
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}

// Update implements Forecaster.
func (m *MovingAverage) Update(actual float64) {
	if m.full {
		m.sum -= m.buf[m.pos%m.Window]
	}
	m.buf[m.pos%m.Window] = actual
	m.sum += actual
	m.pos++
	if m.pos >= m.Window {
		m.full = true
		m.pos %= m.Window
	}
}

// Forecast implements Forecaster.
func (m *MovingAverage) Forecast(h int) []float64 { return repeat(m.OneStep(), h) }

// EWMA is simple exponential smoothing with factor Alpha ∈ (0,1].
type EWMA struct {
	Alpha float64
	level float64
	init  bool
}

// Fit implements Forecaster.
func (e *EWMA) Fit(series []float64) error {
	if e.Alpha <= 0 || e.Alpha > 1 {
		return fmt.Errorf("naive: invalid alpha %g", e.Alpha)
	}
	if len(series) == 0 {
		return errors.New("naive: empty series")
	}
	e.level = series[0]
	e.init = true
	for _, v := range series[1:] {
		e.Update(v)
	}
	return nil
}

// OneStep implements Forecaster.
func (e *EWMA) OneStep() float64 { return e.level }

// Update implements Forecaster.
func (e *EWMA) Update(actual float64) {
	if !e.init {
		e.level = actual
		e.init = true
		return
	}
	e.level = e.Alpha*actual + (1-e.Alpha)*e.level
}

// Forecast implements Forecaster.
func (e *EWMA) Forecast(h int) []float64 { return repeat(e.level, h) }

// Holt is Holt's linear-trend double exponential smoothing with level
// factor Alpha and trend factor Beta.
type Holt struct {
	Alpha, Beta  float64
	level, trend float64
	init         bool
}

// Fit implements Forecaster.
func (ho *Holt) Fit(series []float64) error {
	if ho.Alpha <= 0 || ho.Alpha > 1 || ho.Beta <= 0 || ho.Beta > 1 {
		return fmt.Errorf("naive: invalid smoothing factors α=%g β=%g", ho.Alpha, ho.Beta)
	}
	if len(series) < 2 {
		return errors.New("naive: Holt needs at least 2 observations")
	}
	ho.level = series[0]
	ho.trend = series[1] - series[0]
	ho.init = true
	for _, v := range series[1:] {
		ho.Update(v)
	}
	return nil
}

// OneStep implements Forecaster.
func (ho *Holt) OneStep() float64 { return ho.level + ho.trend }

// Update implements Forecaster.
func (ho *Holt) Update(actual float64) {
	if !ho.init {
		ho.level = actual
		ho.init = true
		return
	}
	prevLevel := ho.level
	ho.level = ho.Alpha*actual + (1-ho.Alpha)*(ho.level+ho.trend)
	ho.trend = ho.Beta*(ho.level-prevLevel) + (1-ho.Beta)*ho.trend
}

// Forecast implements Forecaster.
func (ho *Holt) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = ho.level + ho.trend*float64(i+1)
	}
	return out
}

func repeat(v float64, h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = v
	}
	return out
}
