// Package arima implements the ARIMA(p,d,q) forecasting baseline of the
// paper. Estimation uses conditional sum of squares (CSS): AR start values
// come from the Yule–Walker equations, and the full (intercept, AR, MA)
// parameter vector is refined with Nelder–Mead. Forecasting follows the
// standard ARMA recursion with future innovations set to zero, integrated
// back through the differencing.
package arima

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// Config selects the ARIMA order.
type Config struct {
	P int // autoregressive order
	D int // differencing order
	Q int // moving-average order
}

// Model is a fitted ARIMA model. It keeps enough trailing state to produce
// one-step rolling forecasts as new observations arrive.
type Model struct {
	Cfg       Config
	Intercept float64
	AR        []float64 // φ_1..φ_p
	MA        []float64 // θ_1..θ_q

	w     []float64 // differenced series (training, then appended updates)
	e     []float64 // residuals aligned with w
	level []float64 // last value of each differencing level 0..d-1

	lastPredW float64 // most recent one-step prediction at the differenced level
	predValid bool
}

// Fit estimates an ARIMA model on series. The series must contain at
// least max(3(p+q+1), p+q+d+2) observations.
func Fit(series []float64, cfg Config) (*Model, error) {
	if cfg.P < 0 || cfg.D < 0 || cfg.Q < 0 {
		return nil, fmt.Errorf("arima: negative order %+v", cfg)
	}
	if cfg.P == 0 && cfg.Q == 0 {
		return nil, errors.New("arima: p and q cannot both be zero")
	}
	minN := 3 * (cfg.P + cfg.Q + 1)
	if m := cfg.P + cfg.Q + cfg.D + 2; m > minN {
		minN = m
	}
	if len(series) < minN {
		return nil, fmt.Errorf("arima: need at least %d observations, have %d", minN, len(series))
	}
	m := &Model{Cfg: cfg}
	w := stats.Diff(series, cfg.D)
	m.w = append([]float64(nil), w...)
	m.level = lastLevels(series, cfg.D)

	// Start values: intercept = mean, AR via Yule–Walker, MA at zero.
	x0 := make([]float64, 1+cfg.P+cfg.Q)
	x0[0] = stats.Mean(w)
	if cfg.P > 0 {
		phi, err := yuleWalker(w, cfg.P)
		if err == nil {
			copy(x0[1:1+cfg.P], phi)
		}
	}

	objective := func(params []float64) float64 {
		return css(w, cfg, params)
	}
	best := x0
	if cfg.Q > 0 || cfg.P > 0 {
		best, _ = nelderMead(objective, x0, 300*len(x0))
	}
	m.Intercept = best[0]
	m.AR = append([]float64(nil), best[1:1+cfg.P]...)
	m.MA = append([]float64(nil), best[1+cfg.P:]...)
	m.e = residuals(w, cfg, m.Intercept, m.AR, m.MA)
	return m, nil
}

// lastLevels returns the final value of each differencing level 0..d-1 of
// series (level 0 is the raw series).
func lastLevels(series []float64, d int) []float64 {
	levels := make([]float64, d)
	cur := series
	for k := 0; k < d; k++ {
		levels[k] = cur[len(cur)-1]
		cur = stats.Diff(cur, 1)
	}
	return levels
}

// yuleWalker solves the Yule–Walker equations for AR(p) coefficients.
func yuleWalker(w []float64, p int) ([]float64, error) {
	acf := stats.ACF(w, p)
	b := make([]float64, p)
	copy(b, acf[1:])
	return solveToeplitz(acf[:p], b)
}

// errSingular is returned when a system is singular or numerically
// unsolvable at working precision.
var errSingular = errors.New("arima: matrix is singular to working precision")

// solveToeplitz solves the symmetric Toeplitz system T·x = b where T is
// defined by its first row r (the Levinson–Durbin recursion). It is used by
// the Yule–Walker equations for AR start values.
func solveToeplitz(r, b []float64) ([]float64, error) {
	n := len(b)
	if len(r) < n {
		return nil, errors.New("arima: solveToeplitz needs len(r) >= len(b)")
	}
	if r[0] == 0 {
		return nil, errSingular
	}
	x := make([]float64, n)
	// Forward vector for the Levinson recursion.
	f := make([]float64, n)
	f[0] = 1 / r[0]
	x[0] = b[0] / r[0]
	for k := 1; k < n; k++ {
		// epsilon_f = sum r[k-i]*f[i] over i in [0,k)
		ef := 0.0
		for i := 0; i < k; i++ {
			ef += r[k-i] * f[i]
		}
		denom := 1 - ef*ef
		if denom == 0 {
			return nil, errSingular
		}
		// Update forward vector (symmetric Toeplitz: backward = reversed forward).
		newF := make([]float64, k+1)
		for i := 0; i <= k; i++ {
			var fi, bi float64
			if i < k {
				fi = f[i]
			}
			if i > 0 {
				bi = f[k-i] // backward vector entry
			}
			newF[i] = (fi - ef*bi) / denom
		}
		f = newF
		// epsilon_x = sum r[k-i]*x[i]
		ex := 0.0
		for i := 0; i < k; i++ {
			ex += r[k-i] * x[i]
		}
		// x update with backward vector (reverse of f).
		for i := 0; i <= k; i++ {
			x[i] += (b[k] - ex) * f[k-i]
		}
	}
	return x, nil
}

// css computes the conditional sum of squares for the parameter vector
// (intercept, AR..., MA...). Pre-sample residuals are zero.
func css(w []float64, cfg Config, params []float64) float64 {
	c := params[0]
	ar := params[1 : 1+cfg.P]
	ma := params[1+cfg.P:]
	s := 0.0
	e := make([]float64, len(w))
	for t := cfg.P; t < len(w); t++ {
		pred := c
		for i, phi := range ar {
			pred += phi * w[t-1-i]
		}
		for j, theta := range ma {
			if t-1-j >= 0 {
				pred += theta * e[t-1-j]
			}
		}
		e[t] = w[t] - pred
		s += e[t] * e[t]
	}
	return s
}

// residuals replays the CSS recursion to produce the residual sequence.
func residuals(w []float64, cfg Config, c float64, ar, ma []float64) []float64 {
	e := make([]float64, len(w))
	for t := cfg.P; t < len(w); t++ {
		pred := c
		for i, phi := range ar {
			pred += phi * w[t-1-i]
		}
		for j, theta := range ma {
			if t-1-j >= 0 {
				pred += theta * e[t-1-j]
			}
		}
		e[t] = w[t] - pred
	}
	return e
}

// predictW returns the one-step prediction at the differenced level given
// the current w/e history.
func (m *Model) predictW() float64 {
	pred := m.Intercept
	n := len(m.w)
	for i, phi := range m.AR {
		if n-1-i >= 0 {
			pred += phi * m.w[n-1-i]
		}
	}
	ne := len(m.e)
	for j, theta := range m.MA {
		if ne-1-j >= 0 {
			pred += theta * m.e[ne-1-j]
		}
	}
	return pred
}

// integrate converts a predicted value at the differenced level into the
// original scale using the stored level state.
func (m *Model) integrate(pd float64, levels []float64) float64 {
	v := pd
	for k := len(levels) - 1; k >= 0; k-- {
		v += levels[k]
	}
	return v
}

// OneStep returns the one-step-ahead forecast on the original scale
// without consuming an observation. Call Update with the realized value to
// advance the model.
func (m *Model) OneStep() float64 {
	m.lastPredW = m.predictW()
	m.predValid = true
	return m.integrate(m.lastPredW, m.level)
}

// Update absorbs the realized observation, computing the residual against
// the latest one-step prediction and advancing the differencing state.
func (m *Model) Update(actual float64) {
	if !m.predValid {
		m.OneStep()
	}
	// New differenced value: difference the actual against the stored levels.
	newLevels := make([]float64, len(m.level))
	v := actual
	for k := 0; k < len(m.level); k++ {
		newLevels[k] = v
		v -= m.level[k]
	}
	wNew := v // the d-th difference
	m.w = append(m.w, wNew)
	m.e = append(m.e, wNew-m.lastPredW)
	m.level = newLevels
	m.predValid = false
}

// Forecast produces an h-step-ahead forecast from the current state, with
// future innovations set to zero, integrated to the original scale.
func (m *Model) Forecast(h int) []float64 {
	if h <= 0 {
		return nil
	}
	w := append([]float64(nil), m.w...)
	e := append([]float64(nil), m.e...)
	levels := append([]float64(nil), m.level...)
	out := make([]float64, h)
	for s := 0; s < h; s++ {
		pred := m.Intercept
		for i, phi := range m.AR {
			if len(w)-1-i >= 0 {
				pred += phi * w[len(w)-1-i]
			}
		}
		for j, theta := range m.MA {
			if len(e)-1-j >= 0 {
				pred += theta * e[len(e)-1-j]
			}
		}
		// Integrate and update the levels as if pred were observed.
		v := pred
		for k := len(levels) - 1; k >= 0; k-- {
			v += levels[k]
		}
		out[s] = v
		// Advance levels.
		x := v
		for k := 0; k < len(levels); k++ {
			nk := x
			x -= levels[k]
			levels[k] = nk
		}
		w = append(w, pred)
		e = append(e, 0)
	}
	return out
}

// RollingForecast produces one-step-ahead forecasts for each element of
// actuals, updating the model with the true value after each prediction.
// This is the standard evaluation protocol for ARIMA on a held-out test
// segment. The model state is advanced; fit a fresh model to reuse it.
func (m *Model) RollingForecast(actuals []float64) []float64 {
	out := make([]float64, len(actuals))
	for i, a := range actuals {
		out[i] = m.OneStep()
		m.Update(a)
	}
	return out
}
