package server

import (
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// StatusClientClosedRequest is the (nginx-convention) status recorded
// when the client goes away before the forecast completes. It is not a
// server error: it never increments the 5xx error counter and never
// trips the circuit breaker.
const StatusClientClosedRequest = 499

// ResilienceConfig tunes the serving fault-tolerance layer. The zero
// value gets production-safe defaults — resilience is always on.
type ResilienceConfig struct {
	// MaxInFlight caps concurrently served requests (beyond it the
	// server sheds load with 429 + Retry-After). /healthz and /metrics
	// are exempt so probes and scrapes survive overload. Default 32.
	MaxInFlight int
	// RequestTimeout bounds one forecast inference; past it the request
	// degrades to the naive fallback. Default 10s.
	RequestTimeout time.Duration
}

func (c *ResilienceConfig) fillDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
}

// WithResilience overrides the default limits.
func WithResilience(cfg ResilienceConfig) Option {
	return func(s *Server) { s.resilience = cfg }
}

// The serving breaker watches the last 20 inference outcomes and opens
// when half of them failed, short-circuiting straight to the fallback
// for 5 s before probing the model again (half-open).
const (
	breakerWindow    = 20
	breakerThreshold = 0.5
	breakerCooldown  = 5 * time.Second
)

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a sliding-window circuit breaker. Failures are model
// failures only (panic, timeout, non-finite output) — client mistakes
// and disconnects never count.
type breaker struct {
	threshold float64 // open at failures/len(window) >= this
	cooldown  time.Duration
	gauge     *obs.Gauge // rptcn_circuit_open: 0 closed, 1 open/half-open

	mu       sync.Mutex
	window   []bool // ring of outcomes, true = failure
	next     int
	filled   int
	failures int
	state    int
	openedAt time.Time
	probing  bool // a half-open trial request is in flight
}

func newBreaker(window int, threshold float64, cooldown time.Duration, gauge *obs.Gauge) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, gauge: gauge, window: make([]bool, window)}
}

// allow reports whether the model may be tried for this request. In the
// open state it returns false until cooldown elapses, then admits a
// single half-open probe whose outcome decides reopen-vs-close.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds one inference outcome back into the breaker.
func (b *breaker) record(failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
		if failure {
			b.trip()
		} else {
			b.reset()
		}
		return
	}
	if b.window[b.next] {
		b.failures--
	}
	b.window[b.next] = failure
	if failure {
		b.failures++
	}
	b.next = (b.next + 1) % len(b.window)
	if b.filled < len(b.window) {
		b.filled++
	}
	if b.state == breakerClosed && b.filled == len(b.window) &&
		float64(b.failures) >= b.threshold*float64(len(b.window)) {
		b.trip()
	}
}

// trip opens the breaker (must hold mu).
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.gauge.Set(1)
}

// reset closes the breaker and clears the window (must hold mu).
func (b *breaker) reset() {
	b.state = breakerClosed
	for i := range b.window {
		b.window[i] = false
	}
	b.failures, b.next, b.filled = 0, 0, 0
	b.gauge.Set(0)
}

// release hands back a half-open probe slot without an outcome (the
// request was canceled or turned out to be a client error); the next
// request gets to probe instead. No-op in other states.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// open reports whether the breaker currently short-circuits requests.
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerClosed
}

// recovered wraps a handler with panic recovery: a panicking handler
// produces a 500 (when nothing was written yet), a stack trace in the
// log, and a counter increment — never a crashed process.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			s.panics.Inc()
			s.log.Error("panic recovered in handler",
				"path", r.URL.Path, "panic", p, "stack", string(debug.Stack()))
			if rec, ok := w.(*statusRecorder); !ok || rec.status == 0 {
				s.writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		h(w, r)
	}
}

// limited wraps a handler with the concurrency limiter: past MaxInFlight
// concurrent requests, further ones are shed immediately with 429 and a
// Retry-After hint instead of queueing without bound.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			h(w, r)
		default:
			s.dropped.Inc()
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
		}
	}
}

// fallbackForecast is the degraded answer of both forecast routes: a
// last-value (persistence) forecast, the target indicator's newest sample
// repeated over the horizon. It reads that sample from the POST window,
// or from the entity's ring when post is nil, and never touches the model.
func (s *Server) fallbackForecast(entity string, post *ForecastRequest) ([]float64, bool) {
	idx := s.inputs.Target
	var last float64
	found := false
	if post != nil {
		if idx < len(post.Indicators) && len(post.Indicators[idx]) > 0 {
			last, found = post.Indicators[idx][len(post.Indicators[idx])-1], true
		}
	} else {
		s.rings.WithWindow(entity, 1, func(win [][]float64, _, _ int) {
			if idx < len(win) && len(win[idx]) > 0 {
				last, found = win[idx][len(win[idx])-1], true
			}
		})
	}
	if !found {
		return nil, false
	}
	fb := make([]float64, s.predictor.Cfg.Horizon)
	for i := range fb {
		fb[i] = last
	}
	return fb, true
}

// finiteAll reports whether every forecast value is a usable number; a
// NaN/Inf anywhere means the model output is poisoned and must not be
// handed to a resource manager.
func finiteAll(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
