// Package fault is a deterministic, scope-tagged fault injector for
// chaos-testing the training and serving paths. Call sites register
// themselves implicitly by probing a scope ("train.batch.loss",
// "serve.infer", ...); tests arm an Injector with rules that fire at
// exact hit counts, so every injected NaN, panic, I/O error, or latency
// spike is reproducible run to run — no RNG, no wall-clock dependence.
//
// Zero overhead when disabled (the production default): every helper's
// fast path is a single atomic pointer load returning immediately, the
// same pattern obs/trace uses, so instrumented hot loops pay nothing.
//
// Usage in a test:
//
//	inj := fault.NewInjector(
//	    fault.Rule{Scope: "train.batch.loss", Kind: fault.KindNaN, After: 3, Times: 1},
//	    fault.Rule{Scope: "serve.infer", Kind: fault.KindPanic, Every: 5},
//	)
//	defer fault.Activate(inj)()
//	... drive the system; assert it survives ...
//	if inj.Fired("train.batch.loss") == 0 { t.Fatal("point never exercised") }
package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed rule injects.
type Kind int

// The injectable fault kinds.
const (
	// KindError makes Error return the rule's Err.
	KindError Kind = iota
	// KindPanic makes any helper panic with a *Panic value.
	KindPanic
	// KindNaN makes NaN/Corrupt poison the probed value with Value.
	KindNaN
	// KindLatency makes any helper sleep for Latency.
	KindLatency
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindNaN:
		return "nan"
	case KindLatency:
		return "latency"
	}
	return "unknown"
}

// ErrInjected is the default error KindError rules return.
var ErrInjected = errors.New("fault: injected error")

// Panic is the value KindPanic rules panic with, so recovery layers can
// tell an injected panic from a real one in logs.
type Panic struct{ Scope string }

// Error implements error for convenient formatting after recover().
func (p *Panic) Error() string { return "fault: injected panic at " + p.Scope }

// Rule arms one fault at a scope. Firing is counter-based and therefore
// deterministic: the rule skips the first After hits of its scope, then
// fires on every Every-th eligible hit (default 1 = every hit), at most
// Times times (0 = unlimited).
type Rule struct {
	Scope string
	Kind  Kind
	After int
	Every int
	Times int
	// Err is returned by KindError rules (ErrInjected when nil).
	Err error
	// Latency is slept by KindLatency rules.
	Latency time.Duration
	// Value is what KindNaN rules poison with; use NaN (the constructor
	// helpers' default) or e.g. math.Inf(1) for an exploding activation.
	Value float64
}

// armedRule is a Rule with its per-rule hit/fire counters.
type armedRule struct {
	Rule
	hits  atomic.Int64
	fired atomic.Int64
}

// shouldFire advances the rule's hit counter and reports whether this
// hit fires. Atomic counters make the decision a pure function of the
// hit index, so concurrent probes under -race stay deterministic in
// aggregate (each hit index fires or not, regardless of interleaving).
func (r *armedRule) shouldFire() bool {
	n := r.hits.Add(1)
	if n <= int64(r.After) {
		return false
	}
	every := int64(r.Every)
	if every <= 0 {
		every = 1
	}
	if (n-int64(r.After)-1)%every != 0 {
		return false
	}
	if r.Times > 0 && r.fired.Add(1) > int64(r.Times) {
		return false
	}
	if r.Times <= 0 {
		r.fired.Add(1)
	}
	return true
}

// Injector holds armed rules, indexed by scope. Construct with
// NewInjector and install with Activate; a nil or inactive injector
// costs call sites one atomic load.
type Injector struct {
	mu    sync.Mutex
	rules map[string][]*armedRule
	// probes counts every probe per scope (armed or not is irrelevant
	// once the injector is active), so chaos suites can assert that each
	// registered point was actually exercised.
	probes sync.Map // string -> *atomic.Int64
}

// NewInjector arms the given rules.
func NewInjector(rules ...Rule) *Injector {
	inj := &Injector{rules: map[string][]*armedRule{}}
	for _, r := range rules {
		if r.Kind == KindNaN && r.Value == 0 {
			r.Value = math.NaN()
		}
		if r.Kind == KindError && r.Err == nil {
			r.Err = ErrInjected
		}
		inj.rules[r.Scope] = append(inj.rules[r.Scope], &armedRule{Rule: r})
	}
	return inj
}

// Fired returns how many times any rule at scope has fired.
func (inj *Injector) Fired(scope string) int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var n int64
	for _, r := range inj.rules[scope] {
		f := r.fired.Load()
		if r.Times > 0 && f > int64(r.Times) {
			f = int64(r.Times)
		}
		n += f
	}
	return n
}

// Probes returns how many times the scope was probed while this
// injector was active — the proof a registered point is actually wired
// into the code path a chaos test drives.
func (inj *Injector) Probes(scope string) int64 {
	if c, ok := inj.probes.Load(scope); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// Scopes lists every scope probed while the injector was active.
func (inj *Injector) Scopes() []string {
	var out []string
	inj.probes.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	return out
}

func (inj *Injector) countProbe(scope string) {
	c, ok := inj.probes.Load(scope)
	if !ok {
		c, _ = inj.probes.LoadOrStore(scope, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)
}

// match returns the armed rules at scope whose kind passes keep.
func (inj *Injector) match(scope string, keep func(Kind) bool) []*armedRule {
	inj.countProbe(scope)
	var out []*armedRule
	for _, r := range inj.rules[scope] {
		if keep(r.Kind) {
			out = append(out, r)
		}
	}
	return out
}

// active is the process-wide injector; nil means disabled, making every
// helper's fast path one atomic load.
var active atomic.Pointer[Injector]

// Activate installs inj as the process-wide injector and returns a
// function that removes it (handy with defer in tests). Activating nil
// disables injection.
func Activate(inj *Injector) func() {
	active.Store(inj)
	return func() { active.CompareAndSwap(inj, nil) }
}

// Deactivate removes any active injector.
func Deactivate() { active.Store(nil) }

// Active returns the installed injector, or nil.
func Active() *Injector { return active.Load() }

// fire executes one rule's side effect and reports the error to return
// (non-nil only for KindError).
func fire(r *armedRule) error {
	switch r.Kind {
	case KindLatency:
		time.Sleep(r.Latency)
	case KindPanic:
		panic(&Panic{Scope: r.Scope})
	case KindError:
		return fmt.Errorf("%s: %w", r.Scope, r.Err)
	}
	return nil
}

// Error probes scope for error, panic, and latency rules. It returns
// the injected error (which call sites propagate like a real I/O
// failure), panics, or sleeps; nil when nothing fires.
func Error(scope string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	for _, r := range inj.match(scope, func(k Kind) bool { return k != KindNaN }) {
		if r.shouldFire() {
			if err := fire(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Disrupt probes scope for panic and latency rules — the helper for
// call sites that cannot surface an error (e.g. a Layer.Forward).
func Disrupt(scope string) { DisruptWithin(context.Background(), time.Time{}, scope) }

// DisruptWithin is Disrupt for a call site that serves a request: an
// injected latency ends early when ctx is done or deadline (zero: none)
// passes, so the fault delays the request as a slow dependency would
// and no longer than the request's own bounds allow.
func DisruptWithin(ctx context.Context, deadline time.Time, scope string) {
	inj := active.Load()
	if inj == nil {
		return
	}
	for _, r := range inj.match(scope, func(k Kind) bool { return k == KindPanic || k == KindLatency }) {
		if !r.shouldFire() {
			continue
		}
		if r.Kind != KindLatency {
			fire(r) //nolint:errcheck // only panic kinds remain
			continue
		}
		d := r.Latency
		if !deadline.IsZero() {
			d = min(d, time.Until(deadline))
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
}

// NaN probes scope for NaN rules and returns v, poisoned with the
// rule's value when one fires.
func NaN(scope string, v float64) float64 {
	inj := active.Load()
	if inj == nil {
		return v
	}
	for _, r := range inj.match(scope, func(k Kind) bool { return k == KindNaN }) {
		if r.shouldFire() {
			v = r.Value
		}
	}
	return v
}

// Corrupt probes scope for NaN rules and, when one fires, poisons the
// first element of data with the rule's value — an injected bad
// activation that a divergence guard must catch downstream.
func Corrupt(scope string, data []float64) {
	inj := active.Load()
	if inj == nil {
		return
	}
	for _, r := range inj.match(scope, func(k Kind) bool { return k == KindNaN }) {
		if r.shouldFire() && len(data) > 0 {
			data[0] = r.Value
		}
	}
}
