package fault

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestDisabledInjectorIsInert(t *testing.T) {
	Deactivate()
	if err := Error("x"); err != nil {
		t.Fatalf("disabled Error = %v", err)
	}
	if v := NaN("x", 1.5); v != 1.5 {
		t.Fatalf("disabled NaN = %v", v)
	}
	data := []float64{1, 2}
	Corrupt("x", data)
	if data[0] != 1 {
		t.Fatalf("disabled Corrupt mutated data: %v", data)
	}
	Disrupt("x") // must not panic
}

func TestErrorRuleFiresDeterministically(t *testing.T) {
	inj := NewInjector(Rule{Scope: "io", Kind: KindError, After: 2, Every: 3})
	defer Activate(inj)()

	var pattern []bool
	for i := 0; i < 10; i++ {
		pattern = append(pattern, Error("io") != nil)
	}
	// Skip 2 hits, then fire every 3rd eligible hit: indices 2, 5, 8.
	want := []bool{false, false, true, false, false, true, false, false, true, false}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("pattern[%d] = %v, want %v (full: %v)", i, pattern[i], want[i], pattern)
		}
	}
	if got := inj.Fired("io"); got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}
	if got := inj.Probes("io"); got != 10 {
		t.Fatalf("Probes = %d, want 10", got)
	}
}

func TestErrorWrapsCustomError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	inj := NewInjector(Rule{Scope: "io", Kind: KindError, Err: sentinel})
	defer Activate(inj)()
	if err := Error("io"); !errors.Is(err, sentinel) {
		t.Fatalf("Error = %v, want wrapped %v", err, sentinel)
	}
}

func TestTimesCapsFirings(t *testing.T) {
	inj := NewInjector(Rule{Scope: "io", Kind: KindError, Times: 2})
	defer Activate(inj)()
	fired := 0
	for i := 0; i < 10; i++ {
		if Error("io") != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
	if got := inj.Fired("io"); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestNaNAndCorrupt(t *testing.T) {
	inj := NewInjector(
		Rule{Scope: "loss", Kind: KindNaN, Times: 1},
		Rule{Scope: "act", Kind: KindNaN, Value: math.Inf(1), Times: 1},
	)
	defer Activate(inj)()
	if v := NaN("loss", 0.25); !math.IsNaN(v) {
		t.Fatalf("NaN rule returned %v", v)
	}
	if v := NaN("loss", 0.25); v != 0.25 {
		t.Fatalf("exhausted NaN rule returned %v", v)
	}
	data := []float64{1, 2, 3}
	Corrupt("act", data)
	if !math.IsInf(data[0], 1) || data[1] != 2 {
		t.Fatalf("Corrupt result = %v", data)
	}
}

func TestPanicRuleCarriesScope(t *testing.T) {
	inj := NewInjector(Rule{Scope: "fwd", Kind: KindPanic})
	defer Activate(inj)()
	defer func() {
		r := recover()
		p, ok := r.(*Panic)
		if !ok || p.Scope != "fwd" {
			t.Fatalf("recovered %v, want *Panic{fwd}", r)
		}
	}()
	Disrupt("fwd")
	t.Fatal("Disrupt did not panic")
}

func TestLatencyRuleSleeps(t *testing.T) {
	inj := NewInjector(Rule{Scope: "slow", Kind: KindLatency, Latency: 30 * time.Millisecond})
	defer Activate(inj)()
	start := time.Now()
	Disrupt("slow")
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("Disrupt returned after %v, want >= 30ms", d)
	}
}

// TestDisruptWithinEndsAtBounds: DisruptWithin's injected latency runs
// its full length inside loose bounds, ends at the deadline or when the
// context is done, and its panic rules fire as Disrupt's do.
func TestDisruptWithinEndsAtBounds(t *testing.T) {
	inj := NewInjector(
		Rule{Scope: "slow", Kind: KindLatency, Latency: 30 * time.Millisecond},
		Rule{Scope: "stuck", Kind: KindLatency, Latency: time.Hour},
		Rule{Scope: "boom", Kind: KindPanic},
	)
	defer Activate(inj)()
	elapsed := func(ctx context.Context, deadline time.Time, scope string) time.Duration {
		start := time.Now()
		DisruptWithin(ctx, deadline, scope)
		return time.Since(start)
	}
	if d := elapsed(context.Background(), time.Now().Add(time.Minute), "slow"); d < 25*time.Millisecond {
		t.Fatalf("latency inside its bounds returned after %v, want >= 30ms", d)
	}
	if d := elapsed(context.Background(), time.Now().Add(20*time.Millisecond), "stuck"); d > 5*time.Second {
		t.Fatalf("latency past the deadline returned after %v", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if d := elapsed(ctx, time.Time{}, "stuck"); d > 5*time.Second {
		t.Fatalf("latency past a cancel returned after %v", d)
	}
	defer func() {
		if p, ok := recover().(*Panic); !ok || p.Scope != "boom" {
			t.Fatalf("recovered %v, want *Panic{boom}", p)
		}
	}()
	DisruptWithin(context.Background(), time.Time{}, "boom")
	t.Fatal("DisruptWithin did not panic")
}

func TestUnarmedScopeStillCountsProbes(t *testing.T) {
	inj := NewInjector()
	defer Activate(inj)()
	Disrupt("somewhere")
	if err := Error("somewhere"); err != nil {
		t.Fatal(err)
	}
	if got := inj.Probes("somewhere"); got != 2 {
		t.Fatalf("Probes = %d, want 2", got)
	}
	scopes := inj.Scopes()
	if len(scopes) != 1 || scopes[0] != "somewhere" {
		t.Fatalf("Scopes = %v", scopes)
	}
}

// TestConcurrentFiringIsExact: under concurrency, counter-based rules
// still fire exactly the armed number of times (chaos suites run -race).
func TestConcurrentFiringIsExact(t *testing.T) {
	inj := NewInjector(Rule{Scope: "c", Kind: KindError, Every: 10})
	defer Activate(inj)()
	const workers, per = 8, 125
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < per; i++ {
				if Error("c") != nil {
					local++
				}
			}
			mu.Lock()
			fired += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if want := workers * per / 10; fired != want {
		t.Fatalf("fired %d, want %d", fired, want)
	}
}

func TestActivateReturnsDeactivator(t *testing.T) {
	inj := NewInjector(Rule{Scope: "x", Kind: KindError})
	off := Activate(inj)
	if Active() != inj {
		t.Fatal("Activate did not install injector")
	}
	off()
	if Active() != nil {
		t.Fatal("deactivator did not remove injector")
	}
}

// BenchmarkDisabledProbe pins the disabled-injector fast path: one
// atomic load, no allocation (the Fit benchmarks must not regress).
func BenchmarkDisabledProbe(b *testing.B) {
	Deactivate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Error("train.batch.loss")
		_ = NaN("train.batch.loss", 1)
	}
}
