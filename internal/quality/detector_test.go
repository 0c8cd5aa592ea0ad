package quality

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestPageHinkleyFiresOnMutations drives the detector with the synthetic
// mutation trace and checks the acceptance criterion: a fire within two
// detector windows (2·MedianWidth samples) of every injected point, and
// zero fires on the stationary segments.
func TestPageHinkleyFiresOnMutations(t *testing.T) {
	const samples = 4000
	points := []int{1500, 2600} // step up, step back down
	e := trace.GenerateWithMutations(samples, points, 13)
	cpu := e.Series(trace.CPUUtilPercent)

	d := NewPageHinkley(MutationConfig{})
	var fires []int
	for i, v := range cpu {
		if d.Push(v) {
			fires = append(fires, i)
		}
	}
	if d.n < d.cfg.Warmup {
		t.Fatal("detector never armed")
	}
	window := 2 * 31 // two detector windows (default MedianWidth 31)
	matched := make([]bool, len(points))
	for _, f := range fires {
		ok := false
		for i, p := range points {
			if f >= p && f <= p+window {
				matched[i], ok = true, true
			}
		}
		if !ok {
			t.Errorf("false alarm at sample %d (injected points %v)", f, points)
		}
	}
	for i, m := range matched {
		if !m {
			t.Errorf("no detection within %d samples of injected point %d (fires %v)",
				window, points[i], fires)
		}
	}
}

// TestPageHinkleyQuietOnStationary: an unmutated trace must produce zero
// fires — the generator's own mild dynamics (diurnal cycle, AR noise,
// short bursts) are not mutations.
func TestPageHinkleyQuietOnStationary(t *testing.T) {
	e := trace.GenerateWithMutations(4000, nil, 13)
	d := NewPageHinkley(MutationConfig{})
	for i, v := range e.Series(trace.CPUUtilPercent) {
		if d.Push(v) {
			t.Fatalf("false alarm at sample %d on stationary trace", i)
		}
	}
}

// TestPageHinkleyBurstImmunity: a short spike taller than the mutation
// step must not fire (the median prefilter absorbs it), while the
// sustained step right after it must.
func TestPageHinkleyBurstImmunity(t *testing.T) {
	d := NewPageHinkley(MutationConfig{})
	sig := make([]float64, 0, 1200)
	osc := func(i int) float64 { // deterministic ±1 dither so scale > 0
		if i%2 == 0 {
			return 1
		}
		return -1
	}
	for i := 0; i < 600; i++ {
		v := 20 + osc(i)
		if i >= 400 && i < 410 { // 10-sample burst, +50
			v += 50
		}
		sig = append(sig, v)
	}
	for i := 600; i < 1200; i++ { // sustained +30 step at 600
		sig = append(sig, 50+osc(i))
	}
	var fires []int
	for i, v := range sig {
		if d.Push(v) {
			fires = append(fires, i)
		}
	}
	for _, f := range fires {
		if f < 600 {
			t.Fatalf("burst fired the detector at %d", f)
		}
	}
	if len(fires) == 0 {
		t.Fatal("sustained step not detected")
	}
	if fires[0] > 600+62 {
		t.Fatalf("step at 600 detected late, at %d", fires[0])
	}
}

func TestPageHinkleyIgnoresNonFinite(t *testing.T) {
	d := NewPageHinkley(MutationConfig{MedianWidth: 3, Warmup: 4})
	for i := 0; i < 50; i++ {
		d.Push(math.NaN())
		d.Push(math.Inf(1))
		d.Push(5)
	}
	if d.n < d.cfg.Warmup {
		t.Fatal("finite samples interleaved with NaN should arm the detector")
	}
	if d.fired != 0 {
		t.Fatal("constant signal fired")
	}
}

func TestDriftDetectorLadder(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Baseline: 32, Alpha: 0.25})
	// Baseline: alternating 4/6 (mean 5, std ~1).
	for i := 0; i < 32; i++ {
		if st := d.Push(5 + float64(i%2*2-1)); st != DriftOK {
			t.Fatalf("state %v during baseline", st)
		}
	}
	mean, std, n := d.Baseline()
	if n != 32 || math.Abs(mean-5) > 1e-9 || std <= 0 {
		t.Fatalf("baseline mean=%v std=%v n=%d", mean, std, n)
	}
	// Level shifts to mean+3σ: should pass through warn.
	sawWarn := false
	st := DriftOK
	for i := 0; i < 40; i++ {
		st = d.Push(mean + 3*std)
		if st == DriftWarn {
			sawWarn = true
		}
	}
	if !sawWarn || st != DriftWarn {
		t.Fatalf("3σ level: sawWarn=%v final=%v, want warn", sawWarn, st)
	}
	// Level at mean+6σ: alarm.
	for i := 0; i < 60; i++ {
		st = d.Push(mean + 6*std)
	}
	if st != DriftAlarm {
		t.Fatalf("6σ level gave %v, want alarm", st)
	}
	// Recovery.
	for i := 0; i < 200; i++ {
		st = d.Push(mean)
	}
	if st != DriftOK {
		t.Fatalf("recovery gave %v, want ok", st)
	}
}

func TestDriftDetectorMinStdFloor(t *testing.T) {
	// A constant-zero baseline (OOR ratio pinned at 0) with MinStd 0.02:
	// a rise to 0.04 (2σ) warns, 0.1 (5σ) alarms, 0.01 stays OK.
	d := NewDriftDetector(DriftConfig{Baseline: 16, Alpha: 0.5, MinStd: 0.02})
	for i := 0; i < 16; i++ {
		d.Push(0)
	}
	st := DriftOK
	for i := 0; i < 30; i++ {
		st = d.Push(0.01)
	}
	if st != DriftOK {
		t.Fatalf("0.01 ratio gave %v, want ok", st)
	}
	for i := 0; i < 30; i++ {
		st = d.Push(0.1)
	}
	if st != DriftAlarm {
		t.Fatalf("0.1 ratio gave %v, want alarm", st)
	}
}
