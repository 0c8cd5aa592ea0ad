package quality

import (
	"math"
	"strings"
	"testing"
)

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(" mae <= 5 , p90_abs_err<=12@240; bias>=-2 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rules))
	}
	want := []Rule{
		{Metric: "mae", Op: "<=", Threshold: 5},
		{Metric: "p90_abs_err", Op: "<=", Threshold: 12, Window: 240},
		{Metric: "bias", Op: ">=", Threshold: -2},
	}
	for i, r := range rules {
		if r != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, r, want[i])
		}
	}
	if s := rules[1].String(); s != "p90_abs_err<=12@240" {
		t.Errorf("String() = %q", s)
	}
	if got, err := ParseRules(""); err != nil || len(got) != 0 {
		t.Errorf("empty spec: %v %v", got, err)
	}
}

func TestParseRulesErrors(t *testing.T) {
	for _, bad := range []string{
		"mae=5",    // no operator
		"nope<=5",  // unknown metric
		"mae<=abc", // bad threshold
		"mae<=5@0", // bad window
		"mae<=5@x", // bad window
		"mae<=NaN", // NaN threshold
		"<=5",      // no metric
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) accepted", bad)
		}
	}
}

func TestEvalRuleStates(t *testing.T) {
	errs := []float64{1, -2, 3, -1, 2, 1, -3, 2} // |errs| mean = 1.875
	r := Rule{Metric: "mae", Op: "<=", Threshold: 2}

	if st := evalRule(r, errs, 256, 16); st.State != sloPending {
		t.Fatalf("below min count: %v, want pending", st.State)
	}
	st := evalRule(r, errs, 256, 4)
	if st.State != sloOK || st.Value != 1.875 || st.Count != 8 {
		t.Fatalf("ok rule: %+v", st)
	}
	r.Threshold = 1
	if st := evalRule(r, errs, 256, 4); st.State != sloBreach {
		t.Fatalf("breach rule: %v", st.State)
	}

	// Burn window: only the last 4 errors count.
	r = Rule{Metric: "mae", Op: "<=", Threshold: 2, Window: 4}
	st = evalRule(r, errs, 256, 4)
	if st.Count != 4 || st.Value != (1.0+3+2+2)/4 {
		t.Fatalf("windowed: %+v", st)
	}
}

func TestSLOMetrics(t *testing.T) {
	errs := []float64{2, -1, 0, 3, -4}
	checks := map[string]float64{
		"mae":         2, // (2+1+0+3+4)/5
		"mse":         6, // (4+1+0+9+16)/5
		"bias":        0, // (2-1+0+3-4)/5
		"abs_bias":    0,
		"p50_abs_err": 2,
		"p90_abs_err": 4,
		"p99_abs_err": 4,
		"over_ratio":  0.4, // 2 and 3
		"under_ratio": 0.4, // -1 and -4
	}
	for m, want := range checks {
		if got := sloMetric(m, errs); got != want {
			t.Errorf("%s = %v, want %v", m, got, want)
		}
	}
	if !math.IsNaN(sloMetric("bogus", errs)) {
		t.Error("unknown metric should be NaN")
	}
}

func TestAbsQuantile(t *testing.T) {
	errs := []float64{-5, 1, 2, 3, 4, -6, 7, 8, 9, 10}
	if q := absQuantile(errs, 0.5); q != 5 {
		t.Errorf("p50 = %v, want 5", q)
	}
	if q := absQuantile(errs, 0.9); q != 9 {
		t.Errorf("p90 = %v, want 9", q)
	}
	if q := absQuantile(errs, 1.0); q != 10 {
		t.Errorf("p100 = %v, want 10", q)
	}
	if q := absQuantile([]float64{3}, 0.01); q != 3 {
		t.Errorf("single = %v, want 3", q)
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	for _, spec := range []string{"mae<=5", "mse>0.25", "bias>=-1.5@32", "under_ratio<0.7"} {
		rules, err := ParseRules(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := rules[0].String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
		// Canonical form parses back to the same rule.
		again, err := ParseRules(rules[0].String())
		if err != nil || again[0] != rules[0] {
			t.Errorf("reparse %q: %v %v", spec, again, err)
		}
	}
	all := strings.Join(sloMetricNames, ",")
	if !strings.Contains(all, "p90_abs_err") {
		t.Fatal("metric list incomplete")
	}
}

// FuzzParseRules: no spec makes ParseRules panic, every rule it accepts
// is well formed — a known metric, one of the four operators, a threshold
// that is not NaN, a window ≥ 0 — and a rule's String parses back to that
// rule alone. Seeds are the specs above; the corpus under testdata/fuzz
// adds the grammar's edges (infinite, hex and signed thresholds,
// operators run together, stray separators and windows).
func FuzzParseRules(f *testing.F) {
	for _, spec := range []string{
		" mae <= 5 , p90_abs_err<=12@240; bias>=-2 ", "mse>0.25", "bias>=-1.5@32", "under_ratio<0.7",
		"mae=5", "nope<=5", "mae<=abc", "mae<=5@0", "mae<=5@x", "mae<=NaN", "<=5", "",
	} {
		f.Add(spec)
	}
	ops := map[string]bool{"<=": true, "<": true, ">=": true, ">": true}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			if !validSLOMetric(r.Metric) || !ops[r.Op] || math.IsNaN(r.Threshold) || r.Window < 0 {
				t.Fatalf("ParseRules(%q) accepted a malformed rule %+v", spec, r)
			}
			again, err := ParseRules(r.String())
			if err != nil || len(again) != 1 || again[0] != r {
				t.Fatalf("rule %+v from %q renders as %q, which parses to %+v (%v)", r, spec, r.String(), again, err)
			}
		}
	})
}
