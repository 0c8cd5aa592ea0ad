package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10} // a bound of the test's own
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	ok := metricDef{Name: "ok_ratio", Better: "higher", Bound: 0.01}
	for _, c := range []struct {
		d                      metricDef
		parent, change, spread float64
		want                   string
	}{
		{lower, 100, 105, 0.02, unchanged},
		{lower, 100, 111, 0.02, regressed},
		{lower, 100, 95, 0.02, improved},
		{lower, 100, 99, 0.02, unchanged}, // better, but within the spread
		{lower, 100, 150, 0.12, unresolved},
		{higher, 100, 89, 0.02, regressed},
		{higher, 100, 120, 0.02, improved},
		{ok, 1, 0.999, 0, regressed}, // any rise in failed ops, whatever the bound
		{ok, 1, 1, 0, unchanged},
	} {
		if _, got := judge(c.d, c.parent, c.change, c.spread); got != c.want {
			t.Errorf("%s %v -> %v at spread %v: %s, want %s", c.d.Name, c.parent, c.change, c.spread, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(name string, p50 float64) string {
		var records []runRecord
		for _, w := range workloadNames {
			for seed := uint64(1); seed <= 3; seed++ {
				m := map[string]metricValue{}
				for _, d := range endToEnd {
					m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
				}
				m["op_p50_ms"] = metricValue{Value: p50 + float64(seed)/1000, Unit: "ms"}
				records = append(records, runRecord{Workload: w, Seed: seed, Correct: true, Metrics: m})
			}
		}
		data, err := json.Marshal(records)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, same, slower := write("a.json", 1), write("b.json", 1.01), write("c.json", 1.4)
	var out bytes.Buffer
	if err := compareFiles(&out, parent, same); err != nil {
		t.Errorf("an A/A pair failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), regressed) || strings.Contains(out.String(), unresolved) {
		t.Errorf("an A/A pair has a verdict other than unchanged or improved:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, parent, slower); err == nil {
		t.Errorf("a 40 %% slower p50 passed:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "REGRESSED:"); n != len(workloadNames) {
		t.Errorf("%d regressions reported, want one per workload:\n%s", n, out.String())
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, equal to the catalogue the program reports from, and the recorded
// baseline complete.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", b.RunSeconds, defaultSeconds)
	}

	var base baseline
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			m, ok := base.Workloads[w][d.Name]
			if !ok || m.Median <= 0 {
				t.Errorf("baseline.json has no median for %s %s", w, d.Name)
			}
			if d.Name != "setup_s" && m.Spread > d.Bound {
				t.Errorf("%s %s: recorded spread %.4f is over the bound %.2f, so -compare cannot resolve it", w, d.Name, m.Spread, d.Bound)
			}
		}
	}
}
