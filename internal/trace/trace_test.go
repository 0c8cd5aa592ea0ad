package trace

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestIndicatorNames(t *testing.T) {
	if CPUUtilPercent.String() != "cpu_util_percent" {
		t.Fatal("cpu indicator name wrong")
	}
	if Indicator(99).String() != "unknown" {
		t.Fatal("out-of-range indicator should be unknown")
	}
	ind, ok := IndicatorByName("mpki")
	if !ok || ind != MPKI {
		t.Fatal("IndicatorByName failed")
	}
	if _, ok := IndicatorByName("nope"); ok {
		t.Fatal("unknown name should not resolve")
	}
	if len(AllIndicators()) != NumIndicators {
		t.Fatal("AllIndicators length wrong")
	}
}

func TestGenerateShapesAndIDs(t *testing.T) {
	es := Generate(GeneratorConfig{Entities: 3, Kind: Container, Samples: 500, Seed: 1})
	if len(es) != 3 {
		t.Fatalf("entities = %d", len(es))
	}
	for _, e := range es {
		if e.Len() != 500 {
			t.Fatalf("samples = %d", e.Len())
		}
		if e.ID[0] != 'c' {
			t.Fatalf("container ID = %q", e.ID)
		}
		for _, ind := range AllIndicators() {
			if len(e.Series(ind)) != 500 {
				t.Fatal("indicator series length mismatch")
			}
		}
	}
	ms := Generate(GeneratorConfig{Entities: 1, Kind: Machine, Samples: 10, Seed: 2})
	if ms[0].ID[0] != 'm' {
		t.Fatalf("machine ID = %q", ms[0].ID)
	}
}

func TestGenerateValueRanges(t *testing.T) {
	es := Generate(GeneratorConfig{Entities: 4, Kind: Container, Samples: 2000, Seed: 3})
	for _, e := range es {
		for t2 := 0; t2 < e.Len(); t2++ {
			cpu := e.Metrics[CPUUtilPercent][t2]
			if cpu < 0 || cpu > 100 {
				t.Fatalf("cpu out of range: %g", cpu)
			}
			if v := e.Metrics[MemGPS][t2]; v < 0 || v > 1 {
				t.Fatalf("mem_gps out of range: %g", v)
			}
			if v := e.Metrics[NetIn][t2]; v < 0 || v > 1 {
				t.Fatalf("net_in out of range: %g", v)
			}
		}
	}
}

func TestGenerateReproducible(t *testing.T) {
	a := Generate(GeneratorConfig{Entities: 2, Samples: 300, Seed: 7})
	b := Generate(GeneratorConfig{Entities: 2, Samples: 300, Seed: 7})
	for i := range a {
		for ind := 0; ind < NumIndicators; ind++ {
			for t2 := range a[i].Metrics[ind] {
				if a[i].Metrics[ind][t2] != b[i].Metrics[ind][t2] {
					t.Fatal("same seed must reproduce the trace")
				}
			}
		}
	}
	c := Generate(GeneratorConfig{Entities: 2, Samples: 300, Seed: 8})
	if c[0].Metrics[CPUUtilPercent][10] == a[0].Metrics[CPUUtilPercent][10] &&
		c[0].Metrics[CPUUtilPercent][20] == a[0].Metrics[CPUUtilPercent][20] {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestGenerateMatchesSequentialAtAnyWorkerCount: fanning the entities
// out over the pool must not move a bit — every float equals what one
// goroutine drawing the entities in order from the same root produces.
func TestGenerateMatchesSequentialAtAnyWorkerCount(t *testing.T) {
	cfg := GeneratorConfig{Entities: 37, Kind: Container, Samples: 200, Seed: 11, MutationRate: 0.01, BurstRate: 0.02}
	filled := cfg
	filled.fillDefaults()
	root := tensor.NewRNG(cfg.Seed)
	want := make([]*EntitySeries, cfg.Entities)
	for i := range want {
		want[i] = generateEntity(filled, i, root.Split())
	}
	for _, workers := range []int{1, 2, 4} {
		prev := par.SetWorkers(workers)
		got := Generate(cfg)
		par.SetWorkers(prev)
		for i, e := range got {
			if e.ID != want[i].ID {
				t.Fatalf("workers=%d: entity %d is %s, want %s", workers, i, e.ID, want[i].ID)
			}
			for ind := range e.Metrics {
				for j, v := range e.Metrics[ind] {
					if math.Float64bits(v) != math.Float64bits(want[i].Metrics[ind][j]) {
						t.Fatalf("workers=%d: %s indicator %d sample %d = %v, sequential %v",
							workers, e.ID, ind, j, v, want[i].Metrics[ind][j])
					}
				}
			}
		}
	}
}

// The correlation structure must match Fig. 7: cpu–mpki, cpu–cpi and
// cpu–mem_gps strongly correlated; cpu–mem_util weak.
func TestGenerateCorrelationStructure(t *testing.T) {
	e := Generate(GeneratorConfig{Entities: 1, Kind: Container, Samples: 5000, Seed: 4})[0]
	cpu := e.Series(CPUUtilPercent)
	strong := []Indicator{MPKI, CPI, MemGPS}
	for _, ind := range strong {
		if r := stats.Pearson(cpu, e.Series(ind)); r < 0.8 {
			t.Fatalf("corr(cpu, %s) = %g, want strong (>0.8)", ind, r)
		}
	}
	weak := stats.Pearson(cpu, e.Series(MemUtilPercent))
	for _, ind := range strong {
		if r := stats.Pearson(cpu, e.Series(ind)); r <= weak {
			t.Fatalf("corr(cpu, %s)=%g should exceed corr(cpu, mem_util)=%g", ind, r, weak)
		}
	}
}

// Fig. 3 property: the majority of machines stay below 50% CPU.
func TestGenerateMachineFleetMostlyUnderHalf(t *testing.T) {
	es := Generate(GeneratorConfig{Entities: 50, Kind: Machine, Samples: 1000, Seed: 5})
	under := 0
	for _, e := range es {
		if stats.Mean(e.Series(CPUUtilPercent)) < 50 {
			under++
		}
	}
	if frac := float64(under) / 50; frac < 0.8 {
		t.Fatalf("only %.0f%% of machines under 50%% CPU, want >= 80%%", frac*100)
	}
}

// High-dynamics property (Fig. 1): the CPU series must contain substantial
// level shifts, not just stationary noise.
func TestGenerateContainsMutations(t *testing.T) {
	e := Generate(GeneratorConfig{Entities: 1, Kind: Container, Samples: 8000, Seed: 6})[0]
	cpu := e.Series(CPUUtilPercent)
	// Compare means across windows: at least one pair of windows must
	// differ by more than 8 CPU points.
	const win = 500
	var means []float64
	for lo := 0; lo+win <= len(cpu); lo += win {
		means = append(means, stats.Mean(cpu[lo:lo+win]))
	}
	lo, hi := means[0], means[0]
	for _, m := range means {
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	if hi-lo < 8 {
		t.Fatalf("window means spread %g, want > 8 (no regime shifts?)", hi-lo)
	}
}

func TestGenerateWithMutationStepChange(t *testing.T) {
	e := GenerateWithMutation(700, 350, 9)
	cpu := e.Series(CPUUtilPercent)
	before := stats.Mean(cpu[250:350])
	after := stats.Mean(cpu[350:450])
	if after-before < 20 {
		t.Fatalf("mutation step = %g, want >= 20", after-before)
	}
	// Out-of-range mutation index must be a no-op.
	e2 := GenerateWithMutation(100, 500, 9)
	if e2.Len() != 100 {
		t.Fatal("out-of-range mutation broke generation")
	}
}

func TestGenerateWithMutationsToggles(t *testing.T) {
	// Two points: offset on at 300, back off at 600.
	e := GenerateWithMutations(900, []int{300, 600}, 9)
	cpu := e.Series(CPUUtilPercent)
	before := stats.Mean(cpu[200:300])
	during := stats.Mean(cpu[300:600])
	after := stats.Mean(cpu[650:750])
	if during-before < 20 {
		t.Fatalf("step up = %g, want >= 20", during-before)
	}
	if during-after < 20 {
		t.Fatalf("step down = %g, want >= 20", during-after)
	}
	// A single point must reproduce GenerateWithMutation exactly.
	a := GenerateWithMutation(700, 350, 9)
	b := GenerateWithMutations(700, []int{350}, 9)
	for i, v := range a.Series(CPUUtilPercent) {
		if b.Series(CPUUtilPercent)[i] != v {
			t.Fatalf("sample %d: %g != %g", i, b.Series(CPUUtilPercent)[i], v)
		}
	}
}

func TestMissingRateInjectsNaN(t *testing.T) {
	e := Generate(GeneratorConfig{Entities: 1, Samples: 2000, Seed: 10, MissingRate: 0.05})[0]
	nan := 0
	for _, v := range e.Series(CPUUtilPercent) {
		if math.IsNaN(v) {
			nan++
		}
	}
	if nan == 0 {
		t.Fatal("MissingRate produced no NaN samples")
	}
	if frac := float64(nan) / 2000; frac > 0.15 {
		t.Fatalf("NaN fraction %g too high for rate 0.05", frac)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	es := Generate(GeneratorConfig{Entities: 2, Kind: Container, Samples: 50, Seed: 11, MissingRate: 0.05})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, es); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, Container)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip entities = %d", len(back))
	}
	for i, e := range back {
		if e.ID != es[i].ID || e.Len() != es[i].Len() || e.Interval != es[i].Interval {
			t.Fatalf("entity metadata mismatch: %+v", e)
		}
		for ind := 0; ind < NumIndicators; ind++ {
			for t2 := range e.Metrics[ind] {
				a, b := es[i].Metrics[ind][t2], e.Metrics[ind][t2]
				if math.IsNaN(a) != math.IsNaN(b) {
					t.Fatal("NaN round trip failed")
				}
				if !math.IsNaN(a) && a != b {
					t.Fatalf("value round trip failed: %g vs %g", a, b)
				}
			}
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n"), Machine); err == nil {
		t.Fatal("expected error for wrong column count")
	}
	bad := "m_1,notanumber,1,2,3,4,5,6,7,8\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad), Machine); err == nil {
		t.Fatal("expected error for bad timestamp")
	}
	bad2 := "m_1,0,xx,2,3,4,5,6,7,8\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad2), Machine); err == nil {
		t.Fatal("expected error for bad value")
	}
}

func TestReadCSVEmpty(t *testing.T) {
	es, err := ReadCSV(bytes.NewBufferString(""), Machine)
	if err != nil || es != nil {
		t.Fatalf("empty csv: %v %v", es, err)
	}
}

func TestReadCSVSortsOutOfOrderRows(t *testing.T) {
	csvText := "m_1,20,3,2,1,0.5,4,0.1,0.1,10\n" +
		"m_1,0,1,2,1,0.5,4,0.1,0.1,10\n" +
		"m_1,10,2,2,1,0.5,4,0.1,0.1,10\n"
	es, err := ReadCSV(bytes.NewBufferString(csvText), Machine)
	if err != nil {
		t.Fatal(err)
	}
	cpu := es[0].Series(CPUUtilPercent)
	if cpu[0] != 1 || cpu[1] != 2 || cpu[2] != 3 {
		t.Fatalf("rows not sorted by timestamp: %v", cpu)
	}
	if es[0].Interval != 10 {
		t.Fatalf("inferred interval = %d", es[0].Interval)
	}
}
