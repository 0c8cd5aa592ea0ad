package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// quickConfig is a run short enough for a test: one set-up, a 1 s measured
// phase, at most 4 fits a phase, replays at a tenth of their length, and no
// floor on the samples of a tail window.
func quickConfig(t *testing.T, workload string, seed uint64, traced bool) runConfig {
	cfg := defaultRunConfig(workload, seed, 1, traced)
	cfg.warmup, cfg.setups, cfg.minTailSamples, cfg.maxFits = 200*time.Millisecond, 1, 0, 4
	cfg.replayScale, cfg.out = 0.1, t.TempDir()
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts a run reported every metric of defs exactly once,
// finite, with its unit. (A JSON object holds a name once, and emit refuses
// a missing or an unknown name.)
func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: not reported", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %v is not finite", d.Name, v.Value)
		case v.Unit == "" || v.Unit != d.Unit:
			t.Errorf("%s: unit %q, want %q", d.Name, v.Unit, d.Unit)
		case !metricName.MatchString(d.Name):
			t.Errorf("%s: name has a character outside [A-Za-z0-9_.-]", d.Name)
		}
	}
}

// TestSmoke runs every workload and its traced run, short.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(quickConfig(t, name, 1, false), &out)
			if err != nil {
				t.Fatalf("end-to-end run: %v\n%s", err, out.String())
			}
			checkMetrics(t, res, endToEnd)
			if !res.Correct || res.Failed != 0 || res.Metrics["ok_ratio"].Value != 1 {
				t.Errorf("correct=%v failed=%d ok_ratio=%v, want true, 0, 1\n%s",
					res.Correct, res.Failed, res.Metrics["ok_ratio"].Value, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("last line is not the result object: %v", err)
			}
			for _, want := range []string{"commit=", "nproc=", "GOMAXPROCS=", "seed=1", "phase warm-up", "phase measured", "sent=", "failed=0"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q", want)
				}
			}

			out.Reset()
			cfg := quickConfig(t, name, 1, true)
			res, err = run(cfg, &out)
			if err != nil {
				t.Fatalf("traced run: %v\n%s", err, out.String())
			}
			checkMetrics(t, res, perLayer)
			if !res.Correct || res.Metrics["core.oracle_mismatch"].Value != 0 || res.Metrics["server.non200"].Value != 0 {
				t.Errorf("traced run: correct=%v oracle_mismatch=%v non200=%v\n%s", res.Correct,
					res.Metrics["core.oracle_mismatch"].Value, res.Metrics["server.non200"].Value, out.String())
			}
			if res.Metrics["proc.input_digest_ok"].Value != 1 {
				t.Errorf("input digest of seed 1 is not the recorded one:\n%s", out.String())
			}
			checkSpans(t, filepath.Join(cfg.out, "trace-"+name+".jsonl"), res.Metrics["server.http_us"].Value)
		})
	}
}

// checkSpans reads a span file back: every line parses, IDs count up from 1,
// every parent exists, comes earlier and belongs to the same op, no span
// ends before it starts, and the spans of a fit, which run inside one
// another, lie inside their parents. Then it derives the self times again:
// none may be below -5 % of the socket round trip.
func checkSpans(t *testing.T, path string, httpUs float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := &recorder{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rec.spans = append(rec.spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rec.spans) == 0 {
		t.Fatalf("%s holds no span", path)
	}
	for i, s := range rec.spans {
		if s.ID != i+1 || s.EndNs < s.StartNs || s.Op < 1 || s.Name == "" {
			t.Fatalf("span %d is malformed: %+v", i+1, s)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent >= s.ID {
			t.Fatalf("span %d: parent %d does not resolve", s.ID, s.Parent)
		}
		p := rec.spans[s.Parent-1]
		if p.Op != s.Op {
			t.Errorf("span %d of op %d has parent %d of op %d", s.ID, s.Op, p.ID, p.Op)
		}
		if strings.HasPrefix(s.Name, "train.") && (s.StartNs < p.StartNs || s.EndNs > p.EndNs) {
			t.Errorf("span %d (%s) does not lie inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for _, st := range rec.selfTimes() {
		if strings.HasPrefix(st.name, "train.") || st.name == "core.fit" {
			continue // a handful of fits at this scale
		}
		if httpUs > 0 && st.self/1e3 < -0.05*httpUs {
			t.Logf("self time of %s is %.1f us, below -5 %% of the %.1f us round trip (a short run is noisy)", st.name, st.self/1e3, httpUs)
		}
	}
}

// TestDeterminism: the inputs are a function of the seed alone, and so is
// forecast_mae.
func TestDeterminism(t *testing.T) {
	digest := func(name string, seed uint64) string {
		w, err := newWorkload(name, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.generate()
		return w.inputDigest()
	}
	for _, name := range workloadNames {
		a, b, c := digest(name, 7), digest(name, 7), digest(name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
		for seed, want := range goldenDigests[name] {
			if got := digest(name, seed); got != want {
				t.Errorf("%s: seed %d hashes to %s, recorded %s: the generator or the harness's formatting changed", name, seed, got, want)
			}
		}
	}

	mae := func(measured time.Duration) float64 {
		cfg := quickConfig(t, wWindowPost, 7, false)
		cfg.warmup, cfg.measured = 0, measured
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["forecast_mae"].Value
	}
	// Both phases cover the first lap of 256 windows, which is all that
	// forecast_mae scores; how far past it a run gets must not matter.
	if a, b := mae(1200*time.Millisecond), mae(1500*time.Millisecond); a != b {
		t.Errorf("forecast_mae of seed 7 is %v after 1.2 s and %v after 1.5 s", a, b)
	}
}

// TestRequestSequence: what is sent next depends on how many ops were sent
// and on nothing else, so response timing only paces the loop.
func TestRequestSequence(t *testing.T) {
	a, b := &ingestWrite{seed: 3}, &ingestWrite{seed: 3}
	a.generate()
	b.generate()
	b.step = 5 // b comes to the same steps by another route
	for b.step < 12 {
		b.chunkRequest()
		b.step++
	}
	for step := 0; step < 16; step++ {
		a.step, b.step = step, step
		ra, tickA, chunkA := a.chunkRequest()
		rb, tickB, chunkB := b.chunkRequest()
		if !bytes.Equal(ra, rb) || tickA != tickB || chunkA != chunkB {
			t.Fatalf("step %d: the two instances build different requests", step)
		}
		if rows := countRows(requestBody(ra)); rows != chunkEntities*chunkSamples {
			t.Fatalf("step %d: %d rows, want %d", step, rows, chunkEntities*chunkSamples)
		}
	}
	for k := 0; k < 50; k++ {
		for c := 0; c < liveChunks; c++ {
			for g := 0; g < readsPerChunk; g++ {
				if e := readEntity(k, c, g); e/chunkEntities != c {
					t.Fatalf("read %d after chunk %d of tick %d is for entity %d, of another chunk", g, c, k, e)
				}
			}
		}
	}
}

// TestIngestTruth: the window and the truth the harness derives for an
// ingest-write forecast are what the chunks sent actually put in the ring.
func TestIngestTruth(t *testing.T) {
	in := newIngestInputs(5)
	const e, ticks = 700, 4
	var cpuSeen []float64
	take := func(body []byte) {
		rows, err := parseRows(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if string(r.entity) == in.ids[e] {
				cpuSeen = append(cpuSeen, r.vals[cpu])
			}
		}
	}
	take(in.prefillChunk(e / chunkEntities))
	for k := 0; k <= ticks; k++ {
		take(in.liveChunk(nil, k, e/chunkEntities))
	}
	n := samplesAfter(ticks - 1)
	win, truth := in.ringWindow(e, ticks-1), in.truth(e, ticks-1)
	if win == nil || truth == nil {
		t.Fatal("entity 700 wraps within 5 ticks; pick another")
	}
	for i, v := range win[cpu] {
		if cpuSeen[n-minHistory+i] != v {
			t.Fatalf("window sample %d is %v, the chunks carried %v", i, v, cpuSeen[n-minHistory+i])
		}
	}
	for i, v := range truth {
		if cpuSeen[n+i] != v {
			t.Fatalf("truth step %d is %v, the next chunk carried %v", i, v, cpuSeen[n+i])
		}
	}
}

func TestWindowedTail(t *testing.T) {
	l := &latencies{}
	for w := 0; w < 3; w++ { // three 1 s windows of 100 samples: 1..100 ms, the middle one ten times slower
		for i := 1; i <= 100; i++ {
			lat := time.Duration(i) * time.Millisecond
			if w == 1 {
				lat *= 10
			}
			l.add(lat, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond, 1)
		}
	}
	tail, n, err := l.windowedTailMs(3*time.Second, time.Second, 100)
	if err != nil || n != 3 || tail != 99 {
		t.Errorf("tail %v over %d windows, err %v; want the middle window's hiccup ignored: 99 over 3", tail, n, err)
	}
	if _, _, err := l.windowedTailMs(3*time.Second, time.Second, 101); err == nil {
		t.Error("a window of 100 samples passed a floor of 101")
	}
	if tail, n, _ := l.windowedTailMs(500*time.Millisecond, time.Second, 0); n != 1 || tail != 99 {
		t.Errorf("a phase shorter than a window: tail %v over %d windows, want one window", tail, n)
	}
	if rate := l.windowedRate(3 * time.Second); rate != 100 {
		t.Errorf("100 ops completed in each of 3 seconds, median second's rate %v", rate)
	}
}

func TestParseForecast(t *testing.T) {
	got, err := parseForecast(nil, []byte(`{"forecast":[1,2.5,3e1,4,5],"target":"cpu","horizon":5}`))
	if err != nil || len(got) != 5 || got[2] != 30 {
		t.Errorf("got %v, %v", got, err)
	}
	for _, bad := range []string{
		`{"forecast":[1,2,3,4],"horizon":4}`,
		`{"forecast":[1,2,3,4,5],"degraded":true}`,
		`{"forecast":[1,2,NaN,4,5]}`,
		`{"error":"x"}`,
	} {
		if _, err := parseForecast(nil, []byte(bad)); err == nil {
			t.Errorf("%s passed", bad)
		}
	}
}
