package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/train"
)

// swapCandidate fine-tunes a candidate off p so the suite has a second
// generation with genuinely different weights to swap in.
func swapCandidate(t *testing.T, p *Predictor, series [][]float64) (*Model, train.Dataset) {
	t.Helper()
	cand, eval, _, err := p.FineTune(shifted(series, 0.15), FineTuneConfig{Epochs: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return cand, eval
}

// engineForecast serves one prepared window on e.
func engineForecast(e *ShardInferencer, in *PreparedInput) ([]float64, error) {
	res, _, err := e.ForecastBatchGen([]*PreparedInput{in})
	return first(res), err
}

// mallocsAround measures the exact heap allocation count of one call —
// unlike testing.AllocsPerRun it does no warmup call, so a re-recorded
// arena (which allocates on its first post-swap use and then never
// again) cannot hide.
func mallocsAround(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestInferBufPoolSurvivesSwap pins the arena-pool retention contract:
// after SwapModel the predictor serves the new generation through the
// SAME pooled inferBuf (pointer-identical arena and input tensor), and
// the first post-swap batched forward allocates no more than a warm
// steady-state forward — i.e. the swap re-recorded nothing.
func TestInferBufPoolSurvivesSwap(t *testing.T) {
	p, series := genPredictor(t)
	wins := servingWindows(p, len(series), 7)
	inputs := make([]*PreparedInput, len(wins))
	for i, w := range wins {
		in, err := p.PrepareInput(w)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = in
	}
	// Cold first forward: pool creation + arena recording. Its cost is
	// the self-calibrated yardstick for "the swap re-recorded".
	cold := mallocsAround(func() {
		if _, err := p.ForecastBatch(inputs); err != nil {
			t.Fatal(err)
		}
	})
	// Warm the pool for this padded batch size, then capture steady state.
	for i := 0; i < 3; i++ {
		if _, err := p.ForecastBatch(inputs); err != nil {
			t.Fatal(err)
		}
	}
	padded := ceilPow2(len(inputs))
	bufBefore := p.engine.inferBufs[padded]
	if bufBefore == nil {
		t.Fatalf("no pooled buffer for padded size %d after warmup", padded)
	}
	arenaBefore, xBefore := bufBefore.arena, bufBefore.x
	steady := mallocsAround(func() {
		if _, err := p.ForecastBatch(inputs); err != nil {
			t.Fatal(err)
		}
	})
	if cold <= steady {
		t.Fatalf("cold forward allocated %d vs steady %d: yardstick broken", cold, steady)
	}

	cand, eval := swapCandidate(t, p, series)
	if _, _, _, err := p.SwapModel(cand, eval); err != nil {
		t.Fatal(err)
	}

	// First post-swap forward: same buffer, same arena, same tensor, and
	// no allocation spike near the cold re-record cost. The threshold is
	// half the measured cold−steady gap, so incidental runtime noise
	// (GC bookkeeping, race-detector shadow allocations) cannot trip it
	// while an actual re-record — which re-pays the cold cost — always does.
	postSwap := mallocsAround(func() {
		if _, err := p.ForecastBatch(inputs); err != nil {
			t.Fatal(err)
		}
	})
	buf := p.engine.inferBufs[padded]
	if buf != bufBefore {
		t.Error("pooled inferBuf was replaced across SwapModel")
	}
	if buf.arena != arenaBefore {
		t.Error("pooled arena was replaced across SwapModel")
	}
	if buf.x != xBefore {
		t.Error("pooled input tensor was replaced across SwapModel")
	}
	if postSwap > steady+(cold-steady)/2 {
		t.Errorf("first post-swap forward allocated %d objects (steady %d, cold %d): arena was re-recorded",
			postSwap, steady, cold)
	}

	// Shape changes still get their own pool entry without disturbing
	// the warmed one.
	if _, err := p.ForecastBatch(inputs[:3]); err != nil {
		t.Fatal(err)
	}
	if p.engine.inferBufs[padded] != bufBefore {
		t.Error("serving a different batch size evicted the warmed buffer")
	}
	if p.engine.inferBufs[ceilPow2(3)] == nil {
		t.Error("new padded size did not get its own pooled buffer")
	}
}

// TestShardInferencerMatchesPredictor pins the equivalence every engine
// rests on: for one generation the predictor's own engine, a shard's
// engine and a candidate engine pinned to that generation's model
// forecast bitwise the same, at batch sizes 1/7/32, and the shard's
// engine follows a hot-swap and a rollback on its next batch.
func TestShardInferencerMatchesPredictor(t *testing.T) {
	p, series := genPredictor(t)
	wins := servingWindows(p, len(series), 32)
	inputs := make([]*PreparedInput, len(wins))
	for i, w := range wins {
		in, err := p.PrepareInput(w)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = in
	}
	si := p.NewShardInferencer()
	requireHoldersAgree := func(stage string, gen int64) {
		t.Helper()
		cand := p.NewCandidateInferencer(p.Model())
		for _, batch := range []int{1, 7, 32} {
			want, wantGen, err := p.ForecastBatchGen(inputs[:batch])
			if err != nil {
				t.Fatal(err)
			}
			got, gotGen, err := si.ForecastBatchGen(inputs[:batch])
			if err != nil {
				t.Fatal(err)
			}
			if gotGen != gen || wantGen != gen {
				t.Fatalf("%s batch=%d generations = shard engine %d, predictor %d, want %d", stage, batch, gotGen, wantGen, gen)
			}
			for i := range want {
				what := fmt.Sprintf("%s batch=%d row=%d", stage, batch, i)
				requireBitwiseEqual(t, what+" shard engine", got[i], want[i])
				one, err := engineForecast(cand, inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				requireBitwiseEqual(t, what+" candidate", one, want[i])
			}
		}
	}
	requireHoldersAgree("fit", 1)

	cand, eval := swapCandidate(t, p, series)
	prev, prevEval, _, err := p.SwapModel(cand, eval)
	if err != nil {
		t.Fatal(err)
	}
	requireHoldersAgree("swap", 2)

	if _, _, _, err := p.SwapModel(prev, prevEval); err != nil {
		t.Fatal(err)
	}
	requireHoldersAgree("rollback", 3)
}

// TestShardInferencersRunConcurrently pins the whole point of engines:
// N of them forward in parallel on one shared model (no lock, no shared
// arenas) while the predictor serves and swaps underneath them — run
// under -race this would catch any write a forward makes to the model.
func TestShardInferencersRunConcurrently(t *testing.T) {
	p, series := genPredictor(t)
	wins := servingWindows(p, len(series), 8)
	inputs := make([]*PreparedInput, len(wins))
	for i, w := range wins {
		in, err := p.PrepareInput(w)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = in
	}
	want, _, err := p.ForecastBatchGen(inputs)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			si := p.NewShardInferencer()
			for it := 0; it < 8; it++ {
				got, gen, err := si.ForecastBatchGen(inputs)
				if err != nil {
					errs <- err
					return
				}
				if gen != 1 {
					continue // a swap landed mid-run; gen-2 rows differ by design
				}
				for i := range want {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							errs <- fmt.Errorf("engine drifted at row %d", i)
							return
						}
					}
				}
			}
		}()
	}
	// Concurrent churn on the shared predictor: forwards and a hot-swap.
	cand, eval := swapCandidate(t, p, series)
	if _, err := p.ForecastBatch(inputs); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.SwapModel(cand, eval); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEnginesShareAFreshlyPublishedModel: four engines start together on
// a model no forward has touched, fresh from LoadPredictor; a fine-tuned
// candidate, as fresh, is swapped in under them, then the two are swapped
// back and forth while TestMetrics runs on whatever serves. Every answer
// is bitwise its generation's model and every report one of the two
// models' on the candidate's split; under -race, any write a forward or an
// evaluation pass makes to the shared model fails the test.
func TestEnginesShareAFreshlyPublishedModel(t *testing.T) {
	p, series := genPredictor(t)
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPredictor(&saved)
	if err != nil {
		t.Fatal(err)
	}
	loaded := q.Model()
	cand, eval := swapCandidate(t, p, series)
	wins := servingWindows(p, len(series), 8)
	inputs := make([]*PreparedInput, len(wins))
	for i, w := range wins {
		if inputs[i], err = q.PrepareInput(w); err != nil {
			t.Fatal(err)
		}
	}
	// The expected answers come from p's own model (the weights q loaded)
	// and a clone of the candidate, so neither shared model is touched
	// before the engines start.
	wantLoaded, err := p.ForecastBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	wantCand, _, err := p.NewCandidateInferencer(cand.Clone()).ForecastBatchGen(inputs)
	if err != nil {
		t.Fatal(err)
	}

	const engines, swaps = 4, 12
	var (
		start, stop   = make(chan struct{}), make(chan struct{})
		swapped       = make(chan struct{})
		errs          = make(chan error, engines+1)
		batches       atomic.Int64
		evaluations   atomic.Int64
		reports       []float64
		wg, evaluator sync.WaitGroup
	)
	for g := 0; g < engines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			si := q.NewShardInferencer()
			<-start
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, gen, err := si.ForecastBatchGen(inputs)
				if err != nil {
					errs <- err
					return
				}
				want := wantLoaded // odd generations serve the loaded model
				if gen%2 == 0 {
					want = wantCand
				}
				for r := range want {
					for k := range want[r] {
						if math.Float64bits(got[r][k]) != math.Float64bits(want[r][k]) {
							errs <- fmt.Errorf("generation %d row %d: %v, want %v", gen, r, got[r], want[r])
							return
						}
					}
				}
				batches.Add(1)
			}
		}()
	}
	evaluator.Add(1)
	go func() {
		defer evaluator.Done()
		select { // the loaded predictor holds no split until the candidate brings one
		case <-swapped:
		case <-stop:
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep, err := q.TestMetrics()
			if err != nil {
				errs <- err
				return
			}
			reports = append(reports, rep.MSE)
			evaluations.Add(1)
		}
	}()
	// await waits until c has counted n more. A goroutine that fails stops
	// counting, so the wait also ends on an error or at a deadline, and the
	// test then reports what stopped it.
	await := func(c *atomic.Int64, n int64) bool {
		deadline := time.Now().Add(30 * time.Second)
		for want := c.Load() + n; c.Load() < want; {
			if len(errs) > 0 || time.Now().After(deadline) {
				return false
			}
			runtime.Gosched()
		}
		return true
	}
	// Each swap waits for a few batches, so every generation is served,
	// and the engines stop only after TestMetrics has run beside them.
	close(start)
	served := true
	for i := 0; i < swaps; i++ {
		if served = await(&batches, engines); !served {
			break
		}
		m, split := loaded, train.Dataset{}
		if i%2 == 0 {
			m, split = cand, eval
		}
		if _, _, _, err := q.SwapModel(m, split); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			close(swapped)
		}
	}
	served = served && await(&batches, engines) && await(&evaluations, 1)
	close(stop)
	wg.Wait()
	evaluator.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !served {
		t.Fatal("the engines or TestMetrics stopped making progress")
	}
	// Each model's report on the split, now that nothing races.
	want := map[float64]bool{}
	for _, m := range []*Model{loaded, cand} {
		if _, _, _, err := q.SwapModel(m, train.Dataset{}); err != nil {
			t.Fatal(err)
		}
		rep, err := q.TestMetrics()
		if err != nil {
			t.Fatal(err)
		}
		want[rep.MSE] = true
	}
	for _, mse := range reports {
		if !want[mse] {
			t.Fatalf("TestMetrics reported MSE %v, not one of the two models' %v", mse, want)
		}
	}
}
