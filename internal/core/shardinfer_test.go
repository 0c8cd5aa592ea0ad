package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

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
	bufBefore := p.inferBufs[padded]
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
	buf := p.inferBufs[padded]
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
	if p.inferBufs[padded] != bufBefore {
		t.Error("serving a different batch size evicted the warmed buffer")
	}
	if p.inferBufs[ceilPow2(3)] == nil {
		t.Error("new padded size did not get its own pooled buffer")
	}
}

// TestShardInferencerMatchesPredictor pins the equivalence every holder
// of the batched forward rests on: for one generation the shared
// predictor, a ShardInferencer replica and an Inferencer on that
// generation's model forecast bitwise the same, at batch sizes 1/7/32,
// and the replica follows a hot-swap and a rollback on its next batch.
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
		inf := p.NewInferencer(p.Model())
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
				t.Fatalf("%s batch=%d generations = replica %d, predictor %d, want %d", stage, batch, gotGen, wantGen, gen)
			}
			for i := range want {
				what := fmt.Sprintf("%s batch=%d row=%d", stage, batch, i)
				requireBitwiseEqual(t, what+" replica", got[i], want[i])
				one, err := inf.Forecast(inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				requireBitwiseEqual(t, what+" inferencer", one, want[i])
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

// TestShardInferencersRunConcurrently pins the whole point of replicas:
// N inferencers forward in parallel (no shared inferMu, no shared
// arenas) while the shared predictor serves and swaps underneath them —
// run under -race this would catch any state leak between replicas.
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
							errs <- fmt.Errorf("replica drifted at row %d", i)
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
