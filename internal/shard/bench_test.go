package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// fleetOpts parameterizes benchFleet.
type fleetOpts struct {
	shards   int
	entities int
	// churn > 0 hot-swaps the predictor continuously at that cadence.
	churn time.Duration
}

// benchFleet is the shared harness for the fleet benchmarks: a router
// over nShards serving 4096 distinct synthetic entities at 64
// concurrent clients (the acceptance load point). Reported metrics:
// req/s (aggregate throughput) and p99-ns (the worst shard's
// per-request p99 from its t-digest).
//
// Read the numbers with the host's core count in mind. One shard runs
// one forward at a time, so it is capped at one core of forwards no
// matter how many cores exist; each further shard adds an engine of its
// own, so the sharded configurations scale with cores. On a single-core
// host (where the committed BENCH_compute.json numbers come from)
// sharding therefore cannot beat the baseline on raw req/s — every
// configuration competes for the same core, and the 8-shard fleet pays
// smaller average batches (~4 vs 32) for its isolation. See
// EXPERIMENTS.md ("Fleet sharding on one core") for the full study,
// including the measured record of the deleted 2 ms delay-gather (~3x
// slower than greedy at this operating point).
func benchFleet(b *testing.B, o fleetOpts) {
	p, _, e := fitted(b)
	engines := make([]Engine, o.shards)
	for i := range engines {
		engines[i] = p.NewShardInferencer()
	}
	r, err := New(Config{
		Shards:       o.shards,
		RingCapacity: 2 * p.MinHistory(),
		// The entity cap splits evenly across shards but FNV routing does
		// not: leave 2x headroom so no shard evicts below the fleet size.
		MaxEntities: 2 * o.entities,
		Engines:     engines,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()

	ids := make([]string, o.entities)
	for i := range ids {
		ids[i] = fmt.Sprintf("e%04d", i)
		feed(r, e, ids[i], p.MinHistory()+2)
	}

	stop := make(chan struct{})
	var swaps atomic.Int64
	if o.churn > 0 {
		cand, eval, _, err := p.FineTune(e.Matrix(), core.FineTuneConfig{Epochs: 1, Seed: 31})
		if err != nil {
			b.Fatal(err)
		}
		other := cand.Clone()
		done := make(chan struct{})
		defer func() { close(stop); <-done }()
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(o.churn):
				}
				m := cand
				if i%2 == 1 {
					m = other
				}
				if _, _, _, err := p.SwapModel(m, eval); err != nil {
					b.Error(err)
					return
				}
				swaps.Add(1)
			}
		}()
	}

	// 64 concurrent clients regardless of GOMAXPROCS: the acceptance
	// load point, and the regime where lock convoys actually bite.
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((63 + procs) / procs)
	var next atomic.Int64
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		// Stride the fleet so concurrent clients hit disjoint entities.
		i := next.Add(7919)
		for pb.Next() {
			res := r.Forecast(ids[int(uint64(i)%uint64(len(ids)))], "")
			if res.Err != nil {
				b.Error(res.Err)
				return
			}
			i++
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()

	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	var p99 float64
	for _, st := range r.Status() {
		if st.P99Micros > p99 {
			p99 = st.P99Micros
		}
	}
	b.ReportMetric(p99*1e3, "p99-ns")
	if o.churn > 0 {
		b.ReportMetric(float64(swaps.Load())/elapsed.Seconds(), "swaps/s")
	}
}

// BenchmarkFleetSteady1 is the single-shard baseline: 4096 entities on
// one engine (one forward at a time, full batch fusion) at concurrency
// 64, no churn.
func BenchmarkFleetSteady1(b *testing.B) {
	benchFleet(b, fleetOpts{shards: 1, entities: 4096})
}

// BenchmarkFleetSteady8 is the same fleet across 8 shard engines with
// the greedy gather. Forwards here take no shared lock, so this
// configuration scales with cores where the baseline cannot; on a
// single core it trades batch-32 fusion for isolation and lands near
// ~0.85x the baseline.
func BenchmarkFleetSteady8(b *testing.B) {
	benchFleet(b, fleetOpts{shards: 8, entities: 4096})
}

// BenchmarkFleetChurn1 measures the baseline under aggressive
// hot-swapping (one promotion every 5ms).
func BenchmarkFleetChurn1(b *testing.B) {
	benchFleet(b, fleetOpts{shards: 1, entities: 4096, churn: 5 * time.Millisecond})
}

// BenchmarkFleetChurn8 is the same churn against 8 engines: a swap
// publishes a snapshot each engine loads on its next batch (one atomic
// load), so requests ride straight through it and no engine copies the
// model. On one core the swap work still steals cycles from everyone.
func BenchmarkFleetChurn8(b *testing.B) {
	benchFleet(b, fleetOpts{shards: 8, entities: 4096, churn: 5 * time.Millisecond})
}
