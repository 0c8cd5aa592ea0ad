package obs

import (
	"runtime"
	"sync"
)

// Collector support: a collector is a callback invoked immediately
// before the registry is read (WriteTo or Snapshot), so gauges whose
// source of truth lives elsewhere — the Go runtime, a rolling window —
// are refreshed at scrape time instead of on a polling loop.

// RegisterCollector adds a callback run before every exposition or
// snapshot. Collectors run outside the registry locks and may therefore
// create and set metrics freely; they must not call WriteTo or Snapshot
// themselves.
func (r *Registry) RegisterCollector(c func()) {
	if c == nil {
		return
	}
	r.collectorMu.Lock()
	r.collectors = append(r.collectors, c)
	r.collectorMu.Unlock()
}

// collect runs the registered collectors.
func (r *Registry) collect() {
	r.collectorMu.Lock()
	cs := make([]func(), len(r.collectors))
	copy(cs, r.collectors)
	r.collectorMu.Unlock()
	for _, c := range cs {
		c()
	}
}

// RegisterRuntimeMetrics exports Go runtime health as gauges, refreshed
// at scrape time by a collector:
//
//	rptcn_go_goroutines              current goroutine count
//	rptcn_go_heap_alloc_bytes        live heap bytes (MemStats.HeapAlloc)
//	rptcn_go_heap_sys_bytes          heap obtained from the OS
//	rptcn_go_gc_pause_seconds_total  cumulative stop-the-world pause time
//	rptcn_go_gc_runs_total           completed GC cycles
//
// Repeated calls for the same registry are no-ops.
func RegisterRuntimeMetrics(r *Registry) { r.runtimeOnce.Do(func() { registerRuntimeMetrics(r) }) }

func registerRuntimeMetrics(r *Registry) {
	goroutines := r.Gauge("rptcn_go_goroutines", "Current number of goroutines.")
	heapAlloc := r.Gauge("rptcn_go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapSys := r.Gauge("rptcn_go_heap_sys_bytes", "Heap memory obtained from the OS.")
	// The cumulative GC stats are true counters (a _total-suffixed gauge
	// is a promlint violation); the collector feeds them deltas against
	// the runtime's monotone totals.
	gcPause := r.Counter("rptcn_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
	gcRuns := r.Counter("rptcn_go_gc_runs_total", "Completed GC cycles.")
	var gcMu sync.Mutex // concurrent scrapes run collectors concurrently
	var lastPause, lastRuns float64
	r.RegisterCollector(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapSys.Set(float64(ms.HeapSys))
		gcMu.Lock()
		pause, runs := float64(ms.PauseTotalNs)/1e9, float64(ms.NumGC)
		gcPause.Add(pause - lastPause)
		gcRuns.Add(runs - lastRuns)
		lastPause, lastRuns = pause, runs
		gcMu.Unlock()
	})
}
