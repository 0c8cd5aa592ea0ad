package main

// The metric catalogue: every name the benchmark prints, with its unit and
// the direction that counts as better. BENCHMARK.json repeats it for the
// driver; TestCatalogueMatchesBenchmarkJSON keeps the two equal.

// Workload names are permanent: later changes state which metric they move
// on which of these.
const (
	wEntityRead  = "entity-read"
	wWindowPost  = "window-post"
	wIngestWrite = "ingest-write"
	wTrainFit    = "train-fit"
)

var workloadNames = []string{wEntityRead, wWindowPost, wIngestWrite, wTrainFit}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are measured with tracing off. A bound is the share of the
// parent's median by which the metric may worsen before -compare says
// "regressed". The timing bounds are as wide as a bound may be: on a quiet
// host ten runs spread 2-4 %, but the sandbox slows by 10-25 % for minutes at
// a time after sustained load (see README.md), and a bound must hold then too.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
	{"forecast_mae", "cpu_pct", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer come from the traced run. Names are <module>.<what>.
var perLayer = []metricDef{
	{Name: "server.http_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.net_self_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.healthz_us", Unit: "us", Better: "lower"},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "server.ingest_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "server.non200", Unit: "count", Better: "lower"},

	{Name: "shard.forecast_us", Unit: "us", Better: "lower"},
	{Name: "shard.self_us", Unit: "us", Better: "lower"},
	{Name: "shard.rps_c2", Unit: "1/s", Better: "higher"},
	{Name: "shard.mean_batch", Unit: "count", Better: "higher"},
	{Name: "shard.ingest_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "shard.s2_over_s1", Unit: "ratio", Better: "higher"},

	{Name: "trace.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.scan_allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "trace.ring_ingest_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.window_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.evictions", Unit: "count", Better: "lower"},
	{Name: "trace.rows_skipped", Unit: "count", Better: "lower"},
	{Name: "trace.rows_rejected", Unit: "count", Better: "lower"},

	{Name: "dataprep.serve_us", Unit: "us", Better: "lower"},
	{Name: "dataprep.fit_ms", Unit: "ms", Better: "lower"},

	{Name: "core.prepare_us", Unit: "us", Better: "lower"},
	{Name: "core.forward_b1_us", Unit: "us", Better: "lower"},
	{Name: "core.forward_b32_us_per_item", Unit: "us", Better: "lower"},
	{Name: "core.forward_f32_b32_us_per_item", Unit: "us", Better: "lower"},
	{Name: "core.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.allocs_per_forecast", Unit: "count", Better: "lower"},
	{Name: "core.oracle_mismatch", Unit: "count", Better: "lower"},

	{Name: "nn.infer_b1_us", Unit: "us", Better: "lower"},
	{Name: "nn.tcn.fwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.tcn.bwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.attention.fwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.attention.bwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.dense.fwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.dense.bwd_us", Unit: "us", Better: "lower"},

	{Name: "tensor.gemm_train_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_b1_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.flops_per_forecast", Unit: "flop", Better: "lower"},
	{Name: "tensor.bytes_per_forecast", Unit: "B", Better: "lower"},

	{Name: "par.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "par.fit_speedup", Unit: "ratio", Better: "higher"},

	{Name: "train.epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "train.batch_us", Unit: "us", Better: "lower"},
	{Name: "train.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "train.skipped_batches", Unit: "count", Better: "lower"},
	{Name: "opt.step_us", Unit: "us", Better: "lower"},

	{Name: "quality.record_ns", Unit: "ns", Better: "lower"},
	{Name: "quality.dropped_events", Unit: "count", Better: "lower"},
	{Name: "registry.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.load_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.acquire_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.telemetry_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "proc.input_digest_ok", Unit: "count", Better: "higher"},
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects a run's metrics by name; emit fills in the unit from the
// catalogue and fails on a name the catalogue does not have or lacks.
type values map[string]float64

func (v values) emit(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return nil, errMissingMetric(d.Name)
		}
		out[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	if len(v) != len(defs) {
		for name := range v {
			if _, ok := out[name]; !ok {
				return nil, errUnknownMetric(name)
			}
		}
	}
	return out, nil
}

type errMissingMetric string

func (e errMissingMetric) Error() string { return "metric not measured: " + string(e) }

type errUnknownMetric string

func (e errUnknownMetric) Error() string { return "metric not in the catalogue: " + string(e) }
