package main

// metricDef is one reported metric. BENCHMARK.json at the repository root
// lists the same end-to-end and per-layer metrics; a test keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before compare calls it a regression (end-to-end metrics only).
	Bound float64
	// Floor is an absolute change below which a worsening is not a
	// regression, for metrics whose baseline is small enough that the
	// relative bound alone would flag scheduler jitter.
	Floor float64
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "alloc_mb_per_op", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.24},
}

// failedFrac is failed ops over attempted ops. It is 0 on a healthy run, so
// it travels as the result's attempted/failed counts rather than as an
// end-to-end metric, and compare treats any increase as a regression.
var failedFrac = metricDef{Name: "failed_frac", Unit: "share", Better: "lower"}

// perLayer are the traced run's metrics that every workload exercises.
// Layers only some workloads reach (one engine, memsim, adapt, the serve
// phases) are in workloadLayers.
var perLayer = []metricDef{
	{Name: "suite.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "suite.hit_frac", Unit: "share", Better: "higher"},
	{Name: "suite.load_ms", Unit: "ms", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.put_ms", Unit: "ms", Better: "lower"},
	{Name: "store.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "runner.campaign_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.busy_frac", Unit: "share", Better: "higher"},
	{Name: "runner.sink_us_per_record", Unit: "us", Better: "lower"},
	{Name: "engine.execute_us", Unit: "us", Better: "lower"},
	{Name: "engine.trials_per_op", Unit: "count", Better: "higher"},
	{Name: "serve.dedupe_frac", Unit: "share", Better: "higher"},
	{Name: "go.gc_cycles_per_op", Unit: "count", Better: "lower"},
}

// workloadLayers are per-layer metrics reported only by the workloads that
// exercise the layer.
var workloadLayers = []metricDef{
	{Name: "engine.membench.execute_us", Unit: "us", Better: "lower"},
	{Name: "engine.netbench.execute_us", Unit: "us", Better: "lower"},
	{Name: "engine.collbench.execute_us", Unit: "us", Better: "lower"},
	{Name: "engine.numabench.execute_us", Unit: "us", Better: "lower"},
	{Name: "engine.cpubench.execute_us", Unit: "us", Better: "lower"},
	{Name: "memsim.ns_per_access.stride1", Unit: "ns", Better: "lower"},
	{Name: "memsim.ns_per_access.stride16", Unit: "ns", Better: "lower"},
	{Name: "adapt.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.fetch_ms", Unit: "ms", Better: "lower"},
}

// value is one measured metric as reported: N is the sample count behind
// it, and Beyond, for a tail percentile, how many samples lie past it.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, {failedFrac}, perLayer, workloadLayers} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
