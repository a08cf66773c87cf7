package main

// metricDef names one metric with its unit and better direction; the
// tables below are the ones BENCHMARK.json lists (the smoke test checks
// that the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is the set every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"wire_bytes_per_req", "bytes", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"alloc_mb_per_req", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// reportOnly are end-to-end figures that only some workloads have (or that
// read 0 on a healthy run); they are printed and written to the result
// file but not part of the JSON line.
var reportOnly = []metricDef{
	{"latency_p99_ms", "ms", "lower"},
	{"open_latency_p50_ms", "ms", "lower"},
	{"open_latency_p90_ms", "ms", "lower"},
	{"open_latency_p99_ms", "ms", "lower"},
	{"max_rate_rps", "1/s", "higher"},
	{"handoff_ms", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"gen_lag_p50_ms", "ms", "lower"},
	{"gen_lag_p99_ms", "ms", "lower"},
	{"backlog_end", "count", "lower"},
	{"handoffs", "count", "higher"},
}

// layerTypes are the layer kinds the nn self-time and GFLOP/s metrics
// cover.
var layerTypes = []string{"conv", "inception", "lrn", "pool", "fc"}

// perLayer is the set every workload reports with --trace 1; a layer that
// does not occur on a workload reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"webapp.event_ms", "ms", "lower"},
		{"webapp.front_ms", "ms", "lower"},
		{"snapshot.capture_ms", "ms", "lower"},
		{"snapshot.encode_ms", "ms", "lower"},
		{"snapshot.decode_ms", "ms", "lower"},
		{"snapshot.apply_ms", "ms", "lower"},
		{"snapshot.req_bytes", "bytes", "lower"},
		{"snapshot.result_bytes", "bytes", "lower"},
		{"snapshot.alloc_kb", "kB", "lower"},
		{"client.roundtrip_ms", "ms", "lower"},
		{"client.presend_ms", "ms", "lower"},
		{"client.presend_mb_per_s", "MB/s", "higher"},
		{"client.delta_hit_ratio", "ratio", "higher"},
		{"client.delta_fallbacks", "count", "lower"},
		{"client.demux_ms", "ms", "lower"},
		{"client.redials", "count", "lower"},
		{"client.local_fallbacks", "count", "lower"},
		{"edge.execute_ms", "ms", "lower"},
		{"edge.execute_p90_ms", "ms", "lower"},
		{"edge.queue_ms", "ms", "lower"},
		{"edge.queue_p90_ms", "ms", "lower"},
		{"edge.errors", "count", "lower"},
		{"edge.store_mb", "MB", "lower"},
		{"edge.store_evictions", "count", "lower"},
		{"edge.delta_frac", "ratio", "higher"},
		{"sched.queue_wait_ms", "ms", "lower"},
		{"sched.queue_wait_p95_ms", "ms", "lower"},
		{"sched.mean_batch", "tasks", "higher"},
		{"sched.utilization", "ratio", "lower"},
		{"sched.rejected", "count", "lower"},
		{"nn.forward_ms", "ms", "lower"},
		{"nn.front_ms", "ms", "lower"},
		{"nn.rear_ms", "ms", "lower"},
	}
	for _, t := range layerTypes {
		defs = append(defs, metricDef{"nn.self_ms." + t, "ms", "lower"})
	}
	for _, t := range layerTypes {
		defs = append(defs, metricDef{"nn.gflops." + t, "GFLOP/s", "higher"})
	}
	return append(defs,
		metricDef{"nn.plan_compile_ms", "ms", "lower"},
		metricDef{"nn.allocs_per_forward", "count", "lower"},
		metricDef{"partition.analyze_ms", "ms", "lower"},
		metricDef{"roam.switch_ms", "ms", "lower"},
		metricDef{"trace_overhead_frac", "ratio", "lower"},
	)
}()

// defOf finds a metric by name across every table.
func defOf(name string) (metricDef, bool) {
	for _, table := range [][]metricDef{endToEnd, reportOnly, perLayer} {
		for _, d := range table {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	d, _ := defOf(name)
	return d.Unit
}
