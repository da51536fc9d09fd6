package main

// metricDef is one metric the benchmark prints. README.md documents each:
// its source, and which end-to-end metric it should move on which workload.
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run (-trace 0). Latency, CPU and
// memory are over the workload's timed requests: the open-loop reads of
// desk and desk_feed, and the ingest batches plus weekly ranks of tick.
// The 99th percentile is in the report but not here: on desk_feed it is the
// length of a rebuild stall, whose spread across seeds (0.43 of its median
// over ten runs) exceeds any bound the benchmark may set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

// perLayer is printed by every traced run (-trace 1); a layer a workload
// does not reach reports 0.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p99_ms", "ms"},
	{"client.score_p50_ms", "ms"},
	{"client.rank_p50_ms", "ms"},
	{"client.locate_p50_ms", "ms"},
	{"client.ingest_p50_ms", "ms"},
	{"client.tick_s", "s"},
	{"fleet.self_us.score", "us"},
	{"fleet.self_us.rank", "us"},
	{"fleet.self_us.locate", "us"},
	{"fleet.legs_per_req.score", "count"},
	{"fleet.legs_per_req.rank", "count"},
	{"fleet.legs_per_req.locate", "count"},
	{"fleet.leg_bytes_per_req", "B"},
	{"fleet.wire_us", "us"},
	{"fleet.cpu_ms_per_req", "ms"},
	{"serve.handler_us.score", "us"},
	{"serve.handler_us.rank", "us"},
	{"serve.handler_us.locate", "us"},
	{"serve.handler_us.ingest", "us"},
	{"serve.cpu_ms_per_req", "ms"},
	{"serve.rows_scored_per_ingest", "count"},
	{"serve.rank_after_ingest_ms", "ms"},
	{"serve.snapshot_delta_ms", "ms"},
	{"serve.snapshot_builds_full", "count"},
	{"serve.snapshot_builds_delta", "count"},
	{"serve.shard_lock_waits", "count"},
	{"serve.store_ingest_ms", "ms"},
	{"features.cache_hit_frac", "frac"},
	{"features.cache_lookups", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_ingest_byte", "B/B"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_ms", "ms"},
	{"trace.overhead_read_p50_ms", "ms"},
	{"trace.additivity_gap.score", "frac"},
	{"trace.additivity_gap.rank", "frac"},
	{"trace.additivity_gap.locate", "frac"},
	{"trace.additivity_gap.tick", "frac"},
}

// finish keeps exactly the metrics of the run's kind, filling any layer the
// workload did not reach with 0, and logs them. An end-to-end metric that
// is missing or 0 is a benchmark bug.
func (o *outcome) finish(trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	all := o.metrics
	o.metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := all[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		if m.Unit != d.unit {
			panic("metric " + d.name + " reported in " + m.Unit + ", defined in " + d.unit)
		}
		if !trace && m.Value == 0 {
			o.fail("end-to-end metric %s is 0", d.name)
		}
		o.metrics[d.name] = m
	}
	o.reportMetrics()
}
