package main

import "strings"

// metricDef names one reported number. BENCHMARK.json repeats these tables
// (metrics_test keeps the two in step); Bound is the share of the parent's
// median by which an end-to-end metric may worsen before -compare, and the
// driver, call it a regression. Per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the service sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_objs_per_s", "1/s", "higher", 0.25},
	{"server_cpu_us_per_obj", "us", "lower", 0.20},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"detect_p50_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer is measured under -trace 1 only: the in-process differential
// replay of internal/* and the root package, plus the spans of the traced
// paced phase against the subprocess.
var perLayer = []metricDef{
	// End-to-end candidates whose seed spread exceeds any allowed bound (see
	// README): kept under the same names, measured over the traced run's two
	// paced halves.
	{"ack_p99_ms", "ms", "lower", 0},
	{"detect_p99_ms", "ms", "lower", 0},
	{"query_p99_ms", "ms", "lower", 0},
	{"stream.generate_ns_per_obj", "ns", "lower", 0},
	{"client.encode_ns_per_obj", "ns", "lower", 0},
	{"window.push_ns_per_obj", "ns", "lower", 0},
	{"window.events_per_obj", "count", "lower", 0},
	{"topk.process_ns_per_event", "ns", "lower", 0},
	{"topk.bestk_ns_per_call", "ns", "lower", 0},
	{"topk.search_ratio", "ratio", "lower", 0},
	{"topk.sweep_entries_per_event", "count", "lower", 0},
	{"cellcspot.process_ns_per_event", "ns", "lower", 0},
	{"cellcspot.best_ns_per_call", "ns", "lower", 0},
	{"cellcspot.search_ratio", "ratio", "lower", 0},
	{"gapsurge.gaps_process_ns_per_event", "ns", "lower", 0},
	{"gapsurge.mgaps_process_ns_per_event", "ns", "lower", 0},
	{"gapsurge.bestk_ns_per_call", "ns", "lower", 0},
	{"shard.route_ns_per_event", "ns", "lower", 0},
	{"shard.barrier_ns_per_call", "ns", "lower", 0},
	{"shard.chain_query_ns_per_call", "ns", "lower", 0},
	{"shard.halo_events_ratio", "ratio", "lower", 0},
	{"shard.pool_roundtrip_ns", "ns", "lower", 0},
	{"surge.pushbatch_ns_per_obj", "ns", "lower", 0},
	{"surge.self_ns_per_obj", "ns", "lower", 0},
	{"surge.checkpoint_ns_per_live_obj", "ns", "lower", 0},
	{"surge.checkpoint_bytes_per_live_obj", "B", "lower", 0},
	{"surge.restore_ns_per_live_obj", "ns", "lower", 0},
	{"wal.append_ns_per_record", "ns", "lower", 0},
	{"wal.append_fsync_ns_per_record", "ns", "lower", 0},
	{"wal.bytes_per_obj", "B", "lower", 0},
	{"wal.replay_ns_per_obj", "ns", "lower", 0},
	{"server.ingest_ns_per_obj", "ns", "lower", 0},
	{"server.ingest_self_ns_per_obj", "ns", "lower", 0},
	{"server.ingest_allocs_per_obj", "count", "lower", 0},
	{"server.ingest_allocs_per_obj_11k", "count", "lower", 0},
	{"server.ingest_allocs_per_obj_feed", "count", "lower", 0},
	{"server.ingest_bytes_per_obj", "B", "lower", 0},
	{"server.best_ns_per_call", "ns", "lower", 0},
	{"server.topk_ns_per_call", "ns", "lower", 0},
	{"server.snapshot_ns_per_live_obj", "ns", "lower", 0},
	{"server.events_per_batch", "count", "lower", 0},
	{"server.fanout_efficiency", "ratio", "higher", 0},
	{"server.durable_boot_ns_per_obj", "ns", "lower", 0},
	{"surged.boot_ms", "ms", "lower", 0},
	{"surged.transport_us_per_req", "us", "lower", 0},
	{"surged.sse_gap_us_p50", "us", "lower", 0},
	{"surged.queue_wait_share", "ratio", "lower", 0},
	{"surged.gc_pause_max_ms", "ms", "lower", 0},
	{"surged.throttled", "count", "lower", 0},
	{"loadgen.lateness_p99_ms", "ms", "lower", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// pacedMetric reports whether the open-loop phase yields the metric: only
// then is it worthless once that phase's backlog grows.
func pacedMetric(name string) bool {
	for _, prefix := range []string{"ack_", "detect_", "query_"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
