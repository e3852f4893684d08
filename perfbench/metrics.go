package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library sees. Every workload
// reports all of them; what "op" and "samples" mean per workload is in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"samples_per_s", "samples/s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"peak_live_heap_mb", "MB"},
	{"stored_bytes_per_user_byte", "ratio"},
}

// perLayer are the traced run's metrics: the end-to-end ones as measured
// with tracing on (traced.<name>, for the tracing overhead), then the
// layers'. A layer the workload leaves idle reports 0, which is itself a
// prediction (for example no origin reads in explore's timed phase).
var perLayer = append(tracedEndToEnd(), []metricDef{
	{"failed_frac", "ratio"},
	{"query_ms.p50", "ms"},
	{"query_ms.p90", "ms"},
	{"page_ms.p50", "ms"},
	{"page_ms.p95", "ms"},

	{"layer.client.self_s", "s"},
	{"layer.core.busy_s", "s"},
	{"layer.core.self_s", "s"},
	{"layer.dataloader.busy_s", "s"},
	{"layer.storage.busy_s", "s"},
	{"layer.tql.busy_s", "s"},
	{"layer.tql.self_s", "s"},

	{"storage.origin.read_requests", "count"},
	{"storage.origin.ranges_per_request", "ratio"},
	{"storage.origin.read_bytes_per_sample", "B/sample"},
	{"storage.origin.get_ms.p50", "ms"},
	{"storage.origin.get_ms.p90", "ms"},
	{"storage.origin.put_ms.p50", "ms"},
	{"storage.origin.put_ms.p90", "ms"},
	{"storage.origin.busy_s", "s"},
	{"storage.origin.lane_wait_s", "s"},
	{"storage.origin.puts_per_flush", "count"},
	{"storage.origin.meta_bytes_per_flush", "B"},
	{"storage.origin.write_bytes_per_user_byte", "ratio"},
	{"storage.cache.hit_ratio", "ratio"},
	{"storage.cache.coalesced", "count"},
	{"storage.cache.prefetched", "count"},
	{"storage.cache.prefetch_shed", "count"},
	{"storage.cache.bypassed", "count"},
	{"storage.retry.retries", "count"},
	{"storage.verify.corruptions_detected", "count"},
	{"storage.verify.seeded_digests", "count"},

	{"dataloader.next_ms.p50", "ms"},
	{"dataloader.next_ms.p99", "ms"},
	{"dataloader.first_batch_ms", "ms"},
	{"dataloader.decodes_per_chunk_visit", "ratio"},
	{"dataloader.cache.hit_ratio", "ratio"},
	{"dataloader.cache.evictions", "count"},
	{"dataloader.cache.coalesced", "count"},

	{"core.open_ms", "ms"},
	{"core.commit_ms", "ms"},
	{"core.append_ms.p50", "ms"},
	{"core.append_ms.p90", "ms"},
	{"core.append.busy_s", "s"},
	{"core.flush.self_ms.p50", "ms"},
	{"core.flush.self_ms.p90", "ms"},
	{"core.at_ms.p50", "ms"},
	{"core.at_ms.p99", "ms"},
	{"core.at.self_ms.p50", "ms"},
	{"core.chunks", "count"},
	{"core.samples_per_chunk", "ratio"},
	{"chunk.images.stored_bytes_per_raw_byte", "ratio"},
	{"chunk.labels.stored_bytes_per_raw_byte", "ratio"},
	{"chunk.embeddings.stored_bytes_per_raw_byte", "ratio"},

	{"tql.filter_label_ms.p50", "ms"},
	{"tql.shape_pushdown_ms.p50", "ms"},
	{"tql.image_filter_ms.p50", "ms"},
	{"tql.order_ms.p50", "ms"},
	{"tql.group_ms.p50", "ms"},
	{"tql.knn_ms.p50", "ms"},
	{"tql.plan_ms.p50", "ms"},
	{"tql.scan.planned", "count"},
	{"tql.scan.claimed", "count"},
	{"tql.scan.strips", "count"},
	{"tql.rows_returned.mean", "count"},

	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
}...)

func tracedEndToEnd() []metricDef {
	out := make([]metricDef, len(endToEnd))
	for i, d := range endToEnd {
		out[i] = metricDef{"traced." + d.name, d.unit}
	}
	return out
}
