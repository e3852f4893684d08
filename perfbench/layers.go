package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	deeplake "repro"
	"repro/internal/core"
	"repro/internal/storage"
)

// spanMS returns the durations, in ms, of the spans named name.
func spanMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfMS returns the self times, in ms, of the spans named name.
func selfMS(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

// layerMetrics fills the metrics every traced run reports for its timed
// phase: the per-layer table, origin request counts and timings, the RAM
// cache's counters (delta since before), and Go allocation per operation.
// samples is what the workload delivered to its client, for bytes per
// sample; ops counts the phase's operations.
func (b *bench) layerMetrics(p *phase, lru *storage.LRU, before storage.Stats, samples float64, ops int64) {
	if b.tr == nil {
		return
	}
	spans := p.spans(b)
	rows := layerTable(spans)
	var storageBusy, laneWait time.Duration
	for i, r := range rows {
		b.set("layer."+r.layer+".busy_s", r.busy.Seconds())
		b.set("layer."+r.layer+".self_s", r.self.Seconds())
		if r.layer == "storage" {
			// Origin calls wait for a connection lane, which no span sees:
			// their wall time minus the simulated network's own time.
			storageBusy, laneWait = r.busy, max(0, r.busy-p.sim)
			rows[i].wait = laneWait
		}
	}
	fmt.Println("per-layer table, timed phase (wait: storage = origin lane queueing, others = time in child layers)")
	printLayerTable(os.Stdout, rows)

	c := p.count
	reads := c.Requests()
	b.set("storage.origin.read_requests", float64(reads))
	b.set("storage.origin.ranges_per_request", ratio(float64(c.Gets+c.RangeGets+c.BatchRanges), float64(reads)))
	b.set("storage.origin.read_bytes_per_sample", ratio(float64(c.BytesRead), samples))
	var gets, puts []float64
	for _, s := range spans {
		switch s.Name {
		case "storage.get", "storage.get_range", "storage.get_ranges":
			gets = append(gets, ms(s.dur()))
		case "storage.put":
			puts = append(puts, ms(s.dur()))
		}
	}
	b.pct("storage.origin.get_ms.p50", gets, 0.5, false)
	b.pct("storage.origin.get_ms.p90", gets, 0.9, false)
	b.pct("storage.origin.put_ms.p50", puts, 0.5, false)
	b.pct("storage.origin.put_ms.p90", puts, 0.9, false)
	b.set("storage.origin.busy_s", storageBusy.Seconds())
	b.set("storage.origin.lane_wait_s", laneWait.Seconds())

	s := lru.Stats()
	hits, misses := s.Hits-before.Hits, s.Misses-before.Misses
	b.set("storage.cache.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	b.set("storage.cache.coalesced", float64(s.Coalesced-before.Coalesced))
	b.set("storage.cache.prefetched", float64(s.Prefetched-before.Prefetched))
	b.set("storage.cache.prefetch_shed", float64(s.PrefetchShed-before.PrefetchShed))
	b.set("storage.cache.bypassed", float64(s.Bypassed-before.Bypassed))
	b.set("storage.retry.retries", float64(s.Retries-before.Retries))
	b.set("storage.verify.corruptions_detected", float64(s.CorruptionsDetected-before.CorruptionsDetected))
	b.set("go.alloc_bytes_per_op", ratio(float64(p.allocBytes), float64(ops)))
}

// datasetLayout fills the chunk-layout metrics of ds: chunk count, samples
// per images chunk, and per tensor the stored chunk bytes over the raw
// sample bytes (raw[name]).
func (b *bench) datasetLayout(ctx context.Context, ds *core.Dataset, mem *storage.Memory, raw map[string]float64) {
	chunks := 0
	for _, name := range ds.Tensors() {
		chunks += ds.Tensor(name).NumChunks()
	}
	b.set("core.chunks", float64(chunks))
	img := ds.Tensor("images")
	b.set("core.samples_per_chunk", ratio(float64(img.Len()), float64(img.NumChunks())))
	stored := map[string]float64{}
	keys, _ := mem.List(ctx, "") // an in-memory store: List and Size cannot fail
	for _, k := range keys {
		i := strings.Index(k, "/chunks/")
		if i < 0 {
			continue
		}
		name := k[strings.LastIndex(k[:i], "/")+1 : i]
		n, _ := mem.Size(ctx, k)
		stored[name] += float64(n)
	}
	for name, r := range raw {
		b.set("chunk."+name+".stored_bytes_per_raw_byte", ratio(stored[name], r))
	}
}

// callMetrics reports the set-up and commit calls over the whole run:
// Open runs once per set-up, Commit once per dataset built.
func (b *bench) callMetrics() {
	all := b.tr.within(0, b.tr.now()+1)
	b.set("core.open_ms", median(spanMS(all, "core.open")))
	b.set("core.commit_ms", median(spanMS(all, "core.commit")))
}

// probeForwarding checks that the traced origin wrapper hides none of the
// optional interfaces the program probes for. The same cold prefetch of a
// few images chunks runs through an untraced and a traced node over o: both
// must prefetch the same objects with batched ranged origin requests, and
// Open must seed the same number of chunk digests into the verify layer.
func (b *bench) probeForwarding(ctx context.Context, o *origin) error {
	type probe struct {
		prefetched, batchGets int64
		seeded                int
	}
	run := func(below storage.Provider) (probe, error) {
		lru, _, err := b.provision(below)
		if err != nil {
			return probe{}, err
		}
		ds, err := deeplake.Open(ctx, lru)
		if err != nil {
			return probe{}, err
		}
		t := ds.Tensor("images")
		spans := t.ChunkSpans()
		spans = spans[:min(len(spans), 16)]
		ids := make([]uint64, len(spans))
		for i, s := range spans {
			ids[i] = s.ChunkID
		}
		before := o.counting.Snapshot()
		if _, err := t.PrefetchChunks(ctx, ids, storage.PlanOptions{}); err != nil {
			return probe{}, err
		}
		for _, s := range spans {
			if _, err := t.At(ctx, s.First); err != nil {
				return probe{}, err
			}
		}
		return probe{lru.Stats().Prefetched, o.counting.Snapshot().BatchGets - before.BatchGets, ds.Integrity().SeededDigests}, nil
	}
	plain, err := run(o.counting)
	if err != nil {
		return fmt.Errorf("untraced probe: %w", err)
	}
	traced, err := run(o.below)
	if err != nil {
		return fmt.Errorf("traced probe: %w", err)
	}
	fmt.Printf("forwarding probe: untraced %+v, traced %+v\n", plain, traced)
	b.check(plain.prefetched > 0 && plain.batchGets > 0 && plain.seeded > 0, "forwarding probe: untraced node did not prefetch, batch or seed digests: %+v", plain)
	b.check(traced == plain, "forwarding probe: traced node %+v differs from untraced %+v", traced, plain)
	return nil
}
