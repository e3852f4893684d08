package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	deeplake "repro"
	"repro/internal/core"
	"repro/internal/storage"
)

// ingest is the write side of train-s3's layers: a bulk load of the same
// schema at about 10 samples per chunk, flushed once, then small checkpoints
// (AppendBatch, then Flush) into the dataset the bulk load left with over
// 1k chunks, then Commit. The bulk phase shows encode, seal and upload
// overlap; the checkpoint phase shows per-Flush metadata cost that grows
// with the dataset.
const (
	ingestBulkRows       = 10240
	ingestPerChunk       = 10
	ingestCheckpointRows = 16
	ingestMemory         = 16 << 20
	// checkpointsPerSecond scales the checkpoint phase with --seconds: 120
	// at the default 10, above the 100 that p90 needs.
	checkpointsPerSecond = 12
)

func runIngest(ctx context.Context, b *bench) error {
	b.budget = storage.NodeBudget{MemoryBytes: ingestMemory}
	checkpoints := max(minSamples(0.9), checkpointsPerSecond*int(b.seconds/time.Second))
	bulk := genRaw(b.seed, 0, ingestBulkRows, appendRowsAt)
	small := genRaw(b.seed, ingestBulkRows, checkpoints*ingestCheckpointRows, ingestCheckpointRows)
	user := bulk.userBytes()
	for k, v := range small.userBytes() {
		user[k] += v
	}
	bounds := rawBounds(ingestPerChunk)

	// Set-up is creating the dataset and its tensors on a fresh node.
	var (
		lru            *storage.LRU
		ds             *core.Dataset
		images, labels *core.Tensor
	)
	o, err := b.setUp(func(o *origin) (err error) {
		if lru, _, err = b.provision(o.below); err != nil {
			return err
		}
		ds, images, labels, err = b.createRaw(ctx, lru, bounds)
		return err
	})
	if err != nil {
		return err
	}

	lru0 := lru.Stats()
	p := b.begin(o)
	for i := range bulk.images {
		if err := b.ops.note(b.appendRaw(ctx, images, labels, bulk.images[i], bulk.labels[i])); err != nil {
			return fmt.Errorf("bulk append %d: %w", i, err)
		}
	}
	if _, err := b.tr.timed(ctx, "core.flush", true, ds.Flush); b.ops.note(err) != nil {
		return fmt.Errorf("bulk flush: %w", err)
	}
	bulkElapsed := time.Since(p.start)
	bulk.images, bulk.labels = nil, nil

	cpFrom, cp0 := b.tr.now(), o.counting.Snapshot()
	var flushes []float64
	for i := range small.images {
		if err := b.ops.note(b.appendRaw(ctx, images, labels, small.images[i], small.labels[i])); err != nil {
			return fmt.Errorf("checkpoint append %d: %w", i, err)
		}
		d, err := b.tr.timed(ctx, "core.flush", true, ds.Flush)
		if b.ops.note(err) != nil {
			return fmt.Errorf("checkpoint flush %d: %w", i, err)
		}
		flushes = append(flushes, ms(d))
	}
	cpTo, cp1 := b.tr.now(), o.counting.Snapshot()
	if _, err := b.tr.timed(ctx, "core.commit", true, func(ctx context.Context) error {
		_, err := ds.Commit(ctx, "perfbench")
		return err
	}); b.ops.note(err) != nil {
		return fmt.Errorf("commit: %w", err)
	}
	p.end(b)
	small.images, small.labels = nil, nil

	mem := o.sim.Inner().(*storage.Memory)
	b.set("samples_per_s", ingestBulkRows/bulkElapsed.Seconds())
	b.pct("op_ms.p50", flushes, 0.5, true)
	b.pct("op_ms.p90", flushes, 0.9, true)
	b.set("stored_bytes_per_user_byte", ratio(float64(mem.TotalBytes()), sumValues(user)))
	b.show("ingest.samples_per_s", "samples/s", b.values["samples_per_s"])
	b.show("flush_ms.p50", "ms", b.values["op_ms.p50"])
	b.show("flush_ms.p90", "ms", b.values["op_ms.p90"])
	b.show("image_chunks_after_bulk", "count", float64(images.NumChunks()))

	if b.tr != nil {
		spans := p.spans(b)
		appends := spanMS(spans, "core.append")
		b.pct("core.append_ms.p50", appends, 0.5, false)
		b.pct("core.append_ms.p90", appends, 0.9, false)
		b.set("core.append.busy_s", sum(appends)/1000)
		var cpSpans []span
		metaBytes := 0.0
		for _, s := range b.tr.within(cpFrom, cpTo) {
			cpSpans = append(cpSpans, s)
			if s.Name == "storage.put" && !strings.Contains(s.Key, "/chunks/") {
				metaBytes += float64(s.Bytes)
			}
		}
		b.pct("core.flush.self_ms.p50", selfMS(cpSpans, "core.flush"), 0.5, false)
		b.pct("core.flush.self_ms.p90", selfMS(cpSpans, "core.flush"), 0.9, false)
		b.set("storage.origin.puts_per_flush", float64(cp1.Puts-cp0.Puts)/float64(checkpoints))
		b.set("storage.origin.meta_bytes_per_flush", metaBytes/float64(checkpoints))
		b.set("storage.origin.write_bytes_per_user_byte", ratio(float64(p.count.BytesWritten), sumValues(user)))
		b.layerMetrics(p, lru, lru0, 0, b.ops.attempted)
		b.callMetrics()
	}
	b.datasetLayout(ctx, ds, mem, user)

	// Correctness: the origin's bytes alone, opened with no cache, hold
	// every appended row, and fsck finds nothing wrong.
	fresh, err := deeplake.Open(ctx, mem)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	want := append(bulk.rowHash, small.rowHash...)
	b.check(fresh.NumRows() == uint64(len(want)), "ingest: reopened dataset has %d rows, appended %d", fresh.NumRows(), len(want))
	got, err := rowHashes(ctx, fresh, b.procs)
	if err != nil {
		return fmt.Errorf("read back: %w", err)
	}
	mismatched := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			mismatched++
		}
	}
	b.check(mismatched == 0 && len(got) == len(want), "ingest: %d of %d rows read back differ (%d read)", mismatched, len(want), len(got))
	report, err := deeplake.Fsck(ctx, mem, deeplake.FsckOptions{})
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	b.check(report.Clean(), "ingest: fsck found %d issues, first %+v", len(report.Issues), report.Issues)
	if b.tr != nil {
		return b.probeForwarding(ctx, o)
	}
	return nil
}

// rowHashes reads every row of ds in order and hashes it like the
// generator does.
func rowHashes(ctx context.Context, ds *core.Dataset, workers int) ([]uint64, error) {
	loader := deeplake.NewDatasetLoader(ds, deeplake.LoaderOptions{BatchSize: appendRowsAt, Workers: workers})
	var out []uint64
	for batch := range loader.Batches(ctx) {
		for _, s := range batch.Samples {
			l, err := s["labels"].Item()
			if err != nil {
				return nil, err
			}
			out = append(out, rowHash(s["images"].Bytes(), int32(l)))
		}
	}
	return out, loader.Err()
}
