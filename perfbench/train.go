package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	deeplake "repro"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// train-s3 streams a dataset about four times the node's memory budget
// through one shuffling Loader, so both RAM tiers evict every epoch and
// every epoch goes back to the simulated S3 origin.
const (
	trainRows     = 8192
	trainPerChunk = 40
	trainBatch    = 32
	// trainWindow batches make one op: the per-batch wait is mostly zero
	// (batches queue ahead of a consumer that only drains), so latency is
	// measured over windows of 1024 rows.
	trainWindow = 32
	trainMemory = 6 << 20
)

func runTrain(ctx context.Context, b *bench) error {
	b.budget = storage.NodeBudget{MemoryBytes: trainMemory}
	in := genRaw(b.seed, 0, trainRows, appendRowsAt)

	var (
		ds   *core.Dataset
		lru  *storage.LRU
		node *dataloader.NodeCache
	)
	o, err := b.setUp(func(o *origin) (err error) {
		if err = b.buildRaw(ctx, o, in, rawBounds(trainPerChunk)); err != nil {
			return fmt.Errorf("build: %w", err)
		}
		if lru, node, err = b.provision(o.below); err != nil {
			return err
		}
		ds, err = b.open(ctx, lru)
		return err
	})
	if err != nil {
		return err
	}
	wantEpoch := in.multiset()
	user := in.userBytes()
	in.images, in.labels = nil, nil // the program holds the data now
	mem := o.sim.Inner().(*storage.Memory)
	b.set("stored_bytes_per_user_byte", ratio(float64(mem.TotalBytes()), sumValues(user)))

	// Timed phase: one client drains batches for b.seconds from a new
	// two-epoch Loader each time the last one ends, as a training loop that
	// re-iterates its loader does.
	lru0, node0 := lru.Stats(), node.Stats()
	p := b.begin(o)
	deadline := p.start.Add(b.seconds)
	var waits, windows []float64
	rows, epochs := 0, 0
	windowStart := time.Now()
	rate := newSliceRate(windowStart)
	for pass, done := int64(0), false; !done; pass++ {
		loader := deeplake.NewDatasetLoader(ds, deeplake.LoaderOptions{
			BatchSize: trainBatch, Shuffle: true, Seed: b.seed + pass, Workers: b.procs, Epochs: 2, Cache: node,
		})
		runCtx, cancel := context.WithCancel(ctx)
		ch := loader.Batches(runCtx)
		var epochRows [2]int
		for !done {
			var (
				batch dataloader.Batch
				ok    bool
			)
			d, _ := b.tr.timed(ctx, "dataloader.next", true, func(context.Context) error {
				batch, ok = <-ch
				return nil
			})
			if !ok {
				break
			}
			b.ops.note(nil)
			waits = append(waits, ms(d))
			rows += len(batch.Samples)
			rate.add(float64(len(batch.Samples)))
			epochRows[batch.Epoch] += len(batch.Samples)
			if len(waits)%trainWindow == 0 {
				now := time.Now()
				windows = append(windows, ms(now.Sub(windowStart)))
				windowStart = now
				done = now.After(deadline) && len(windows) >= minSamples(0.9)
			}
		}
		cancel()
		for range ch {
		}
		if err := loader.Err(); err != nil && !errors.Is(err, context.Canceled) {
			b.ops.note(err)
			return fmt.Errorf("loader: %w", err)
		}
		for e, n := range epochRows {
			if !done || e == 0 && epochRows[1] > 0 {
				b.check(n == trainRows, "train-s3: loader %d epoch %d delivered %d rows, want %d", pass, e, n, trainRows)
				epochs++
			}
		}
	}
	elapsed := time.Since(p.start)
	p.end(b)

	b.set("samples_per_s", rate.median())
	b.pct("op_ms.p50", windows, 0.5, true)
	b.pct("op_ms.p90", windows, 0.9, true)
	b.show("train.samples_per_s", "samples/s", b.values["samples_per_s"])
	b.show("train.samples_per_s.whole_run", "samples/s", float64(rows)/elapsed.Seconds())
	b.show("train.window_ms.p50", "ms", b.values["op_ms.p50"])
	b.show("train.window_ms.p90", "ms", b.values["op_ms.p90"])
	b.show("train.complete_epochs", "count", float64(epochs))
	b.check(epochs >= 2, "train-s3: only %d complete epochs in the timed phase", epochs)

	// Traced-run layer metrics.
	if b.tr != nil {
		b.pct("dataloader.next_ms.p50", waits, 0.5, false)
		b.pct("dataloader.next_ms.p99", waits, 0.99, false)
		if len(waits) > 0 {
			b.set("dataloader.first_batch_ms", waits[0])
		}
		ns := node.Stats()
		hits, misses := ns.Hits-node0.Hits, ns.Misses-node0.Misses
		visits := float64(rows) / trainRows * float64(ds.Tensor("images").NumChunks()+ds.Tensor("labels").NumChunks())
		b.set("dataloader.decodes_per_chunk_visit", ratio(float64(ns.Decodes-node0.Decodes), visits))
		b.set("dataloader.cache.hit_ratio", ratio(float64(hits), float64(hits+misses)))
		b.set("dataloader.cache.evictions", float64(ns.Evictions-node0.Evictions))
		b.set("dataloader.cache.coalesced", float64(ns.Coalesced-node0.Coalesced))
		b.layerMetrics(p, lru, lru0, float64(rows), b.ops.attempted)
		b.callMetrics()
	}
	b.datasetLayout(ctx, ds, mem, user)
	b.set("storage.verify.seeded_digests", float64(ds.Integrity().SeededDigests))

	// Correctness: two fresh two-epoch passes with the run's seed deliver
	// every row exactly once per epoch and the same batch stream.
	first, err := trainPass(ctx, ds, node, b)
	if err != nil {
		return err
	}
	second, err := trainPass(ctx, ds, node, b)
	if err != nil {
		return err
	}
	for e, got := range first.epochs {
		b.check(got == wantEpoch, "train-s3: epoch %d rows differ from the generated rows", e)
	}
	b.check(first.stream == second.stream, "train-s3: batch stream differs between two runs with seed %d", b.seed)
	if b.tr != nil {
		return b.probeForwarding(ctx, o)
	}
	return nil
}

// buildRaw creates the raw-image schema on a freshly provisioned node over
// o, appends in, flushes and commits.
func (b *bench) buildRaw(ctx context.Context, o *origin, in *rawSet, bounds chunk.Bounds) error {
	lru, _, err := b.provision(o.below)
	if err != nil {
		return err
	}
	ds, images, labels, err := b.createRaw(ctx, lru, bounds)
	if err != nil {
		return err
	}
	for i := range in.images {
		if err := b.appendRaw(ctx, images, labels, in.images[i], in.labels[i]); err != nil {
			return err
		}
	}
	if _, err := b.tr.timed(ctx, "core.flush", true, ds.Flush); err != nil {
		return err
	}
	_, err = b.tr.timed(ctx, "core.commit", true, func(ctx context.Context) error {
		_, err := ds.Commit(ctx, "perfbench")
		return err
	})
	return err
}

// createRaw creates the raw-image dataset with the parallel flush pipeline.
func (b *bench) createRaw(ctx context.Context, store storage.Provider, bounds chunk.Bounds) (ds *core.Dataset, images, labels *core.Tensor, err error) {
	_, err = b.tr.timed(ctx, "core.create", true, func(ctx context.Context) error {
		if ds, err = deeplake.Create(ctx, store, "raw"); err != nil {
			return err
		}
		if err = ds.SetWriteOptions(deeplake.WriteOptions{FlushWorkers: b.procs}); err != nil {
			return err
		}
		if images, err = ds.CreateTensor(ctx, deeplake.TensorSpec{Name: "images", Dtype: deeplake.UInt8, ChunkCompression: "lz4", Bounds: bounds}); err != nil {
			return err
		}
		labels, err = ds.CreateTensor(ctx, deeplake.TensorSpec{Name: "labels", Htype: "class_label", Bounds: bounds})
		return err
	})
	return ds, images, labels, err
}

// appendRaw appends one batch to both tensors as one operation.
func (b *bench) appendRaw(ctx context.Context, images, labels *core.Tensor, imgs, labs *tensor.NDArray) error {
	_, err := b.tr.timed(ctx, "client.append", true, func(ctx context.Context) error {
		if _, err := b.tr.timed(ctx, "core.append", false, func(ctx context.Context) error {
			return images.AppendBatch(ctx, imgs)
		}); err != nil {
			return err
		}
		_, err := b.tr.timed(ctx, "core.append", false, func(ctx context.Context) error {
			return labels.AppendBatch(ctx, labs)
		})
		return err
	})
	return err
}

func (b *bench) open(ctx context.Context, store storage.Provider) (ds *core.Dataset, err error) {
	_, err = b.tr.timed(ctx, "core.open", true, func(ctx context.Context) error {
		ds, err = deeplake.Open(ctx, store)
		return err
	})
	return ds, err
}

type trainResult struct {
	stream uint64   // ordered hash of the batch stream
	epochs []uint64 // per epoch, order-independent hash of the rows
}

// trainPass streams two epochs with the run's loader settings and hashes
// what it delivers.
func trainPass(ctx context.Context, ds *core.Dataset, node *dataloader.NodeCache, b *bench) (trainResult, error) {
	loader := deeplake.NewDatasetLoader(ds, deeplake.LoaderOptions{
		BatchSize: trainBatch, Shuffle: true, Seed: b.seed, Workers: b.procs, Epochs: 2, Cache: node,
	})
	res := trainResult{epochs: make([]uint64, 2)}
	for batch := range loader.Batches(ctx) {
		imgs, labs := batch.Stacked["images"], batch.Stacked["labels"]
		if imgs == nil || labs == nil {
			return res, fmt.Errorf("batch %d is not stacked", batch.Index)
		}
		for i := 0; i < len(batch.Samples); i++ {
			img := imgs.Bytes()[i*rawBytes : (i+1)*rawBytes]
			h := rowHash(img, int32(binary.LittleEndian.Uint32(labs.Bytes()[i*4:])))
			res.stream = mix(res.stream ^ h)
			res.epochs[batch.Epoch] += mix(h)
		}
	}
	return res, loader.Err()
}
