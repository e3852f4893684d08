package dataloader

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// TestLoaderHeapFlatAcrossEpochs: a long-running Loader whose consumer
// drops every batch holds no memory for the batches it has delivered. The
// decode and collate arenas hand their buffers to user batches and are
// never Reset, so an arena that kept every slab it filled grew the heap by
// an epoch's decoded bytes (twice over: decode and collate) every epoch.
func TestLoaderHeapFlatAcrossEpochs(t *testing.T) {
	const (
		rows       = 2048
		sampleSize = 2048 // 512 int32
		epochs     = 6
	)
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "heap")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{
		Name: "x", Dtype: tensor.Int32, Bounds: chunk.Bounds{Min: 32 << 10, Target: 64 << 10, Max: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, sampleSize/4)
	for i := 0; i < rows; i++ {
		vals[0] = float64(i)
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{len(vals)}, vals)
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	l := ForDataset(ds, Options{BatchSize: 32, Workers: 2, Shuffle: true, Seed: 1, Epochs: epochs})
	heapAt := map[int]int64{}
	for b := range l.Batches(ctx) {
		if _, seen := heapAt[b.Epoch]; !seen {
			heapAt[b.Epoch] = liveHeap()
		}
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	const epochBytes = rows * sampleSize
	if growth := heapAt[5] - heapAt[1]; growth >= epochBytes {
		t.Fatalf("live heap grew %d bytes from epoch 1 to epoch 5 (%d -> %d); one epoch decodes %d",
			growth, heapAt[1], heapAt[5], epochBytes)
	}
}
