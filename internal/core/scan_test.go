package core

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// scanDataset builds a flushed single-tensor dataset with enough rows to
// span several chunks.
func scanDataset(t *testing.T, n int) (*Dataset, *Tensor) {
	t.Helper()
	ctx := context.Background()
	ds, err := Create(ctx, storage.NewMemory(), "scan")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{
		Name: "x", Dtype: tensor.Int32,
		Bounds: chunk.Bounds{Min: 256, Target: 512, Max: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{4}, []float64{float64(i), 0, 0, 0})
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds, x
}

// TestScanReaderFetchHook: a reader built with NewScanReaderWith pulls every
// chunk through the hook exactly once per chunk on an ascending walk, and
// StoredAt hands back the stored samples the direct path would decode.
func TestScanReaderFetchHook(t *testing.T) {
	const n = 200
	ctx := context.Background()
	_, x := scanDataset(t, n)

	var fetches int64
	r := x.NewScanReaderWith(func(ctx context.Context, chunkID uint64) ([]chunk.Sample, error) {
		atomic.AddInt64(&fetches, 1)
		return x.ReadChunkSamples(ctx, chunkID)
	})
	for i := uint64(0); i < n; i++ {
		s, err := r.StoredAt(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := x.DecodeStored(s.Data, s.Shape)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := arr.At(0); v != float64(i) {
			t.Fatalf("row %d decoded to %v", i, v)
		}
	}
	if want := int64(x.NumChunks()); fetches != want {
		t.Fatalf("ascending walk fetched %d times for %d chunks", fetches, want)
	}
}

// TestScanReaderAtMatchesTensorAt: the chunk-reusing read path returns the
// same arrays as the direct per-sample path, including via the fetch hook.
func TestScanReaderAtMatchesTensorAt(t *testing.T) {
	const n = 120
	ctx := context.Background()
	_, x := scanDataset(t, n)
	direct := x.NewScanReader()
	hooked := x.NewScanReaderWith(func(ctx context.Context, chunkID uint64) ([]chunk.Sample, error) {
		return x.ReadChunkSamples(ctx, chunkID)
	})
	for i := uint64(0); i < n; i++ {
		want, err := x.At(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*ScanReader{"direct": direct, "hooked": hooked} {
			got, err := r.At(ctx, i)
			if err != nil {
				t.Fatalf("%s row %d: %v", name, i, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s row %d differs from Tensor.At", name, i)
			}
		}
	}
}

// TestScanReaderServesWriteBufferedRows: rows still in the chunk builder
// are served from the pending buffer by the reader itself, through StoredAt
// and At, without a fetch through the reader's chunk source.
func TestScanReaderServesWriteBufferedRows(t *testing.T) {
	ctx := context.Background()
	ds, err := Create(ctx, storage.NewMemory(), "pending")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{1}, []float64{float64(i)})
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	// No flush: every row is write-buffered.
	for name, r := range map[string]*ScanReader{
		"direct": x.NewScanReader(),
		"hooked": x.NewScanReaderWith(func(context.Context, uint64) ([]chunk.Sample, error) {
			t.Fatal("a write-buffered row went to the chunk source")
			return nil, nil
		}),
	} {
		s, err := r.StoredAt(ctx, 3)
		if err != nil {
			t.Fatalf("%s: StoredAt on a buffered row: %v", name, err)
		}
		stored, err := x.DecodeStored(s.Data, s.Shape)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := r.At(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*tensor.NDArray{stored, arr} {
			if v, _ := got.At(0); v != 3 {
				t.Fatalf("%s: buffered row read %v, want 3", name, v)
			}
		}
	}
}
