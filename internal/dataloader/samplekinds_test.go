package dataloader

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// kindBounds puts a few hundred bytes in a chunk and tiles larger samples.
var kindBounds = chunk.Bounds{Min: 512, Target: 1024, Max: 2048}

// uint8Array returns a uint8 array of the given shape filled from seed.
func uint8Array(t *testing.T, seed int, shape ...int) *tensor.NDArray {
	t.Helper()
	arr := tensor.MustNew(tensor.UInt8, shape...)
	data := arr.Bytes()
	for i := range data {
		data[i] = byte(seed*13 + i)
	}
	return arr
}

// TestLoaderFetchesEverySampleKindOnce is the fetch-once contract for every
// sample kind: over an uncached origin, a Loader streaming sequence rows,
// link rows, tiled samples or write-buffered rows makes one origin Get and
// one NodeCache decode per distinct stored chunk, and serves buffered rows
// without either.
func TestLoaderFetchesEverySampleKindOnce(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []struct {
		name string
		spec core.TensorSpec
		fill func(t *testing.T, ds *core.Dataset, x *core.Tensor)
	}{
		{"sequence", core.TensorSpec{Htype: "sequence[generic]", Dtype: tensor.UInt8, Bounds: chunk.Bounds{Min: 4096, Target: 8192, Max: 16384}},
			func(t *testing.T, ds *core.Dataset, x *core.Tensor) {
				for i := 0; i < 64; i++ {
					items := make([]*tensor.NDArray, 4)
					for k := range items {
						items[k] = uint8Array(t, i*4+k, 8, 6)
					}
					if err := x.AppendSequence(ctx, items); err != nil {
						t.Fatal(err)
					}
				}
			}},
		{"link", core.TensorSpec{Htype: "link[image]", Bounds: chunk.Bounds{Min: 256, Target: 512, Max: 1024}},
			func(t *testing.T, ds *core.Dataset, x *core.Tensor) {
				for i := 0; i < 64; i++ {
					if err := x.AppendLink(ctx, fmt.Sprintf("sim://bucket/images/%04d.jpg", i)); err != nil {
						t.Fatal(err)
					}
				}
			}},
		{"tiled", core.TensorSpec{Htype: "generic", Dtype: tensor.UInt8, Bounds: kindBounds},
			func(t *testing.T, ds *core.Dataset, x *core.Tensor) {
				for i := 0; i < 24; i++ {
					side := 6
					if i%6 == 1 {
						side = 64
					}
					if err := x.Append(ctx, uint8Array(t, i, side, side)); err != nil {
						t.Fatal(err)
					}
				}
			}},
		{"write-buffered", core.TensorSpec{Htype: "generic", Dtype: tensor.UInt8, Bounds: kindBounds},
			func(t *testing.T, ds *core.Dataset, x *core.Tensor) {
				for i := 0; i < 64; i++ {
					if i == 48 {
						if err := ds.Flush(ctx); err != nil {
							t.Fatal(err)
						}
					}
					if err := x.Append(ctx, uint8Array(t, i, 5, 5)); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := x.ChunkOf(63); err == nil {
					t.Fatal("row 63 is not in the write buffer")
				}
			}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			counting := storage.NewCounting(storage.NewMemory())
			ds, err := core.Create(ctx, counting, "kinds")
			if err != nil {
				t.Fatal(err)
			}
			kind.spec.Name = "x"
			x, err := ds.CreateTensor(ctx, kind.spec)
			if err != nil {
				t.Fatal(err)
			}
			kind.fill(t, ds, x)
			if kind.name != "write-buffered" {
				if err := ds.Flush(ctx); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := counting.List(ctx, "")
			if err != nil {
				t.Fatal(err)
			}
			var chunks int64
			for _, k := range keys {
				if strings.Contains(k, "/x/chunks/") {
					chunks++
				}
			}
			if chunks < 2 {
				t.Fatalf("%d stored chunks; the test needs several", chunks)
			}

			for _, raw := range []bool{false, true} {
				counting.Reset()
				l := ForDataset(ds, Options{BatchSize: 8, Workers: 4, RawBytes: raw})
				var got []*tensor.NDArray
				for b := range l.Batches(ctx) {
					for _, s := range b.Samples {
						got = append(got, s["x"])
					}
				}
				if err := l.Err(); err != nil {
					t.Fatal(err)
				}
				st := counting.Snapshot()
				if st.Gets != chunks || st.RangeGets != 0 || st.BatchGets != 0 {
					t.Fatalf("raw=%v: %d Gets, %d range and %d batch requests for %d stored chunks; want one Get per chunk",
						raw, st.Gets, st.RangeGets, st.BatchGets, chunks)
				}
				if d := l.CacheDecodes(); d != chunks {
					t.Fatalf("raw=%v: %d NodeCache decodes for %d stored chunks", raw, d, chunks)
				}

				if uint64(len(got)) != x.Len() {
					t.Fatalf("raw=%v: delivered %d of %d rows", raw, len(got), x.Len())
				}
				for row, arr := range got {
					var want *tensor.NDArray
					if raw {
						data, _, err := x.RawAt(ctx, uint64(row))
						if err != nil {
							t.Fatal(err)
						}
						want = tensor.FromString(string(data))
					} else if want, err = x.At(ctx, uint64(row)); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(arr.Bytes(), want.Bytes()) || !slices.Equal(arr.Shape(), want.Shape()) {
						t.Fatalf("raw=%v: row %d differs from the tensor's own read", raw, row)
					}
				}
			}
		})
	}
}
