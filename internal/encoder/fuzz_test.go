package encoder_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/encoder"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// tiledEncoderBlob returns the stored tile encoder of a real tensor holding
// two tiled samples.
func tiledEncoderBlob(f *testing.F) []byte {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := core.Create(ctx, mem, "fuzz-tiles")
	if err != nil {
		f.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{
		Name: "big", Htype: "generic", Dtype: tensor.UInt8,
		Bounds: chunk.Bounds{Min: 64, Target: 128, Max: 256},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, shape := range [][]int{{24, 20}, {3, 9, 17}} {
		if err := x.Append(ctx, tensor.MustNew(tensor.UInt8, shape...)); err != nil {
			f.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		f.Fatal(err)
	}
	keys, err := mem.List(ctx, "")
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range keys {
		if strings.HasSuffix(k, "/big/tile_encoder") {
			blob, err := mem.Get(ctx, k)
			if err != nil {
				f.Fatal(err)
			}
			return blob
		}
	}
	f.Fatal("no stored tile encoder")
	return nil
}

// FuzzTileEncoderUnmarshal: a stored tile encoder is read unverified, so any
// input must either be refused or give entries whose tiles can all be
// walked — every tile overlapping the whole sample has a chunk id and
// in-range bounds.
func FuzzTileEncoderUnmarshal(f *testing.F) {
	f.Add(tiledEncoderBlob(f))
	f.Add([]byte(`{"0":{"layout":{"sample_shape":[8,6],"tile_shape":[4,4],"grid":[2,2]},"chunk_ids":[1,2,3]}}`))
	f.Add([]byte(`{"0":{"layout":{"sample_shape":[8,6],"tile_shape":[4],"grid":[2,2]},"chunk_ids":[1,2,3,4]}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e encoder.TileEncoder
		if err := e.UnmarshalBinary(data); err != nil {
			return
		}
		for _, idx := range e.Indices() {
			entry, _ := e.Get(idx)
			l := entry.Layout
			for _, ti := range l.TilesOverlapping(nil) {
				_ = entry.ChunkIDs[ti]
				lo, hi := l.TileBounds(l.TileCoords(ti))
				for ax := range lo {
					if lo[ax] < 0 || hi[ax] < lo[ax] || hi[ax] > l.SampleShape[ax] {
						t.Fatalf("tile %d of %+v has bounds %v..%v", ti, l, lo, hi)
					}
				}
			}
		}
	})
}
