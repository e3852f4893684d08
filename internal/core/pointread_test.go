package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// oneChunkBounds holds every sample these tests append in a single chunk, so
// point reads land in chunks of hundreds of samples.
var oneChunkBounds = chunk.Bounds{Min: 1 << 20, Target: 2 << 20, Max: 4 << 20}

// int64Scalars returns n scalar int64 samples stacked as one [n] batch.
func int64Scalars(t *testing.T, n, base int) *tensor.NDArray {
	t.Helper()
	buf := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(base+i*7))
	}
	arr, err := tensor.FromBytes(tensor.Int64, []int{n}, buf)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// appendPointReadRows appends rows [from, to) to every tensor of
// buildPointReadDataset: raw int64 scalars (uncompressed chunks), raw uint8
// samples of mixed rank (lz4 chunks), JPEG images and link URLs.
func appendPointReadRows(t *testing.T, ds *Dataset, from, to int) {
	t.Helper()
	ctx := context.Background()
	if err := ds.Tensor("scalars").AppendBatch(ctx, int64Scalars(t, to-from, from)); err != nil {
		t.Fatal(err)
	}
	for i := from; i < to; i++ {
		shape := [][]int{{i % 5}, {2, 3}, {1, 2, i%4 + 1}}[i%3]
		data := make([]byte, prod(shape))
		for j := range data {
			data[j] = byte(i + j)
		}
		arr, err := tensor.FromBytes(tensor.UInt8, shape, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Tensor("mixed").Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			side := 8 + i%3*4
			pix := make([]byte, side*side*3)
			for j := range pix {
				pix[j] = byte(i*3 + j)
			}
			img, err := tensor.FromBytes(tensor.UInt8, []int{side, side, 3}, pix)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Tensor("images").Append(ctx, img); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Tensor("links").AppendLink(ctx, fmt.Sprintf("sim://bucket/object-%04d.jpg", i)); err != nil {
			t.Fatal(err)
		}
		if err := ds.Tensor("tiled").Append(ctx, tiledRow(t, i)); err != nil {
			t.Fatal(err)
		}
		if err := ds.Tensor("seq").AppendSequence(ctx, seqRow(t, i)); err != nil {
			t.Fatal(err)
		}
	}
}

// pointReadTensors names every tensor of buildPointReadDataset.
var pointReadTensors = []string{"scalars", "mixed", "images", "links", "tiled", "seq"}

// tiledBounds holds a few dozen small samples per chunk and tiles anything
// above 1KB.
var tiledBounds = chunk.Bounds{Min: 256, Target: 512, Max: 1024}

// patterned returns a uint8 array of the given shape filled from seed.
func patterned(t *testing.T, seed int, shape ...int) *tensor.NDArray {
	t.Helper()
	data := make([]byte, prod(shape))
	for j := range data {
		data[j] = byte(seed*31 + j*7)
	}
	arr, err := tensor.FromBytes(tensor.UInt8, shape, data)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// tiledRow is row i of the "tiled" tensor: every 25th row is a 48x48 sample
// that the tensor's 1KB bound splits into tiles, the rest are 4x4.
func tiledRow(t *testing.T, i int) *tensor.NDArray {
	if i%25 == 7 {
		return patterned(t, i, 48, 48)
	}
	return patterned(t, i, 4, 4)
}

// seqRow is row i of the "seq" tensor: 1 to 4 items of a row-wide shape.
func seqRow(t *testing.T, i int) []*tensor.NDArray {
	items := make([]*tensor.NDArray, i%4+1)
	for k := range items {
		items[k] = patterned(t, i*5+k, i%3+1, 5)
	}
	return items
}

func buildPointReadDataset(t *testing.T, store storage.Provider, rows int) *Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := Create(ctx, store, "pointread")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []TensorSpec{
		{Name: "scalars", Htype: "generic", Dtype: tensor.Int64, ChunkCompression: "none", Bounds: oneChunkBounds},
		{Name: "mixed", Htype: "generic", Dtype: tensor.UInt8, ChunkCompression: "lz4", Bounds: oneChunkBounds},
		{Name: "images", Htype: "image", Bounds: oneChunkBounds},
		{Name: "links", Htype: "link[image]", Bounds: oneChunkBounds},
		{Name: "tiled", Htype: "generic", Dtype: tensor.UInt8, ChunkCompression: "none", Bounds: tiledBounds},
		{Name: "seq", Htype: "sequence[generic]", Dtype: tensor.UInt8, ChunkCompression: "lz4", Bounds: tiledBounds},
	} {
		if _, err := ds.CreateTensor(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	appendPointReadRows(t, ds, 0, rows)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

// checkPointReads asserts that At, RawAt and LinkAt of every row agree byte
// for byte with the row's entry in ReadChunkSamples of its chunk (for
// write-buffered rows, in the pending buffer; for tiled and sequence rows,
// with the appended arrays), then that one reused ScanReader agrees with
// them in every read order.
func checkPointReads(t *testing.T, ds *Dataset) {
	t.Helper()
	ctx := context.Background()
	for _, name := range pointReadTensors {
		x := ds.Tensor(name)
		if n := x.Len(); x.NumChunks() >= int(n) {
			t.Fatalf("%s: %d chunks for %d rows; the test needs many-sample chunks", name, x.NumChunks(), n)
		}
		if name == "tiled" && x.tileEnc.Len() == 0 || name == "seq" && x.NumChunks() < 2 {
			t.Fatalf("%s: %d chunks, %d tiled samples; the test needs tiles and multi-chunk sequences", name, x.NumChunks(), x.tileEnc.Len())
		}
		chunks := map[uint64][]chunk.Sample{}
		for row := uint64(0); row < x.Len(); row++ {
			var want chunk.Sample
			switch name {
			case "tiled":
				arr := tiledRow(t, int(row))
				want = chunk.Sample{Shape: arr.Shape(), Data: arr.Bytes()}
			case "seq":
				arr, err := tensor.Stack(seqRow(t, int(row)))
				if err != nil {
					t.Fatal(err)
				}
				want = chunk.Sample{Shape: arr.Shape(), Data: arr.Bytes()}
			default:
				id, local, err := x.chunkEnc.Lookup(row)
				if err != nil {
					t.Fatal(err)
				}
				samples, ok := chunks[id]
				if x.builder.Len() > 0 && id == x.pendingID {
					samples = x.pendingSamples
				} else if !ok {
					if samples, err = x.ReadChunkSamples(ctx, id); err != nil {
						t.Fatal(err)
					}
					chunks[id] = samples
				}
				want = samples[local]
			}

			data, shape, err := x.RawAt(ctx, row)
			if err != nil {
				t.Fatalf("%s: RawAt(%d): %v", name, row, err)
			}
			if !bytes.Equal(data, want.Data) || !slices.Equal(shape, want.Shape) {
				t.Fatalf("%s: RawAt(%d) = %v %x, chunk holds %v %x", name, row, shape, data, want.Shape, want.Data)
			}
			got, err := x.At(ctx, row)
			if err != nil {
				t.Fatalf("%s: At(%d): %v", name, row, err)
			}
			decoded, err := x.DecodeStored(want.Data, want.Shape)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), decoded.Bytes()) || !reflect.DeepEqual(got.Shape(), decoded.Shape()) {
				t.Fatalf("%s: At(%d) differs from the decoded chunk sample", name, row)
			}
			if name == "links" {
				url, err := x.LinkAt(ctx, row)
				if err != nil || url != string(want.Data) {
					t.Fatalf("links: LinkAt(%d) = %q, %v; chunk holds %q", row, url, err, want.Data)
				}
			}
		}
		checkReusedReader(t, x)
	}
}

// checkReusedReader reads every row of x through one ScanReader in
// ascending, descending and seeded-random order and compares At and
// StoredAt with the one-shot At and RawAt. The random order keeps switching
// the reader between a chunk's first row (chunk.SampleAt) and a repeat
// visit (the decoded directory).
func checkReusedReader(t *testing.T, x *Tensor) {
	t.Helper()
	ctx := context.Background()
	n := int(x.Len())
	asc := make([]int, n)
	desc := make([]int, n)
	for i := range asc {
		asc[i], desc[i] = i, n-1-i
	}
	orders := map[string][]int{"ascending": asc, "descending": desc, "random": rand.New(rand.NewSource(14)).Perm(n)}
	r := x.NewScanReader()
	for _, order := range []string{"ascending", "descending", "random"} {
		for _, i := range orders[order] {
			row := uint64(i)
			want, err := x.At(ctx, row)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.At(ctx, row)
			if err != nil {
				t.Fatalf("%s %s: ScanReader.At(%d): %v", x.Name(), order, row, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) || !slices.Equal(got.Shape(), want.Shape()) || got.Dtype() != want.Dtype() {
				t.Fatalf("%s %s: ScanReader.At(%d) differs from Tensor.At", x.Name(), order, row)
			}
			wantData, wantShape, err := x.RawAt(ctx, row)
			if err != nil {
				t.Fatal(err)
			}
			s, err := r.StoredAt(ctx, row)
			if err != nil {
				t.Fatalf("%s %s: StoredAt(%d): %v", x.Name(), order, row, err)
			}
			if !bytes.Equal(s.Data, wantData) || !slices.Equal(s.Shape, wantShape) {
				t.Fatalf("%s %s: StoredAt(%d) differs from RawAt", x.Name(), order, row)
			}
		}
	}
}

// downgradeChunksToV1 rewrites every stored chunk of ds's tensors into the
// pre-checksum version-1 layout (no footer), as an old writer left them.
func downgradeChunksToV1(t *testing.T, ds *Dataset, mem *storage.Memory) {
	t.Helper()
	ctx := context.Background()
	rewritten := 0
	for _, x := range ds.tensors {
		for id, vid := range x.chunkVersion {
			key := chunkKey(vid, x.name, id)
			raw, err := mem.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := x.decodeChunkBlob(raw)
			if err != nil {
				t.Fatal(err)
			}
			old := append([]byte(nil), blob[:len(blob)-8]...)
			old[4], old[5] = 1, 0
			if x.chunkCodec != nil {
				if old, err = x.chunkCodec.Compress(old); err != nil {
					t.Fatal(err)
				}
			}
			if err := mem.Put(ctx, key, old); err != nil {
				t.Fatal(err)
			}
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Fatal("no chunks to downgrade")
	}
}

// TestPointReadsMatchChunkSamples: a point read decodes one sample out of
// its chunk, and must return exactly what decoding the whole chunk gives
// for that row — for footer-carrying and legacy chunks, raw and JPEG
// samples, link tensors, tiled samples, sequence rows and rows still in the
// write buffer — and a reused ScanReader must agree with it in any order.
func TestPointReadsMatchChunkSamples(t *testing.T) {
	ctx := context.Background()
	const rows = 300

	t.Run("v2", func(t *testing.T) {
		ds := buildPointReadDataset(t, storage.NewMemory(), rows)
		checkPointReads(t, ds)
	})

	t.Run("write-buffered", func(t *testing.T) {
		ds := buildPointReadDataset(t, storage.NewMemory(), rows)
		appendPointReadRows(t, ds, rows, rows+40)
		for _, name := range pointReadTensors {
			if ds.Tensor(name).builder.Len() == 0 {
				t.Fatalf("%s: appended rows were not left in the write buffer", name)
			}
		}
		checkPointReads(t, ds)
	})

	t.Run("v1", func(t *testing.T) {
		mem := storage.NewMemory()
		downgradeChunksToV1(t, buildPointReadDataset(t, mem, rows), mem)
		back, err := Open(ctx, mem)
		if err != nil {
			t.Fatal(err)
		}
		checkPointReads(t, back)
	})
}

// TestAtAllocsIndependentOfChunkSize is the point-read allocation gate:
// At on a raw scalar tensor allocates the same for a 16-sample chunk as for
// a 4096-sample chunk, because it decodes one sample, not the chunk.
func TestAtAllocsIndependentOfChunkSize(t *testing.T) {
	ctx := context.Background()
	measure := func(n int) float64 {
		ds, _ := newTestDataset(t)
		x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Htype: "generic", Dtype: tensor.Int64, ChunkCompression: "none", Bounds: oneChunkBounds})
		if err != nil {
			t.Fatal(err)
		}
		if err := x.AppendBatch(ctx, int64Scalars(t, n, 0)); err != nil {
			t.Fatal(err)
		}
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if x.NumChunks() != 1 {
			t.Fatalf("%d samples landed in %d chunks, want 1", n, x.NumChunks())
		}
		var i uint64
		return testing.AllocsPerRun(200, func() {
			if _, err := x.At(ctx, i%uint64(n)); err != nil {
				t.Fatal(err)
			}
			i += 7
		})
	}
	small, large := measure(16), measure(4096)
	if small != large {
		t.Fatalf("At allocs/op grow with chunk size: %.0f for 16 samples, %.0f for 4096", small, large)
	}
}

// TestSnapshotStateChunkSetSortScales: the chunk-set sort inside every
// metadata save stays n log n. 32x the chunk ids must cost far less than
// the ~1000x a quadratic sort pays; best-of-5 timings keep scheduler noise
// out of the ratio.
func TestSnapshotStateChunkSetSortScales(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Htype: "generic", Dtype: tensor.Int64})
	if err != nil {
		t.Fatal(err)
	}
	cost := func(n int) (time.Duration, []uint64) {
		r := rand.New(rand.NewSource(int64(n)))
		x.chunkSet = make(map[uint64]bool, n)
		for len(x.chunkSet) < n {
			x.chunkSet[r.Uint64()] = true
		}
		best, ids := time.Duration(1<<62), []uint64(nil)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			st, err := x.snapshotState()
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
			ids = st.ChunkSet.Chunks
		}
		return best, ids
	}
	small, _ := cost(1 << 10)
	large, ids := cost(32 << 10)
	if len(ids) != 32<<10 || !slices.IsSorted(ids) {
		t.Fatalf("snapshotState returned %d chunk ids, sorted=%v; want %d sorted", len(ids), slices.IsSorted(ids), 32<<10)
	}
	if large > 256*small {
		t.Fatalf("snapshotState on 32k chunk ids took %v, %.0fx the %v of 1k ids; a quadratic sort is ~1000x",
			large, float64(large)/float64(small), small)
	}
}
