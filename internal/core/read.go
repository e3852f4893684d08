package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/tensor"
)

// At returns row idx as an array. Sequence rows come back stacked when
// items share a shape (use SequenceAt otherwise); link samples come back as
// the stored URL bytes (use view.Resolve to fetch the target).
//
// At is a one-shot ScanReader call, so a point read costs O(one sample) in
// decode work and allocations: it fetches the chunk (a cache hit when warm),
// checks its footer CRC and decodes only this sample. Scans over many rows
// should keep one ScanReader, which decodes each chunk once.
func (t *Tensor) At(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	r := ScanReader{t: t}
	return r.At(ctx, idx)
}

// decodeSample turns a stored sample into an array, drawing the
// raw-payload copy from an arena (nil falls back to the heap): the
// per-sample make+copy the hot scan path would otherwise pay becomes a bump
// allocation in a pooled slab. Media decodes draw their flattened HWC pixel
// buffer from the arena too when the codec supports DecodeInto; only the
// codec's internal decode state still allocates where the codec puts it.
func (t *Tensor) decodeSample(s chunk.Sample, a *chunk.Arena) (*tensor.NDArray, error) {
	if t.sampleCodec != nil {
		var (
			pixels  []byte
			h, w, c int
			err     error
		)
		if di, ok := t.sampleCodec.(compress.DecoderInto); ok && a != nil {
			pixels, h, w, c, err = di.DecodeInto(s.Data, a.Alloc)
		} else {
			pixels, h, w, c, err = t.sampleCodec.Decode(s.Data)
		}
		if err != nil {
			return nil, err
		}
		shape := []int{h, w, c}
		if c == 1 {
			shape = []int{h, w}
		}
		arr, err := tensor.FromBytes(tensor.UInt8, shape, pixels)
		if err != nil {
			return nil, err
		}
		// Honor the recorded logical shape when compatible (e.g. a
		// stored [H,W,1] vs decoded [H,W]).
		if prod(s.Shape) == arr.Len() && len(s.Shape) > 0 {
			return arr.Reshape(s.Shape...)
		}
		return arr, nil
	}
	var data []byte
	if a != nil {
		data = a.Copy(s.Data)
	} else {
		data = make([]byte, len(s.Data))
		copy(data, s.Data)
	}
	dtype := t.Dtype()
	if t.spec.Link {
		// A link sample is its URL's bytes, whatever the target's dtype.
		dtype = tensor.UInt8
	}
	return tensor.FromBytes(dtype, s.Shape, data)
}

// Slice reads a sub-region of sample idx (TQL's images[a:b, c:d]). Tiled
// samples fetch only overlapping tiles; raw uncompressed samples whose
// region constrains only the first axis are read with a sub-chunk byte
// range request (§3.5), never transferring the rest of the sample.
func (t *Tensor) Slice(ctx context.Context, idx uint64, region []tensor.Range) (*tensor.NDArray, error) {
	if t.spec.Sequence {
		return nil, fmt.Errorf("core: Slice of sequence tensors is not supported; slice items individually")
	}
	t.rlock()
	defer t.runlock()
	r := ScanReader{t: t}
	if entry, tiled := t.tileEnc.Get(idx); tiled {
		return r.tiled(ctx, entry, region)
	}
	// Range-read fast path: uncompressed chunk + raw sample + region
	// constraining only axis 0.
	if t.chunkCodec == nil && t.sampleCodec == nil && len(region) == 1 {
		if arr, ok, err := t.rangeReadFirstAxis(ctx, idx, region[0]); err != nil || ok {
			return arr, err
		}
	}
	arr, err := r.item(ctx, idx)
	if err != nil {
		return nil, err
	}
	return arr.Slice(region...)
}

// rangeReadFirstAxis serves Slice(idx, [lo:hi]) with one byte-range request
// when the sample is raw and its chunk is uncompressed. ok=false means the
// fast path does not apply (e.g. the sample sits in the write buffer).
func (t *Tensor) rangeReadFirstAxis(ctx context.Context, idx uint64, r tensor.Range) (*tensor.NDArray, bool, error) {
	// The chunk's sample count and this sample's rank bound the directory
	// read below; a binary search finds the chunk's encoder row.
	row := sort.Search(t.chunkEnc.NumChunks(), func(row int) bool {
		_, last, _, _ := t.chunkEnc.ChunkRange(row)
		return last >= idx
	})
	first, last, chunkID, err := t.chunkEnc.ChunkRange(row)
	if err != nil {
		return nil, false, fmt.Errorf("core: sample %d out of range (%d samples)", idx, t.chunkEnc.NumSamples())
	}
	if t.builder.Len() > 0 && chunkID == t.pendingID {
		return nil, false, nil
	}
	vid, ok := t.chunkVersion[chunkID]
	if !ok {
		return nil, false, fmt.Errorf("core: chunk %d not found in any version", chunkID)
	}
	key := chunkKey(vid, t.name, chunkID)
	if fp := t.ds.flusher; fp != nil {
		// A chunk still on its way to storage is served whole from the
		// flush pipeline's in-flight map by the regular read path.
		if _, inflight := fp.lookup(key); inflight {
			return nil, false, nil
		}
	}

	shape, err := t.shapeEnc.Get(idx)
	if err != nil {
		return nil, false, err
	}
	if len(shape) == 0 {
		return nil, false, nil
	}
	headerLen := chunk.HeaderRange(int(last-first+1), maxRankHint)
	head, err := t.ds.store.GetRange(ctx, key, 0, headerLen)
	if err != nil {
		return nil, false, err
	}
	dir, err := chunk.DecodeDirectory(head)
	if err != nil {
		return nil, false, err
	}
	sampleOff, _, sampleShape, err := dir.SampleRange(head, int(idx-first))
	if err != nil {
		return nil, false, err
	}
	lo, hi, err := resolveAxis(r, sampleShape[0])
	if err != nil {
		return nil, false, err
	}
	rowElems := 1
	for _, d := range sampleShape[1:] {
		rowElems *= d
	}
	elem := t.Dtype().Size()
	off := sampleOff + int64(lo*rowElems*elem)
	length := int64((hi - lo) * rowElems * elem)
	data, err := t.ds.store.GetRange(ctx, key, off, length)
	if err != nil {
		return nil, false, err
	}
	outShape := append([]int{hi - lo}, sampleShape[1:]...)
	arr, err := tensor.FromBytes(t.Dtype(), outShape, data)
	if err != nil {
		return nil, false, err
	}
	return arr, true, nil
}

// maxRankHint bounds the per-sample shape entries assumed when sizing the
// directory prefetch for range reads.
const maxRankHint = 8

// SequenceAt returns the items of sequence row i.
func (t *Tensor) SequenceAt(ctx context.Context, row int) ([]*tensor.NDArray, error) {
	if !t.spec.Sequence {
		return nil, fmt.Errorf("core: tensor %q is not a sequence tensor", t.name)
	}
	t.rlock()
	defer t.runlock()
	r := ScanReader{t: t}
	return r.sequence(ctx, uint64(row))
}

// SequenceLen returns the item count of sequence row i.
func (t *Tensor) SequenceLen(row int) (int, error) {
	t.rlock()
	defer t.runlock()
	start, end, err := t.seqEnc.RowRange(row)
	if err != nil {
		return 0, err
	}
	return int(end - start), nil
}

// LinkAt returns the URL stored at idx of a link tensor.
func (t *Tensor) LinkAt(ctx context.Context, idx uint64) (string, error) {
	if !t.spec.Link {
		return "", fmt.Errorf("core: tensor %q is not a link tensor", t.name)
	}
	r := ScanReader{t: t}
	s, err := r.StoredAt(ctx, idx)
	if err != nil {
		return "", err
	}
	return string(s.Data), nil
}

// RawAt returns the stored (still media-encoded) bytes and logical shape of
// row idx, as ScanReader.StoredAt gives them. The viz server uses it to
// stream media without recoding.
func (t *Tensor) RawAt(ctx context.Context, idx uint64) ([]byte, []int, error) {
	r := ScanReader{t: t}
	s, err := r.StoredAt(ctx, idx)
	if err != nil {
		return nil, nil, err
	}
	return bytes.Clone(s.Data), slices.Clone(s.Shape), nil
}

// Shape returns the logical shape of sample idx from the shape encoder —
// no chunk data is touched (§3.4 hidden shape metadata).
func (t *Tensor) Shape(idx uint64) ([]int, error) {
	t.rlock()
	defer t.runlock()
	return t.shapeEnc.Get(idx)
}

// DecodeStored decodes bytes previously returned by RawAt into an array;
// safe for concurrent use (dataloader workers).
func (t *Tensor) DecodeStored(data []byte, shape []int) (*tensor.NDArray, error) {
	return t.decodeSample(chunk.Sample{Shape: shape, Data: data}, nil)
}

// ChunkOf returns the stored chunk id and local index of row idx — for a
// sequence row, of the item it starts at. Rows still in the write buffer
// have no stored chunk yet and return an error. The chunk-aware dataloader
// scheduler groups rows by chunk with it.
func (t *Tensor) ChunkOf(idx uint64) (uint64, int, error) {
	t.rlock()
	defer t.runlock()
	if t.spec.Sequence {
		start, _, err := t.seqEnc.RowRange(int(idx))
		if err != nil {
			return 0, 0, err
		}
		idx = start
	}
	chunkID, local, err := t.chunkEnc.Lookup(idx)
	if err == nil && t.builder.Len() > 0 && chunkID == t.pendingID {
		return 0, 0, fmt.Errorf("core: sample %d of %q is still in the write buffer", idx, t.name)
	}
	return chunkID, local, err
}

// ReadChunkSamples fetches a whole stored chunk and returns its samples;
// the dataloader's cache fetches each chunk once for all rows it needs.
func (t *Tensor) ReadChunkSamples(ctx context.Context, chunkID uint64) ([]chunk.Sample, error) {
	t.rlock()
	defer t.runlock()
	raw, err := t.readChunk(ctx, chunkID)
	if err != nil {
		return nil, err
	}
	return chunk.Decode(raw)
}

func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func resolveAxis(r tensor.Range, n int) (int, int, error) {
	lo, hi := r.Start, r.Stop
	if lo < 0 {
		lo += n
	}
	if hi != tensor.End && hi < 0 {
		hi += n
	}
	if hi == tensor.End || hi > n {
		hi = n
	}
	if lo < 0 || lo > n || hi < lo {
		return 0, 0, fmt.Errorf("core: invalid range [%d:%d) for axis of size %d", r.Start, r.Stop, n)
	}
	return lo, hi, nil
}
