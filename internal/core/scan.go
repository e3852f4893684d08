package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/chunk"
	"repro/internal/encoder"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// ChunkSpan is one chunk's contiguous range of sample indices, [First, Last]
// inclusive. The TQL scan engine and the streaming dataloader partition a
// row space along these boundaries so concurrent workers touch disjoint
// chunk sets.
type ChunkSpan struct {
	First, Last uint64
	ChunkID     uint64
}

// ChunkSpans returns the tensor's chunk-aligned partition of its sample
// range, in index order. An empty tensor returns no spans.
func (t *Tensor) ChunkSpans() []ChunkSpan {
	t.rlock()
	defer t.runlock()
	n := t.chunkEnc.NumChunks()
	out := make([]ChunkSpan, 0, n)
	for r := 0; r < n; r++ {
		first, last, id, err := t.chunkEnc.ChunkRange(r)
		if err != nil {
			break
		}
		out = append(out, ChunkSpan{First: first, Last: last, ChunkID: id})
	}
	return out
}

// ChunkFetch is a pluggable fetch+decode source for a ScanReader: given a
// chunk id it returns the chunk's stored samples. The streaming dataloader
// passes its decoded-chunk cache here, so the reader's chunk loads coalesce
// with other workers and the readahead scheduler instead of going straight
// to the tensor's read path.
type ChunkFetch func(ctx context.Context, chunkID uint64) ([]chunk.Sample, error)

// ScanReader is the tensor's one read path: Tensor.At and its siblings are
// one-shot reader calls, and TQL and dataloader workers keep one reader per
// tensor. It serves write-buffered rows from the pending buffer, flat
// samples through a one-chunk slot, tiled samples by assembling their tile
// chunks through the same slot, and sequence rows item by item.
//
// Without a ChunkFetch, the first row served from a chunk is cut out of the
// fetched, verified blob by chunk.SampleAt, so a point read costs O(one
// sample); a second row from that chunk decodes its directory once into a
// reused slice. The reader holds the tensor's read locks for a whole call,
// so each read is one consistent snapshot. A ChunkFetch (the dataloader's
// cache) fills the slot with decoded samples and runs outside the locks, so
// it may re-enter tensor read methods. A ScanReader is NOT safe for
// concurrent use.
type ScanReader struct {
	t     *Tensor
	fetch ChunkFetch
	arena *chunk.Arena

	// The chunk slot. Until decoded, only blob (the verified chunk) is
	// set; dir is the reused backing array of the reader's own decodes.
	valid   bool
	decoded bool
	chunkID uint64
	blob    []byte
	samples []chunk.Sample
	dir     []chunk.Sample
}

// NewScanReader returns a reader with an empty chunk slot whose fetches use
// the tensor's direct read path.
func (t *Tensor) NewScanReader() *ScanReader { return &ScanReader{t: t} }

// NewScanReaderWith returns a reader whose chunk fetches are served by fetch
// (e.g. the dataloader's decoded-chunk cache) instead of the tensor's direct
// read path.
func (t *Tensor) NewScanReaderWith(fetch ChunkFetch) *ScanReader {
	return &ScanReader{t: t, fetch: fetch}
}

// SetArena installs a buffer arena for At's sample decodes: raw payload
// copies bump-allocate from pooled slabs instead of the heap, taking the
// steady-state scan loop to near-zero allocations per sample. The caller
// owns the arena's lifecycle — Reset it only once every array decoded
// through this reader is dead (see chunk.Arena). A nil arena restores plain
// heap allocation.
func (r *ScanReader) SetArena(a *chunk.Arena) { r.arena = a }

// At returns row idx as an array: decoded through the reader's arena,
// assembled from its tiles, or, for a sequence row, its items stacked.
func (r *ScanReader) At(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	if r.fetch == nil {
		r.t.rlock()
		defer r.t.runlock()
	}
	if !r.t.spec.Sequence {
		return r.item(ctx, idx)
	}
	items, err := r.sequence(ctx, idx)
	if err != nil {
		return nil, err
	}
	return tensor.Stack(items)
}

// StoredAt returns the stored (still media-encoded) bytes and logical shape
// of row idx. A tiled sample comes back assembled; a sequence row comes back
// as its items' stored bytes back to back, with the items' shared shape
// behind a leading item count. Data may alias the reader's chunk slot:
// copy it to keep it.
func (r *ScanReader) StoredAt(ctx context.Context, idx uint64) (chunk.Sample, error) {
	if r.fetch == nil {
		r.t.rlock()
		defer r.t.runlock()
	}
	if !r.t.spec.Sequence {
		return r.flat(ctx, idx)
	}
	start, end, err := r.itemRange(idx)
	if err != nil {
		return chunk.Sample{}, err
	}
	out := chunk.Sample{Shape: []int{int(end - start)}}
	for i := start; i < end; i++ {
		s, err := r.flat(ctx, i)
		if err != nil {
			return chunk.Sample{}, err
		}
		if i == start {
			out.Shape = append(out.Shape, s.Shape...)
		} else if !slices.Equal(s.Shape, out.Shape[1:]) {
			return chunk.Sample{}, fmt.Errorf("core: sequence row %d mixes item shapes %v and %v", idx, out.Shape[1:], s.Shape)
		}
		out.Data = append(out.Data, s.Data...)
	}
	return out, nil
}

// The methods below run inside one reader call. Without a ChunkFetch the
// caller holds the tensor's read locks for the whole call; with one, lock
// and unlock bracket each resolve step so fetches run unlocked.
func (r *ScanReader) lock() {
	if r.fetch != nil {
		r.t.rlock()
	}
}

func (r *ScanReader) unlock() {
	if r.fetch != nil {
		r.t.runlock()
	}
}

// itemRange resolves sequence row idx to its flat item range.
func (r *ScanReader) itemRange(idx uint64) (start, end uint64, err error) {
	r.lock()
	defer r.unlock()
	return r.t.seqEnc.RowRange(int(idx))
}

// sequence returns the decoded items of sequence row idx.
func (r *ScanReader) sequence(ctx context.Context, idx uint64) ([]*tensor.NDArray, error) {
	start, end, err := r.itemRange(idx)
	if err != nil {
		return nil, err
	}
	items := make([]*tensor.NDArray, 0, end-start)
	for i := start; i < end; i++ {
		item, err := r.item(ctx, i)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	return items, nil
}

// item returns flat sample i (a sequence item, or a row of any other
// tensor) as an array.
func (r *ScanReader) item(ctx context.Context, i uint64) (*tensor.NDArray, error) {
	s, err := r.flat(ctx, i)
	if err != nil {
		return nil, err
	}
	return r.t.decodeSample(s, r.arena)
}

// flat returns the stored sample of flat sample i: from the pending write
// buffer, from its chunk through the slot, or assembled from its tiles,
// which hold raw bytes.
func (r *ScanReader) flat(ctx context.Context, i uint64) (chunk.Sample, error) {
	t := r.t
	r.lock()
	entry, tiled := t.tileEnc.Get(i)
	chunkID, local, err := t.chunkEnc.Lookup(i)
	var s chunk.Sample
	buffered := err == nil && !tiled && t.builder.Len() > 0 && chunkID == t.pendingID
	if buffered && local >= len(t.pendingSamples) {
		err = fmt.Errorf("core: pending sample %d out of range", local)
	} else if buffered {
		s = t.pendingSamples[local]
	}
	r.unlock()
	switch {
	case err != nil || buffered:
		return s, err
	case tiled:
		arr, err := r.tiled(ctx, entry, nil)
		if err != nil {
			return chunk.Sample{}, err
		}
		return chunk.Sample{Shape: arr.Shape(), Data: arr.Bytes()}, nil
	}
	return r.chunkSample(ctx, chunkID, local)
}

// tiled assembles a tiled sample from the tiles overlapping region (nil =
// the whole sample), reading each tile chunk through the slot.
func (r *ScanReader) tiled(ctx context.Context, entry encoder.TileEntry, region []tensor.Range) (*tensor.NDArray, error) {
	needed := entry.Layout.TilesOverlapping(region)
	tiles := make(map[int]*tensor.NDArray, len(needed))
	for _, ti := range needed {
		s, err := r.chunkSample(ctx, entry.ChunkIDs[ti], 0)
		if err != nil {
			return nil, err
		}
		// Tiles are assembly scratch, never handed out: keep them off
		// the arena.
		arr, err := r.t.decodeSample(s, nil)
		if err != nil {
			return nil, err
		}
		tiles[ti] = arr
	}
	return entry.Layout.Assemble(r.t.Dtype(), tiles, region)
}

// chunkSample returns sample local of a stored chunk through the slot,
// loading the chunk when the slot holds another one.
func (r *ScanReader) chunkSample(ctx context.Context, chunkID uint64, local int) (chunk.Sample, error) {
	var err error
	switch {
	case r.valid && r.chunkID == chunkID && r.decoded:
	case r.valid && r.chunkID == chunkID:
		// A second row from this chunk: decode its directory once.
		if r.dir, err = chunk.DecodeAppend(r.blob, r.dir); err != nil {
			err = fmt.Errorf("core: chunk %d of %q: %w", chunkID, r.t.name, err)
		}
		r.samples, r.decoded = r.dir, true
	case r.fetch != nil:
		r.samples, err = r.fetch(ctx, chunkID)
		r.blob, r.decoded = nil, true
	default:
		r.blob, err = r.t.readChunk(ctx, chunkID)
		r.decoded = false
	}
	r.chunkID, r.valid = chunkID, err == nil
	if err != nil {
		return chunk.Sample{}, err
	}
	if !r.decoded {
		s, err := chunk.SampleAt(r.blob, local)
		if err != nil {
			return chunk.Sample{}, fmt.Errorf("core: sample %d of chunk %d: %w", local, chunkID, err)
		}
		return s, nil
	}
	if local >= len(r.samples) {
		return chunk.Sample{}, fmt.Errorf("core: sample %d of chunk %d: chunk holds %d samples", local, chunkID, len(r.samples))
	}
	return r.samples[local], nil
}

// PrefetchChunks resolves the given chunk ids to storage keys and hands them
// to the provider chain's Prefetcher (the LRU cache's coalescing fetch
// planner), which packs near-adjacent chunk objects into batched ranged
// origin requests running in the background: the call returns once every
// eligible chunk is claimed in the cache's singleflight layer, so readers
// arriving later coalesce onto the in-flight batch rather than issuing their
// own round trips. Chunks still in the write buffer, in the flush pipeline's
// pending map, or unknown to the version map are skipped. A provider chain
// without a Prefetcher makes this a no-op, so callers can prefetch
// unconditionally. Returns the number of chunk objects claimed for fetch.
func (t *Tensor) PrefetchChunks(ctx context.Context, ids []uint64, opts storage.PlanOptions) (int, error) {
	pf, ok := t.ds.store.(storage.Prefetcher)
	if !ok || len(ids) == 0 {
		return 0, nil
	}
	t.rlock()
	if opts.SizeHint <= 0 {
		// Chunk objects are ~effective-target bytes; the planner sizes
		// whole-object requests it cannot stat with this.
		opts.SizeHint = int64(t.builder.EffectiveBounds().Target)
	}
	keys := make([]string, 0, len(ids))
	for _, id := range ids {
		if t.builder.Len() > 0 && id == t.pendingID {
			continue
		}
		vid, known := t.chunkVersion[id]
		if !known {
			continue
		}
		key := chunkKey(vid, t.name, id)
		if fp := t.ds.flusher; fp != nil {
			if _, inflight := fp.lookup(key); inflight {
				continue
			}
		}
		keys = append(keys, key)
	}
	t.runlock()
	if len(keys) == 0 {
		return 0, nil
	}
	return pf.PrefetchAsync(ctx, keys, opts), nil
}
