package core

import (
	"context"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/encoder"
	"repro/internal/tensor"
)

func tileEntryOf(layout chunk.TileLayout, ids []uint64) encoder.TileEntry {
	return encoder.TileEntry{Layout: layout, ChunkIDs: ids}
}

// SetAt replaces sample idx in place (§3.5 random-access writes: annotators
// writing labels, models storing predictions). The containing chunk is
// rewritten copy-on-write into the current head version, so committed
// versions keep the original bytes (§4.2).
//
// When Strict is disabled on the dataset and idx is beyond the current
// length, the tensor is padded with empty samples up to idx first (§3.5
// sparse tensors).
func (t *Tensor) SetAt(ctx context.Context, idx uint64, arr *tensor.NDArray) error {
	if err := t.ds.writableNow(); err != nil {
		return err
	}
	if t.spec.Sequence {
		return fmt.Errorf("core: SetAt on sequence tensors is not supported")
	}
	// Encode outside the locks; only the index/chunk surgery below needs
	// exclusive access.
	s, err := t.encodeSample(arr)
	if err != nil {
		return err
	}
	if err := t.beginWrite(); err != nil {
		return err
	}
	defer t.ds.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Deferred flush errors (parked, redrivable uploads) do not abort the
	// update mid-way: the index state is fully adjusted and the error is
	// surfaced afterwards.
	var dc deferredCollector
	if idx >= t.meta.Length {
		if t.ds.strict {
			return fmt.Errorf("core: index %d out of bounds for tensor %q (len %d, strict mode)", idx, t.name, t.meta.Length)
		}
		if err := dc.note(t.padToLocked(ctx, idx+1)); err != nil {
			return err
		}
	}
	if err := dc.note(t.replaceStored(ctx, idx, s)); err != nil {
		return err
	}
	if err := t.shapeEnc.Set(idx, s.Shape); err != nil {
		return err
	}
	t.recordUpdate(idx)
	return dc.err()
}

// replaceStored swaps the stored bytes of flat sample idx. Caller holds
// the tensor write lock. A deferred flush error from sealing or rewriting
// (bytes parked, redrivable) is carried through — the replacement still
// completes — so the caller's index state never diverges from the data.
func (t *Tensor) replaceStored(ctx context.Context, idx uint64, s chunk.Sample) error {
	var dc deferredCollector
	note := dc.note
	if _, tiled := t.tileEnc.Get(idx); tiled {
		// Replacing a tiled sample re-tiles it from scratch.
		arr, err := t.decodeSample(s, nil)
		if err != nil {
			return err
		}
		if t.sampleCodec == nil {
			arr, err = tensor.FromBytes(t.Dtype(), s.Shape, s.Data)
			if err != nil {
				return err
			}
		}
		if err := note(t.appendTiledReplace(ctx, idx, arr)); err != nil {
			return err
		}
		return dc.err()
	}
	chunkID, local, err := t.chunkEnc.Lookup(idx)
	if err != nil {
		return err
	}
	if t.builder.Len() > 0 && chunkID == t.pendingID {
		if local >= len(t.pendingSamples) {
			return fmt.Errorf("core: pending sample %d out of range", local)
		}
		old := t.pendingSamples[local]
		grown := t.builder.PayloadBytes() - len(old.Data) + len(s.Data)
		if grown <= t.meta.Bounds.Max || len(t.pendingSamples) == 1 {
			t.pendingSamples[local] = s
			return t.rebuildPending()
		}
		// The replacement would overflow the buffered chunk: persist
		// the pending chunk as-is and rewrite it copy-on-write below,
		// where chunks may exceed the bound (Rechunk repairs layout,
		// §3.5). A deferred seal failure parks the blob readable, so the
		// rewrite below still sees the current bytes.
		if err := note(t.flushPending(ctx)); err != nil {
			return err
		}
	}
	raw, err := t.readChunk(ctx, chunkID)
	if err != nil {
		return err
	}
	samples, err := chunk.Decode(raw)
	if err != nil {
		return err
	}
	if local >= len(samples) {
		return fmt.Errorf("core: sample %d beyond chunk %d", local, chunkID)
	}
	samples[local] = s
	blob, err := chunk.Encode(samples)
	if err != nil {
		return err
	}
	// Copy-on-write: the rewritten chunk lands in the head version under
	// the same id; ancestry lookup finds the newest copy first.
	if err := note(t.writeChunk(ctx, chunkID, blob)); err != nil {
		return err
	}
	return dc.err()
}

// appendTiledReplace re-tiles a sample that was already tiled, reusing its
// index slot. Deferred flush errors from tile uploads are collected; the
// tile layout is still fully recorded before they surface.
func (t *Tensor) appendTiledReplace(ctx context.Context, idx uint64, arr *tensor.NDArray) error {
	var dc deferredCollector
	layout, err := chunk.PlanTiles(arr.Shape(), arr.Dtype().Size(), t.meta.Bounds.Target)
	if err != nil {
		return err
	}
	tiles, err := layout.Split(arr)
	if err != nil {
		return err
	}
	ids := make([]uint64, 0, len(tiles))
	for _, tile := range tiles {
		id := t.allocChunkID()
		blob, err := chunk.Encode([]chunk.Sample{{Shape: tile.Shape(), Data: tile.Bytes()}})
		if err != nil {
			return err
		}
		if err := dc.note(t.writeChunk(ctx, id, blob)); err != nil {
			return err
		}
		ids = append(ids, id)
	}
	if err := t.tileEnc.Set(idx, tileEntryOf(layout, ids)); err != nil {
		return err
	}
	return dc.err()
}

// rebuildPending re-syncs the chunk builder after an in-buffer update.
func (t *Tensor) rebuildPending() error {
	b := chunk.NewBuilder(t.meta.Bounds)
	for _, s := range t.pendingSamples {
		if err := b.Append(s); err != nil {
			return err
		}
	}
	t.builder = b
	return nil
}

// recordUpdate notes idx in the commit diff, deduplicated.
func (t *Tensor) recordUpdate(idx uint64) {
	for _, u := range t.diff.Updated {
		if u == idx {
			return
		}
	}
	t.diff.Updated = append(t.diff.Updated, idx)
}

// PadTo extends the tensor with empty samples until it has n rows,
// supporting sparse out-of-bounds assignment (§3.5).
func (t *Tensor) PadTo(ctx context.Context, n uint64) error {
	if err := t.beginWrite(); err != nil {
		return err
	}
	defer t.ds.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.padToLocked(ctx, n)
}

func (t *Tensor) padToLocked(ctx context.Context, n uint64) error {
	var dc deferredCollector
	for t.meta.Length < n {
		empty := chunk.Sample{Shape: []int{0}, Data: nil}
		if err := dc.note(t.appendEncodedSample(ctx, empty, nil)); err != nil {
			return err
		}
		t.meta.Length++
		t.diff.AddedTo = t.meta.Length
	}
	return dc.err()
}

// Rechunk rewrites the tensor's chunks at the optimal layout (§3.5: "we
// implement an on-the-fly re-chunking algorithm to fix the data layout"
// after random assignment degrades it). All samples are re-packed into
// fresh bounded chunks in the current head version; the chunk encoder is
// replaced wholesale. Tiled samples are left untouched.
func (t *Tensor) Rechunk(ctx context.Context) error {
	if err := t.beginWrite(); err != nil {
		return err
	}
	defer t.ds.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Deferred flush errors must not abort a rechunk midway: writeChunk
	// has already registered the new id, so bailing before ReplaceAll
	// would persist chunk ids no row references. Collect them, finish the
	// swap, surface afterwards.
	var dc deferredCollector
	note := dc.note
	if err := note(t.flushPending(ctx)); err != nil {
		return err
	}
	total := t.chunkEnc.NumSamples()
	// The rechunk holds the write lock, so its reader runs lock-free and
	// decodes each source chunk once.
	r := ScanReader{t: t}
	var (
		newIDs    []uint64
		newCounts []int
		builder   = chunk.NewBuilder(t.meta.Bounds)
		curID     uint64
		curCount  int
	)
	flush := func() error {
		if builder.Len() == 0 {
			return nil
		}
		blob, n, err := builder.Flush()
		if err != nil {
			return err
		}
		if err := note(t.writeChunk(ctx, curID, blob)); err != nil {
			return err
		}
		newIDs = append(newIDs, curID)
		newCounts = append(newCounts, n)
		curCount = 0
		return nil
	}
	for idx := uint64(0); idx < total; idx++ {
		if entry, tiled := t.tileEnc.Get(idx); tiled {
			if err := flush(); err != nil {
				return err
			}
			// Keep the tile chunks; re-register the index slot.
			newIDs = append(newIDs, entry.ChunkIDs[0])
			newCounts = append(newCounts, 1)
			continue
		}
		s, err := r.flat(ctx, idx)
		if err != nil {
			return err
		}
		// Deep-copy: source chunk buffers are reused across reads.
		cp := chunk.Sample{Shape: append([]int(nil), s.Shape...), Data: append([]byte(nil), s.Data...)}
		if builder.ShouldFlushBefore(len(cp.Data)) {
			if err := flush(); err != nil {
				return err
			}
		}
		if builder.Len() == 0 {
			curID = t.allocChunkID()
		}
		if err := builder.Append(cp); err != nil {
			return err
		}
		curCount++
	}
	if err := flush(); err != nil {
		return err
	}
	_ = curCount
	if err := t.chunkEnc.ReplaceAll(newIDs, newCounts); err != nil {
		return err
	}
	return dc.err()
}
