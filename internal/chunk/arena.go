package chunk

// arenaSlabBytes is the slab granularity: large enough that a slab amortizes
// hundreds of typical decoded samples, small enough that a slab is cheap to
// keep around per worker.
const arenaSlabBytes = 256 << 10

// Arena is a bump allocator over slabs for decode-path sample buffers.
// Instead of one heap allocation per decoded sample, samples are carved out
// of shared slabs: a scan touching thousands of samples costs a handful of
// slab allocations.
//
// The arena references only its current slab. A slab it has filled belongs
// to whatever buffers were carved from it, so the garbage collector frees it
// once the last of them is dropped: an arena whose buffers escape into
// long-lived consumers (the dataloader's decode and collate arenas hand
// theirs to user batches) holds at most one slab, however long it runs.
//
// Arenas are NOT goroutine-safe — use one per worker. Reset rewinds the
// current slab, so every buffer carved from it since it was acquired
// becomes invalid; call it only once the caller can prove no such buffer
// escaped to a consumer that still holds it (e.g. between benchmark
// iterations). Read paths that hand decoded tensors to user code never
// Reset and rely on the bump allocation alone — fewer, larger heap
// allocations.
type Arena struct {
	cur []byte
	off int
}

// NewArena returns an empty arena; slabs are acquired lazily.
func NewArena() *Arena { return &Arena{} }

// Alloc returns an n-byte buffer carved from the arena. Oversize requests
// (beyond the slab granularity) get a dedicated heap allocation. The
// returned slice has full capacity n and does not alias any other live
// allocation from this arena.
func (a *Arena) Alloc(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > arenaSlabBytes {
		return make([]byte, n)
	}
	if a.cur == nil || a.off+n > arenaSlabBytes {
		a.cur = make([]byte, arenaSlabBytes)
		a.off = 0
	}
	buf := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return buf
}

// Copy allocates from the arena and copies src into it.
func (a *Arena) Copy(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	dst := a.Alloc(len(src))
	copy(dst, src)
	return dst
}

// Reset rewinds the current slab for reuse. Every buffer carved from it
// becomes invalid — see the type comment for when this is safe.
func (a *Arena) Reset() { a.off = 0 }
