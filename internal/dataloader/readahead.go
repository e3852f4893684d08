package dataloader

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/view"
)

// The readahead scheduler (§4.6 "fetches the next batch in advance") walks
// the epoch plans' chunk visit order ahead of the worker pool and pulls
// upcoming chunks into the chunk cache, so by the time a worker takes a
// chunk job its chunk is usually resident. Its walk stays at most K chunks
// ahead of the job the workers are currently on, bounding decoded memory
// the same way the cache's byte budget does, and its fetches coalesce with
// worker fetches through the cache's singleflight layer — the chunk is
// still read only once.
//
// The walk's origin traffic goes out in fetch strips: runs of upcoming
// chunks handed to the storage prefetcher as one coalesced plan. Strips
// are double-buffered — whenever the walk enters a strip, the strip after
// it is already planned, so one strip is always landing while the walk and
// the workers drain the one before it, and a strip's round trip is off the
// critical path. Both strips live in the raw byte cache at once, so a
// strip is at most half of that cache wide (stripWidth): with wider ones,
// each arriving strip would evict undecoded chunks of the strip being
// drained, and those would cross the wire twice.

// readaheadDriver resolves the tensor whose chunks the scheduler
// prefetches. It returns nil when no column drives chunked reads
// (computed-only views, no chunk-aligned groups), in which case readahead
// is a no-op.
func readaheadDriver(v *view.View, primary string, groups []groupRef) *core.Tensor {
	if primary == "" {
		return nil
	}
	t := v.Dataset().Tensor(primary)
	if t == nil {
		return nil
	}
	for _, g := range groups {
		if g.chunk {
			return t
		}
	}
	return nil
}

// raProgress tracks the highest chunk-job ordinal the workers have started
// on; the scheduler blocks on it to stay within its lookahead window.
type raProgress struct {
	mu       sync.Mutex
	cond     *sync.Cond
	frontier int
	closed   bool
}

func newRAProgress() *raProgress {
	p := &raProgress{frontier: -1}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// advance records that a worker has started the chunk job with the given
// ordinal.
func (p *raProgress) advance(ord int) {
	p.mu.Lock()
	if ord > p.frontier {
		p.frontier = ord
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// waitUntil blocks until the worker frontier reaches ord (or the epoch
// ends); it reports false when the epoch ended first.
func (p *raProgress) waitUntil(ord int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.frontier < ord && !p.closed {
		p.cond.Wait()
	}
	return !p.closed
}

// current returns the worker frontier.
func (p *raProgress) current() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frontier
}

// stop releases any waiting scheduler; called when the pipeline shuts down.
func (p *raProgress) stop() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// itinerary walks the epochs' chunk visit orders back to back, one group
// at a time. Each epoch's shard skeleton is rebuilt on demand (buildShard
// is deterministic and O(chunks)), so no cross-epoch itinerary is ever held
// in memory.
type itinerary struct {
	groups []groupRef
	o      Options
	epoch  int
	shard  []groupRef
	i      int
}

// next returns the next group of the visit order, or false once every
// epoch is walked.
func (it *itinerary) next() (groupRef, bool) {
	for it.i >= len(it.shard) {
		if it.epoch >= it.o.Epochs {
			return groupRef{}, false
		}
		it.shard = buildShard(it.groups, it.o, it.epoch).groups
		it.epoch++
		it.i = 0
	}
	it.i++
	return it.shard[it.i-1], true
}

// fetchStrip is a run of the visit order handed to the storage prefetcher
// as one plan: its groups and the ordinal of the first.
type fetchStrip struct {
	ord    int
	groups []groupRef
}

// stripWidth is how many primary chunks one fetch strip covers: FetchBatch,
// narrowed so that two strips of t's chunks fit in the raw byte cache when
// the dataset's store reports a capacity (storage.LRU does). Zero when
// batched prefetch is disabled.
func stripWidth(store storage.Provider, t *core.Tensor, fetchBatch int) int {
	if fetchBatch <= 0 {
		return 0
	}
	c, ok := store.(interface{ Capacity() int64 })
	target := int64(t.EffectiveBounds().Target)
	if !ok || c.Capacity() < 0 || target <= 0 {
		return fetchBatch
	}
	return int(max(1, min(int64(fetchBatch), c.Capacity()/2/target)))
}

// runReadahead walks the epochs' chunk visit orders and prefetches each
// chunk once the workers are within k distinct chunks of it. Ordinals
// count visit groups — sub-jobs of a split group share one — keeping the
// lookahead window measured in chunks, and groups without a stored chunk
// are skipped but still occupy their ordinal, so the scheduler stays
// aligned with the worker frontier. Fetch errors are ignored here: the
// worker that needs the chunk will hit the same error on its own read path
// and report it with row context.
func runReadahead(ctx context.Context, l *Loader, t *core.Tensor, secondaries []*core.Tensor, groups []groupRef, o Options, prog *raProgress, k int, ready chan<- struct{}) {
	v := l.v
	// ready gates the job feeder: it is closed once the opening strips have
	// been issued and the first chunk has landed and decoded, so the
	// workers' first cache misses find the strips' chunks already in flight
	// instead of racing the planner with their own one-chunk origin round
	// trips. The first job needs that chunk anyway, and the walk, not a
	// worker, always reads it. Closed on every exit path so an early return
	// can never wedge the pipeline.
	var readyOnce sync.Once
	release := func() {
		if ready != nil {
			readyOnce.Do(func() { close(ready) })
		}
	}
	defer release()
	// Chunks the scheduler decodes are ahead of the feeder's per-job pins
	// (the opening strip lands before any job is enqueued at all), so the
	// scheduler holds its own pin on every chunk in the lookahead window and
	// drops it once the worker frontier passes the chunk's ordinal — by
	// which point the job that needs it has been enqueued and carries the
	// feeder's pin. Without this, a tight budget evicts each prefetched
	// chunk before its job runs and every chunk decodes twice. Pins route
	// through l.pins so the pipeline's shutdown sweep reclaims whatever an
	// aborted walk leaves held.
	type raPin struct {
		ord int
		key cacheKey
	}
	var held []raPin
	releasePast := func(frontier int) {
		i := 0
		for ; i < len(held) && held[i].ord <= frontier; i++ {
			l.pins.unpin(l.cache, held[i].key)
		}
		held = held[i:]
	}
	defer func() {
		for _, h := range held {
			l.pins.unpin(l.cache, h.key)
		}
	}()

	// Strip prefetch: the planner cursor runs through the same itinerary
	// as the walk, cutting it into strips of width primary chunks. Each
	// strip goes to the tensor's storage prefetcher as one coalesced fetch
	// plan — near-adjacent chunk objects ride one batched ranged origin
	// request into the byte cache, so the walk's per-chunk cacheGet (and
	// the workers' own fetches) land as cache hits.
	width := stripWidth(v.Dataset().Store(), t, o.FetchBatch)
	planner := itinerary{groups: groups, o: o}
	plannedOrd := 0
	nextStrip := func() (fetchStrip, bool) {
		s := fetchStrip{ord: plannedOrd}
		for chunks := 0; chunks < width; {
			g, ok := planner.next()
			if !ok {
				break
			}
			s.groups = append(s.groups, g)
			if g.chunk {
				chunks++
			}
		}
		plannedOrd += len(s.groups)
		return s, len(s.groups) > 0
	}
	// prefetchStrip hands the strip's chunks that no worker has started
	// yet to the prefetcher (workers past a chunk fetched it themselves,
	// and may have consumed it already). PrefetchChunks claims the chunks
	// and returns while the coalesced round trips fly in the background,
	// so strips and per-tensor plans overlap each other and the walk;
	// workers that reach a strip chunk early coalesce onto its in-flight
	// fetch through the cache's singleflight layer. Chunks already cached
	// cost no wire traffic: the cache only marks them recently used.
	// Errors are ignored like fetch errors below: readers recover
	// per-chunk.
	prefetchStrip := func(s fetchStrip) {
		pending := s.groups[min(len(s.groups), max(0, prog.current()-s.ord+1)):]
		var ids []uint64
		for _, g := range pending {
			if g.chunk {
				ids = append(ids, g.key)
			}
		}
		if len(ids) > 0 {
			_, _ = t.PrefetchChunks(ctx, ids, storage.PlanOptions{})
		}
		// Secondary stored fields (labels beside images, say) have their
		// own chunk layout that the primary-driven walk never visits;
		// without this their first touch by a worker is a bare origin
		// round trip on the delivery critical path. Hand the chunks
		// covering this strip's rows to the planner too.
		for _, sec := range secondaries {
			if sids := stripSecondaryIDs(v, sec, pending); len(sids) > 0 {
				_, _ = sec.PrefetchChunks(ctx, sids, storage.PlanOptions{})
			}
		}
	}
	// strips holds the planned strips the walk has not finished, oldest
	// first.
	var strips []fetchStrip

	walk := itinerary{groups: groups, o: o}
	for ord := 0; ; ord++ {
		g, ok := walk.next()
		if !ok {
			return
		}
		if !prog.waitUntil(ord-k) || ctx.Err() != nil {
			return
		}
		releasePast(prog.current())
		// Double buffering: before the walk blocks on any chunk of the
		// strip it is in, that strip and the next one are both planned.
		// On entering a strip the walk hands it to the prefetcher once
		// more: the strip it just drained was read after this one landed,
		// so the raw cache ranks the dead strip above the live one, and
		// the next strip's arrival would evict the live chunks first.
		// Re-listing them marks them recently used (and re-claims any
		// already lost) before the next strip is planned.
		if width > 0 {
			entered := false
			for len(strips) > 0 && strips[0].ord+len(strips[0].groups) <= ord {
				strips, entered = strips[1:], true
			}
			if entered && len(strips) > 0 {
				prefetchStrip(strips[0])
			}
			for len(strips) < 2 {
				s, ok := nextStrip()
				if !ok {
					break
				}
				prefetchStrip(s)
				strips = append(strips, s)
			}
		}
		// Workers already started (or passed) this chunk: they fetched it
		// themselves, and under budget pressure it may even have been
		// consumed and evicted — refetching would waste origin bandwidth
		// and evict entries workers still hold hot.
		if g.chunk && ord > prog.current() {
			key := cacheKey{scope: l.scope, obj: t.ChunkIdentity(g.key)}
			l.pins.pin(l.cache, key)
			held = append(held, raPin{ord: ord, key: key})
			_, _ = l.cacheGet(ctx, t, g.key)
		}
		if ord == 0 {
			release()
		}
	}
}

// stripSecondaryIDs lists the distinct chunk ids of t covering the view rows
// of the given groups, in visit order. Rows that fail to resolve (computed
// views, rows still in the write buffer) are skipped — the worker's own read
// path handles them.
func stripSecondaryIDs(v *view.View, t *core.Tensor, groups []groupRef) []uint64 {
	var ids []uint64
	seen := map[uint64]bool{}
	for _, g := range groups {
		for _, row := range g.rows {
			src, err := v.SourceRow(row)
			if err != nil {
				continue
			}
			id, _, err := t.ChunkOf(src)
			if err != nil || seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}
