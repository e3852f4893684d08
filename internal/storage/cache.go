package storage

import (
	"container/list"
	"context"
	"sync"
)

// maxShards is the most shards NewSharded chooses. Sixteen mutex-striped
// shards keep lock hold times short enough that dozens of dataloader
// workers probe a cache without serializing behind one another.
const maxShards = 16

// minShardBytes floors the automatic per-shard capacity at two of the
// paper's ~8MB target chunks (§3.4), so sharding a modest cache never
// silently un-caches the very objects it exists to hold.
const minShardBytes = 16 << 20

// shardCount scales the shard count to capacity: one shard per
// minShardBytes, at most maxShards, at least one (a negative, unbounded
// capacity gets one).
func shardCount(capacity int64) int {
	return int(max(1, min(capacity/minShardBytes, maxShards)))
}

// Sharded is the one byte-budgeted LRU behind every cache tier of the node:
// the RAM cache of raw objects (LRU), the decoded-chunk buffer
// (dataloader.NodeCache) and the index of the local-disk tier (Disk). It is
// string-keyed and split across mutex-striped shards by an FNV-1a hash of
// the key; each shard gets an even share of the capacity. A Flight
// singleflight collapses concurrent fills of one key into one.
//
// The rules, the same for every tier:
//   - An entry larger than its shard's capacity is refused and counted as
//     bypassed, unless the key is pinned; a refused admit also drops the
//     entry previously cached under the key, so a write that cannot be
//     cached never leaves older bytes answering for it.
//   - Admitting evicts least-recently-used entries until the shard fits
//     its capacity, skipping pinned entries and the entry being admitted.
//     When only those remain the shard runs over budget.
//   - A negative capacity is unbounded: nothing is evicted or refused.
//
// Pins are reference counts and may be taken before the key is resident.
// Sharded is safe for concurrent use.
type Sharded[V any] struct {
	shards []*cacheShard[V]
	flight Flight[V]
	size   func(V) int64
	// onDrop, when set, is called outside the shard lock for every entry
	// the cache drops on its own: evictions, and entries superseded by a
	// refused admit. Remove does not call it.
	onDrop func(key string, v V)
}

type cacheShard[V any] struct {
	capacity int64

	mu    sync.Mutex
	used  int64
	order *list.List // front = most recently used; values are *cacheEntry[V]
	items map[string]*list.Element
	pins  map[string]int
	st    ShardStats // counters only; UsedBytes, Entries, Pinned are filled by Stats
}

type cacheEntry[V any] struct {
	key  string
	val  V
	size int64
}

// NewSharded builds a cache of the given byte capacity (negative means
// unbounded) whose entries weigh size(v) bytes, with the shard count
// derived from capacity: one shard per 16MB, at most 16.
func NewSharded[V any](capacity int64, size func(V) int64) *Sharded[V] {
	return newSharded(capacity, shardCount(capacity), size)
}

// newSharded is NewSharded with an exact shard count. The capacity is split
// evenly, with the division remainder spread one byte at a time over the
// leading shards, so no fraction of the budget is lost.
func newSharded[V any](capacity int64, shards int, size func(V) int64) *Sharded[V] {
	shards = max(shards, 1)
	c := &Sharded[V]{shards: make([]*cacheShard[V], shards), size: size}
	per, rem := capacity/int64(shards), capacity%int64(shards)
	for i := range c.shards {
		capShare := per
		if int64(i) < rem {
			capShare++
		}
		c.shards[i] = &cacheShard[V]{
			capacity: capShare,
			order:    list.New(),
			items:    make(map[string]*list.Element),
			pins:     make(map[string]int),
		}
	}
	return c
}

// shard maps a key to its shard by FNV-1a hash.
func (c *Sharded[V]) shard(key string) *cacheShard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// NumShards returns the shard count.
func (c *Sharded[V]) NumShards() int { return len(c.shards) }

// Capacity returns the total byte capacity across shards.
func (c *Sharded[V]) Capacity() int64 {
	var total int64
	for _, s := range c.shards {
		total += s.capacity
	}
	return total
}

// Lookup returns key's value, marking it most recently used, and counts
// the probe as a hit or a miss.
func (c *Sharded[V]) Lookup(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.touch(key)
	if ok {
		s.st.Hits++
	} else {
		s.st.Misses++
	}
	return v, ok
}

// Peek is Lookup without touching the hit and miss counters.
func (c *Sharded[V]) Peek(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touch(key)
}

// touch returns key's value and moves it to the front. Caller holds s.mu.
func (s *cacheShard[V]) touch(key string) (v V, ok bool) {
	el, ok := s.items[key]
	if !ok {
		return v, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// Admit caches v under key, replacing any previous value, and reports
// whether it was stored; see Sharded for the refusal and eviction rules.
func (c *Sharded[V]) Admit(key string, v V) bool {
	size := c.size(v)
	s := c.shard(key)
	s.mu.Lock()
	stored, dropped := s.admit(key, v, size)
	s.mu.Unlock()
	if c.onDrop != nil {
		for _, e := range dropped {
			c.onDrop(e.key, e.val)
		}
	}
	return stored
}

// admit implements Admit under s.mu, returning the entries it dropped.
func (s *cacheShard[V]) admit(key string, v V, size int64) (stored bool, dropped []*cacheEntry[V]) {
	el, resident := s.items[key]
	if s.capacity >= 0 && size > s.capacity && s.pins[key] == 0 {
		s.st.Bypassed++
		if resident {
			dropped = append(dropped, s.drop(el))
		}
		return false, dropped
	}
	if resident {
		ent := el.Value.(*cacheEntry[V])
		s.used += size - ent.size
		ent.val, ent.size = v, size
		s.order.MoveToFront(el)
	} else {
		el = s.order.PushFront(&cacheEntry[V]{key: key, val: v, size: size})
		s.items[key] = el
		s.used += size
	}
	for victim := s.order.Back(); s.capacity >= 0 && s.used > s.capacity && victim != nil; {
		prev := victim.Prev()
		if victim != el && s.pins[victim.Value.(*cacheEntry[V]).key] == 0 {
			s.st.Evictions++
			dropped = append(dropped, s.drop(victim))
		}
		victim = prev
	}
	return true, dropped
}

// drop unlinks el and returns its entry. Caller holds s.mu.
func (s *cacheShard[V]) drop(el *list.Element) *cacheEntry[V] {
	ent := el.Value.(*cacheEntry[V])
	s.order.Remove(el)
	delete(s.items, ent.key)
	s.used -= ent.size
	return ent
}

// Remove drops key if it is resident. It counts no eviction and calls no
// drop hook: the caller chose to forget the key.
func (c *Sharded[V]) Remove(key string) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.drop(el)
	}
}

// Pin protects key from eviction and refusal until a matching Unpin;
// calls nest as a reference count. Pinning a key that is not resident is
// valid: the pin covers the entry once it is admitted.
func (c *Sharded[V]) Pin(key string) {
	s := c.shard(key)
	s.mu.Lock()
	s.pins[key]++
	s.mu.Unlock()
}

// Unpin drops one pin reference of key.
func (c *Sharded[V]) Unpin(key string) {
	s := c.shard(key)
	s.mu.Lock()
	if n := s.pins[key]; n > 1 {
		s.pins[key] = n - 1
	} else {
		delete(s.pins, key)
	}
	s.mu.Unlock()
}

// GetOrFill returns key's value, counting the lookup. On a miss it runs
// fill once across all concurrent callers of the key, admits the result,
// and shares it with every caller that joined (Flight.GetCoalesced). hit
// reports a resident value; coalesced reports that another caller's fill
// served this one.
func (c *Sharded[V]) GetOrFill(ctx context.Context, key string, fill func() (V, error)) (v V, hit, coalesced bool, err error) {
	if v, ok := c.Lookup(key); ok {
		return v, true, false, nil
	}
	v, coalesced, err = c.flight.GetCoalesced(ctx, key,
		func() (V, bool) { return c.Peek(key) },
		func() (V, error) {
			v, err := fill()
			if err == nil {
				c.Admit(key, v)
			}
			return v, err
		})
	if coalesced {
		s := c.shard(key)
		s.mu.Lock()
		s.st.Coalesced++
		s.mu.Unlock()
	}
	return v, false, coalesced, err
}

// Claim takes fill leadership of key without blocking: ok is false when
// key is resident or already being filled. On success the caller must call
// finish exactly once, which wakes every caller waiting in GetOrFill.
// Batch prefetches claim many keys at once this way and deliver each as
// its bytes arrive.
func (c *Sharded[V]) Claim(key string) (finish func(V, error), ok bool) {
	if _, resident := c.Peek(key); resident {
		return nil, false
	}
	return c.flight.Lead(key)
}

// Stats reports the cache's counters and resident population: the total
// across shards and the per-shard breakdown, indexed by shard number.
func (c *Sharded[V]) Stats() (total ShardStats, shards []ShardStats) {
	shards = make([]ShardStats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		st := s.st
		st.UsedBytes, st.Entries, st.Pinned = s.used, len(s.items), len(s.pins)
		s.mu.Unlock()
		shards[i] = st
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Coalesced += st.Coalesced
		total.Evictions += st.Evictions
		total.Bypassed += st.Bypassed
		total.UsedBytes += st.UsedBytes
		total.Entries += st.Entries
		total.Pinned += st.Pinned
	}
	return total, shards
}

// ShardStats reports one cache shard's counters.
type ShardStats struct {
	// Hits and Misses count lookups resolved from / past this shard.
	Hits, Misses int64
	// Coalesced counts fills that another caller's in-flight fill served.
	Coalesced int64
	// Evictions counts entries dropped to stay under the shard's budget.
	Evictions int64
	// Bypassed counts admits refused because the entry was larger than the
	// shard's budget.
	Bypassed int64
	// UsedBytes is the shard's resident payload size.
	UsedBytes int64
	// Entries is the number of cached objects in the shard.
	Entries int
	// Pinned is the number of pinned keys, resident or not.
	Pinned int
}
