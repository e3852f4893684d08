package storage

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func lenOf(s string) int64 { return int64(len(s)) }

// TestShardedRules drives one single-shard cache through each rule shared by
// the three tiers; every step checks which keys are resident afterwards.
func TestShardedRules(t *testing.T) {
	type step struct {
		op       string // "admit", "get", "pin", "unpin"
		key, val string
		stored   bool // admit's expected result
	}
	cases := []struct {
		name      string
		capacity  int64
		steps     []step
		resident  []string
		gone      []string
		evictions int64
		bypassed  int64
		overrun   bool // UsedBytes may exceed capacity
	}{
		{
			name:     "least recently used is evicted first",
			capacity: 8,
			steps: []step{
				{op: "admit", key: "a", val: "1111", stored: true},
				{op: "admit", key: "b", val: "2222", stored: true},
				{op: "get", key: "a"},
				{op: "admit", key: "c", val: "3333", stored: true},
			},
			resident:  []string{"a", "c"},
			gone:      []string{"b"},
			evictions: 1,
		},
		{
			name:     "oversize entry bypasses and drops the stale copy",
			capacity: 8,
			steps: []step{
				{op: "admit", key: "a", val: "11", stored: true},
				{op: "admit", key: "b", val: "22", stored: true},
				{op: "admit", key: "a", val: "123456789", stored: false},
			},
			resident: []string{"b"},
			gone:     []string{"a"},
			bypassed: 1,
		},
		{
			name:     "pins block eviction",
			capacity: 8,
			steps: []step{
				{op: "pin", key: "a"},
				{op: "admit", key: "a", val: "1111", stored: true},
				{op: "admit", key: "b", val: "2222", stored: true},
				{op: "admit", key: "c", val: "3333", stored: true},
			},
			resident:  []string{"a", "c"},
			gone:      []string{"b"},
			evictions: 1,
		},
		{
			name:     "all pinned runs over budget and keeps the new entry",
			capacity: 8,
			steps: []step{
				{op: "pin", key: "a"},
				{op: "pin", key: "b"},
				{op: "admit", key: "a", val: "11111", stored: true},
				{op: "admit", key: "b", val: "22222", stored: true},
				{op: "admit", key: "c", val: "33333", stored: true},
			},
			resident: []string{"a", "b", "c"},
			overrun:  true,
		},
		{
			name:     "a pinned key is admitted even when oversize",
			capacity: 4,
			steps: []step{
				{op: "pin", key: "a"},
				{op: "admit", key: "a", val: "123456", stored: true},
			},
			resident: []string{"a"},
			overrun:  true,
		},
		{
			name:     "unpinning restores eviction",
			capacity: 8,
			steps: []step{
				{op: "pin", key: "a"},
				{op: "pin", key: "a"},
				{op: "admit", key: "a", val: "1111", stored: true},
				{op: "unpin", key: "a"},
				{op: "admit", key: "b", val: "2222", stored: true},
				{op: "admit", key: "c", val: "3333", stored: true},
				{op: "unpin", key: "a"},
				{op: "admit", key: "d", val: "4444", stored: true},
			},
			resident:  []string{"c", "d"},
			gone:      []string{"a", "b"},
			evictions: 2,
		},
		{
			name:     "negative capacity is unbounded",
			capacity: -1,
			steps: []step{
				{op: "admit", key: "a", val: "1111111111", stored: true},
				{op: "admit", key: "b", val: "2222222222", stored: true},
			},
			resident: []string{"a", "b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newSharded(tc.capacity, 1, lenOf)
			for i, st := range tc.steps {
				switch st.op {
				case "admit":
					if got := c.Admit(st.key, st.val); got != st.stored {
						t.Fatalf("step %d: Admit(%s) = %v, want %v", i, st.key, got, st.stored)
					}
				case "get":
					c.Lookup(st.key)
				case "pin":
					c.Pin(st.key)
				case "unpin":
					c.Unpin(st.key)
				}
			}
			for _, k := range tc.resident {
				if _, ok := c.Peek(k); !ok {
					t.Errorf("%s not resident", k)
				}
			}
			for _, k := range tc.gone {
				if _, ok := c.Peek(k); ok {
					t.Errorf("%s still resident", k)
				}
			}
			st, _ := c.Stats()
			if st.Evictions != tc.evictions || st.Bypassed != tc.bypassed {
				t.Errorf("evictions/bypassed = %d/%d, want %d/%d", st.Evictions, st.Bypassed, tc.evictions, tc.bypassed)
			}
			if tc.capacity >= 0 && !tc.overrun && st.UsedBytes > tc.capacity {
				t.Errorf("used %d exceeds capacity %d", st.UsedBytes, tc.capacity)
			}
		})
	}
}

// TestShardedSplitsCapacity: the capacity is split evenly, the division
// remainder going one byte at a time to the leading shards, and the shard
// count follows from capacity unless given.
func TestShardedSplitsCapacity(t *testing.T) {
	cases := []struct {
		capacity   int64
		shards     int // 0: derived from capacity
		wantShards int
		wantCaps   []int64
	}{
		{capacity: 4099, shards: 8, wantShards: 8, wantCaps: []int64{513, 513, 513, 512, 512, 512, 512, 512}},
		{capacity: 10, shards: 3, wantShards: 3, wantCaps: []int64{4, 3, 3}},
		{capacity: 64 << 20, wantShards: 4, wantCaps: []int64{16 << 20, 16 << 20, 16 << 20, 16 << 20}},
		{capacity: 1 << 30, wantShards: 16},
		{capacity: 1 << 20, wantShards: 1, wantCaps: []int64{1 << 20}},
		{capacity: -1, wantShards: 1, wantCaps: []int64{-1}},
	}
	for _, tc := range cases {
		c := NewSharded(tc.capacity, lenOf)
		if tc.shards > 0 {
			c = newSharded(tc.capacity, tc.shards, lenOf)
		}
		if c.NumShards() != tc.wantShards {
			t.Fatalf("capacity %d: %d shards, want %d", tc.capacity, c.NumShards(), tc.wantShards)
		}
		if c.Capacity() != tc.capacity {
			t.Fatalf("capacity %d: shards sum to %d", tc.capacity, c.Capacity())
		}
		for i, want := range tc.wantCaps {
			if got := c.shards[i].capacity; got != want {
				t.Fatalf("capacity %d: shard %d holds %d, want %d", tc.capacity, i, got, want)
			}
		}
	}
}

// TestNonAdmittingWriteDropsStaleEntry: a write the cache does not store
// (larger than the tier) must not leave the previous bytes cached under the
// key, on the RAM tier and on the disk tier alike.
func TestNonAdmittingWriteDropsStaleEntry(t *testing.T) {
	ctx := context.Background()
	tiers := []struct {
		name string
		open func(t *testing.T) Provider
	}{
		{"lru", func(t *testing.T) Provider { return newShardedLRU(NewMemory(), 64, 1) }},
		{"disk", func(t *testing.T) Provider {
			d, err := NewDisk(NewMemory(), t.TempDir(), DiskOptions{Capacity: 64})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			p := tier.open(t)
			small, big := bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 128)
			if err := p.Put(ctx, "k", small); err != nil {
				t.Fatal(err)
			}
			if err := p.Put(ctx, "k", big); err != nil {
				t.Fatal(err)
			}
			got, err := p.Get(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, big) {
				t.Fatalf("Get after oversize Put returned %d stale bytes, want the %d new ones", len(got), len(big))
			}
			if size, err := p.Size(ctx, "k"); err != nil || size != int64(len(big)) {
				t.Fatalf("Size after oversize Put = %d, %v; want %d", size, err, len(big))
			}
		})
	}
}

// TestShardedStress mixes get-or-fill, pins, removals and budget evictions
// from many goroutines over a small key space (run with -race): every fill
// must return the key's own value, pins must all be released, and the byte
// ledger must match the resident population.
func TestShardedStress(t *testing.T) {
	ctx := context.Background()
	c := newSharded(64, 4, lenOf)
	const goroutines, rounds, keys = 16, 500, 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("k%02d", rng.Intn(keys))
				want := "value-" + k
				switch rng.Intn(4) {
				case 0:
					c.Pin(k)
					if v, _, _, err := c.GetOrFill(ctx, k, func() (string, error) { return want, nil }); err != nil || v != want {
						t.Errorf("GetOrFill(%s) = %q, %v", k, v, err)
					}
					c.Unpin(k)
				case 1:
					c.Remove(k)
				default:
					if v, _, _, err := c.GetOrFill(ctx, k, func() (string, error) { return want, nil }); err != nil || v != want {
						t.Errorf("GetOrFill(%s) = %q, %v", k, v, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st, _ := c.Stats()
	if st.Pinned != 0 {
		t.Fatalf("%d pins left after every goroutine unpinned", st.Pinned)
	}
	// Every value is 9 bytes: the byte ledger must match the population.
	if st.UsedBytes != 9*int64(st.Entries) {
		t.Fatalf("used %d bytes for %d entries of 9 bytes", st.UsedBytes, st.Entries)
	}
}
