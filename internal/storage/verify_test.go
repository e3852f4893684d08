package storage

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

func putObj(t *testing.T, p Provider, key string, data []byte) {
	t.Helper()
	if err := p.Put(context.Background(), key, data); err != nil {
		t.Fatal(err)
	}
}

// corruptInPlace flips one byte of the stored object behind every wrapper's
// back, simulating at-rest corruption.
func corruptInPlace(t *testing.T, mem *Memory, key string) {
	t.Helper()
	ctx := context.Background()
	raw, err := mem.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := mem.Put(ctx, key, raw); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyPassThroughAndDigestRecording(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	v := NewVerify(mem, VerifyOptions{})

	want := []byte("hello integrity")
	putObj(t, v, "k", want)

	got, err := v.Get(ctx, "k")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if crc, ok := v.Digest("k"); !ok || crc != Checksum(want) {
		t.Fatalf("digest not recorded on Put: %08x, %v", crc, ok)
	}
	s := v.Stats()
	if s.Verified != 1 || s.Detected != 0 || s.Unverified != 0 {
		t.Fatalf("stats after clean read: %+v", s)
	}

	// A key with no digest passes through unverified.
	putObj(t, mem, "legacy", []byte("no digest"))
	if _, err := v.Get(ctx, "legacy"); err != nil {
		t.Fatal(err)
	}
	if s := v.Stats(); s.Unverified != 1 {
		t.Fatalf("unverified not counted: %+v", s)
	}
}

func TestVerifyHealsPersistentCorruptionFromOrigin(t *testing.T) {
	// At-rest corruption in a Memory store is permanent: every re-fetch
	// returns the same bad bytes, so the heal budget runs out and the error
	// must be transient + corrupted.
	ctx := context.Background()
	mem := NewMemory()
	counting := NewCounting(mem)
	v := NewVerify(counting, VerifyOptions{HealAttempts: 2, QuarantineAfter: 2})
	putObj(t, v, "k", []byte("payload"))
	corruptInPlace(t, mem, "k")

	_, err := v.Get(ctx, "k")
	if err == nil {
		t.Fatal("corrupted read should fail")
	}
	if !IsCorrupted(err) {
		t.Fatalf("error %v is not classified corrupted", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("mismatch error %v must be transient so upper retries can re-fetch", err)
	}
	s := v.Stats()
	if s.Detected != 3 { // first fetch + 2 heal attempts
		t.Fatalf("Detected = %d, want 3", s.Detected)
	}
	if s.Repaired != 0 {
		t.Fatalf("Repaired = %d, want 0", s.Repaired)
	}

	// Second failing operation crosses QuarantineAfter=2: key quarantined,
	// further reads fail fast with a permanent error.
	if _, err := v.Get(ctx, "k"); err == nil {
		t.Fatal("second corrupted read should fail")
	}
	if !v.Quarantined("k") {
		t.Fatal("key should be quarantined after 2 exhausted operations")
	}
	gets := counting.Snapshot().Gets
	_, err = v.Get(ctx, "k")
	if err == nil || !IsCorrupted(err) || IsRetryable(err) {
		t.Fatalf("quarantined read = %v; want fast permanent corrupted error", err)
	}
	if counting.Snapshot().Gets != gets {
		t.Fatal("quarantined read must not touch the origin")
	}
	if v.Stats().Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", v.Stats().Quarantined)
	}

	// A rewrite clears the quarantine.
	putObj(t, v, "k", []byte("fresh bytes"))
	if got, err := v.Get(ctx, "k"); err != nil || string(got) != "fresh bytes" {
		t.Fatalf("post-rewrite Get = %q, %v", got, err)
	}
}

func TestVerifyHealsTransientCorruption(t *testing.T) {
	// In-flight corruption (Faulty bit flips) is transient: the re-fetch
	// returns clean bytes and the read succeeds invisibly.
	ctx := context.Background()
	mem := NewMemory()
	payload := bytes.Repeat([]byte{7}, 4<<10)
	putObj(t, mem, "k", payload)

	faulty := NewFaulty(mem, FaultConfig{Seed: 11, CorruptRate: 1, MaxFaults: 1})
	counting := NewCounting(faulty)
	v := NewVerify(counting, VerifyOptions{})
	v.SeedDigest("k", Checksum(payload))

	got, err := v.Get(ctx, "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get through one bit flip = %d bytes, %v", len(got), err)
	}
	s := v.Stats()
	if s.Detected != 1 || s.Repaired != 1 || s.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1 detected, 1 repaired", s)
	}
	// Exactly one extra origin request: the heal re-fetch.
	if gets := counting.Snapshot().Gets; gets != 2 {
		t.Fatalf("origin Gets = %d, want 2 (fetch + heal)", gets)
	}
}

func TestVerifyGetRangesHealsVictimOnly(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	var reqs []RangeReq
	digests := map[string]uint32{}
	payloads := map[string][]byte{}
	for _, k := range []string{"a", "b", "c", "d"} {
		data := bytes.Repeat([]byte(k), 2<<10)
		putObj(t, mem, k, data)
		payloads[k] = data
		digests[k] = Checksum(data)
		reqs = append(reqs, RangeReq{Key: k, Offset: 0, Length: -1})
	}

	faulty := NewFaulty(mem, FaultConfig{Seed: 5, CorruptRate: 1, MaxFaults: 1})
	counting := NewCounting(faulty)
	v := NewVerify(counting, VerifyOptions{})
	if n := SeedDigests(v, digests); n != len(digests) {
		t.Fatalf("SeedDigests = %d, want %d", n, len(digests))
	}

	out, err := v.GetRanges(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if !bytes.Equal(out[i], payloads[r.Key]) {
			t.Fatalf("range %d (%s) not healed", i, r.Key)
		}
	}
	s := v.Stats()
	if s.Detected != 1 || s.Repaired != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// One batched call + one single-key heal Get, not a batch re-issue.
	snap := counting.Snapshot()
	if snap.Gets != 1 {
		t.Fatalf("heal Gets = %d, want exactly 1", snap.Gets)
	}
}

func TestVerifyUnderLRUCoalescesHeal(t *testing.T) {
	// The chain contract: Verify under the LRU singleflight means a
	// corruption on a hot object is healed once by the flight leader, and
	// only verified bytes are admitted to the cache.
	ctx := context.Background()
	mem := NewMemory()
	payload := bytes.Repeat([]byte{3}, 8<<10)
	putObj(t, mem, "hot", payload)

	faulty := NewFaulty(mem, FaultConfig{Seed: 2, CorruptRate: 1, MaxFaults: 1})
	counting := NewCounting(faulty)
	v := NewVerify(counting, VerifyOptions{})
	v.SeedDigest("hot", Checksum(payload))
	cache := newShardedLRU(v, 1<<20, 1)

	const readers = 16
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			data, err := cache.Get(ctx, "hot")
			if err == nil && !bytes.Equal(data, payload) {
				err = errors.New("reader got wrong bytes")
			}
			errs <- err
		}()
	}
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	stats := cache.Stats()
	if stats.CorruptionsDetected != 1 || stats.CorruptionsRepaired != 1 {
		t.Fatalf("cache stats: detected=%d repaired=%d, want 1/1",
			stats.CorruptionsDetected, stats.CorruptionsRepaired)
	}
	// 16 readers, 1 corruption: exactly 2 origin Gets (fetch + heal).
	if gets := counting.Snapshot().Gets; gets != 2 {
		t.Fatalf("origin Gets = %d, want 2", gets)
	}
	// The cached copy is the verified one.
	if data, err := cache.Get(ctx, "hot"); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("cached read = %d bytes, %v", len(data), err)
	}
}

func TestFaultyTruncateIsCaughtByVerify(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	payload := bytes.Repeat([]byte{9}, 4<<10)
	putObj(t, mem, "k", payload)

	faulty := NewFaulty(mem, FaultConfig{Seed: 3, TruncateRate: 1, MaxFaults: 1})
	v := NewVerify(faulty, VerifyOptions{})
	v.SeedDigest("k", Checksum(payload))

	got, err := v.Get(ctx, "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get through truncation = %d bytes, %v", len(got), err)
	}
	fs := faulty.Stats()
	if fs.Truncations != 1 {
		t.Fatalf("Truncations = %d, want 1", fs.Truncations)
	}
	if s := v.Stats(); s.Detected != 1 || s.Repaired != 1 {
		t.Fatalf("verify stats = %+v", s)
	}
}

func TestEvictWalksChain(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	putObj(t, mem, "k", []byte("v1"))
	cache := newShardedLRU(NewCounting(mem), 1<<20, 1)
	if _, err := cache.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	// Mutate behind the cache; cached copy is now stale/poisoned.
	putObj(t, mem, "k", []byte("v2"))
	if got, _ := cache.Get(ctx, "k"); string(got) != "v1" {
		t.Fatalf("expected stale cached read, got %q", got)
	}
	Evict(cache, "k")
	if got, _ := cache.Get(ctx, "k"); string(got) != "v2" {
		t.Fatalf("post-evict read = %q, want fresh bytes", got)
	}
}
