package storage

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestJitteredHerdOnHotPrefix is the ROADMAP "many processes, one hot
// prefix" stress test: a herd of goroutines hammers a handful of hot keys
// through the full resilient chain — LRU (singleflight) -> Verify -> Retry
// -> Faulty -> Memory — while the fault layer injects both transient errors
// and silent bit flips. It asserts the coalesced-miss invariant holds under
// faults with an exact request ledger: every attempt the origin sees is
// either a first fetch of a key, a Retry re-attempt, or a Verify heal.
func TestJitteredHerdOnHotPrefix(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	const hotKeys = 4
	payloads := make(map[string][]byte, hotKeys)
	for i := 0; i < hotKeys; i++ {
		key := fmt.Sprintf("hot/%04d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 64<<10)
		if err := mem.Put(ctx, key, data); err != nil {
			t.Fatal(err)
		}
		payloads[key] = data
	}

	faulty := NewFaulty(mem, FaultConfig{
		Seed:        9,
		GetErrRate:  0.25,
		CorruptRate: 0.25,
	})
	counting := NewCounting(faulty)
	retry := NewRetry(counting, RetryOptions{
		Attempts: 10,
		Backoff:  Backoff{Base: 200 * time.Microsecond, Max: time.Millisecond, Seed: 42},
	})
	verify := NewVerify(retry, VerifyOptions{HealAttempts: 8})
	for key, data := range payloads {
		verify.SeedDigest(key, Checksum(data))
	}
	cache := newShardedLRU(verify, 1<<20, 1)

	const herd = 64
	var wg sync.WaitGroup
	errs := make(chan error, herd*hotKeys)
	for g := 0; g < herd; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < hotKeys; i++ {
				// Spread goroutines over the prefix in different orders so
				// the herd genuinely collides on every key.
				key := fmt.Sprintf("hot/%04d", (g+i)%hotKeys)
				data, err := cache.Get(ctx, key)
				if err != nil {
					errs <- fmt.Errorf("reader %d key %s: %w", g, key, err)
					return
				}
				if !bytes.Equal(data, payloads[key]) {
					errs <- fmt.Errorf("reader %d key %s: wrong bytes", g, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := cache.Stats()
	rs := retry.Stats()
	vs := verify.Stats()
	fs := faulty.Stats()
	attempts := counting.Snapshot().Gets

	// Exact ledger: injected error faults never reach the origin, so every
	// Get the Counting layer records is a first fetch (hotKeys of them), a
	// Retry re-attempt, or a Verify heal re-fetch. The herd itself adds
	// nothing — that is the coalesced-miss invariant under faults.
	want := int64(hotKeys) + rs.Retries + vs.Detected
	if attempts != want {
		t.Fatalf("origin attempts = %d, want %d (%d keys + %d retries + %d heals); faults: %+v",
			attempts, want, hotKeys, rs.Retries, vs.Detected, fs)
	}
	// The schedule must actually have exercised both recovery paths, and
	// the herd must actually have coalesced.
	if fs.Errors == 0 || fs.Corruptions == 0 {
		t.Fatalf("fault schedule too quiet for a herd test: %+v", fs)
	}
	if vs.Repaired != vs.Detected {
		t.Fatalf("not every corruption healed: %+v", vs)
	}
	if stats.Coalesced == 0 {
		t.Fatalf("herd of %d readers never coalesced: %+v", herd, stats)
	}
	if stats.Quarantined != 0 {
		t.Fatalf("transient corruption must not quarantine: %+v", vs)
	}
}

// TestBackoffJitterDesynchronizesHerd asserts the property the herd relies
// on: distinct backoff seeds (one per process/worker) give retry delays that
// all stay inside the capped-exponential window [d/2, d) but do not agree
// with each other, so a herd that faults together does not retry together.
func TestBackoffJitterDesynchronizesHerd(t *testing.T) {
	const seeds = 16
	base, max := 10*time.Millisecond, 80*time.Millisecond
	for attempt := 1; attempt <= 4; attempt++ {
		// Full (un-jittered) capped exponential delay for this attempt.
		full := base << (attempt - 1)
		if full > max {
			full = max
		}
		distinct := make(map[time.Duration]bool, seeds)
		for seed := int64(1); seed <= seeds; seed++ {
			d := Backoff{Base: base, Max: max, Seed: seed}.Delay(attempt)
			if d < full/2 || d >= full {
				t.Fatalf("attempt %d seed %d: delay %v outside jitter window [%v, %v)",
					attempt, seed, d, full/2, full)
			}
			distinct[d] = true
		}
		// A herd of 16 workers sleeping after a shared fault must spread
		// out: nearly every seed gets its own delay.
		if len(distinct) < seeds/2 {
			t.Fatalf("attempt %d: only %d distinct delays across %d seeds — herd stays synchronized",
				attempt, len(distinct), seeds)
		}
	}
}
