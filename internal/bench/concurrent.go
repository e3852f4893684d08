package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ConcurrentReaders measures the sharded, read-coalescing storage cache in
// the many-reader regime the ROADMAP targets: first a hot-chunk microbench
// where 16 readers miss on the same object simultaneously (the origin must
// see exactly one Get — singleflight coalescing), then aggregate streaming
// throughput with 1, 4, and 16 concurrent readers sharing one cache over
// simnet-throttled S3. Aggregate throughput should grow with readers: the
// first reader pays the origin fetch for each chunk, the rest ride the cache
// and in-flight fetches.
func ConcurrentReaders(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(384)
	res := &Result{
		ID:     "readers",
		Title:  "concurrent readers over one sharded read-coalescing cache on S3",
		Better: "higher",
	}
	res.Notes = append(res.Notes,
		"provider chain = sharded LRU + singleflight -> simulated S3 (§3.6)",
		"hot-chunk-origin-gets counts origin fetches for 16 simultaneous misses on one object; 1 = fully coalesced")

	hotGets, coalesced, err := hotChunkCoalescing(ctx)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Row{
		Name: "hot-chunk-origin-gets", Value: float64(hotGets), Unit: "gets",
		Extra: fmt.Sprintf("16 concurrent misses, %d coalesced", coalesced),
	})

	samples, err := jpegSampleSet(cfg, workload.Small250())
	if err != nil {
		return nil, err
	}
	profile := simnet.S3SameRegion()
	origin := storage.NewSimObjectStore(profile)
	counting := storage.NewCounting(origin)
	if _, err := ingestDeepLake(ctx, counting, samples, chunk.DefaultBounds()); err != nil {
		return nil, err
	}

	for _, readers := range []int{1, 4, 16} {
		cached := storage.NewLRU(counting, 1<<30)
		counting.Reset()

		var (
			wg       sync.WaitGroup
			total    atomic.Int64
			mu       sync.Mutex
			firstErr error
		)
		start := time.Now()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, err := streamEpoch(ctx, cached, cfg)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				total.Add(int64(n))
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		elapsed := time.Since(start).Seconds()
		if got, want := total.Load(), int64(readers)*int64(cfg.N); got != want {
			return nil, fmt.Errorf("readers-%d delivered %d/%d samples", readers, got, want)
		}
		stats := cached.Stats()
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("readers-%d", readers),
			Value: float64(total.Load()) / elapsed, Unit: "smp/s",
			Extra: fmt.Sprintf("%d origin requests, %d cache hits, %d coalesced",
				counting.Requests(), stats.Hits, stats.Coalesced),
		})
	}
	return res, nil
}

// hotChunkCoalescing drops one 4MB object behind real-time S3 latency and
// fires 16 cold readers at it through a fresh sharded cache. It returns how
// many Gets reached the origin (1 when coalescing works) and how many
// readers were absorbed into the in-flight fetch.
func hotChunkCoalescing(ctx context.Context) (originGets, coalesced int64, err error) {
	profile := simnet.S3SameRegion()
	profile.TimeScale = 1 // real-time: a wide miss window, paid exactly once
	origin := storage.NewSimObjectStore(profile)
	counting := storage.NewCounting(origin)
	cache := storage.NewLRU(counting, 1<<30)

	if err := counting.Put(ctx, "hot/chunk", make([]byte, 4<<20)); err != nil {
		return 0, 0, err
	}
	counting.Reset()

	const readers = 16
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	startGate := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-startGate
			if _, err := cache.Get(ctx, "hot/chunk"); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	close(startGate)
	wg.Wait()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	return counting.Snapshot().Gets, cache.Stats().Coalesced, nil
}

// streamEpoch opens the dataset through the shared cache and streams one
// full epoch, returning the sample count.
func streamEpoch(ctx context.Context, store storage.Provider, cfg Config) (int, error) {
	ds, err := core.Open(ctx, store)
	if err != nil {
		return 0, err
	}
	l := dataloader.ForDataset(ds, dataloader.Options{
		BatchSize: 32, Workers: cfg.Workers, RawBytes: true,
	})
	n := 0
	for b := range l.Batches(ctx) {
		n += len(b.Samples)
	}
	if err := l.Err(); err != nil {
		return 0, err
	}
	return n, nil
}
