package dataloader

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// gatedOrigin is a batch-capable origin whose batched reads wait for the
// gate to open. Each batched request reports its keys on arrived before it
// waits, so a test can watch the fetch strips being planned while it holds
// them; arrived is buffered past any test's request count, so reporting
// never blocks a read.
type gatedOrigin struct {
	*storage.Memory
	arrived chan []string
	open    chan struct{}
	opened  sync.Once
}

func newGatedOrigin() *gatedOrigin {
	return &gatedOrigin{Memory: storage.NewMemory(), arrived: make(chan []string, 1024), open: make(chan struct{})}
}

func (g *gatedOrigin) GetRanges(ctx context.Context, reqs []storage.RangeReq) ([][]byte, error) {
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		keys[i] = r.Key
	}
	g.arrived <- keys
	select {
	case <-g.open:
	case <-ctx.Done():
		return make([][]byte, len(reqs)), ctx.Err()
	}
	return g.Memory.GetRanges(ctx, reqs)
}

func (g *gatedOrigin) release() { g.opened.Do(func() { close(g.open) }) }

// stripBounds seal a chunk every 8 rows of 256 bytes.
var stripBounds = chunk.Bounds{Min: 2048, Target: 2048, Max: 2048}

// stripDataset writes n rows of a 256-byte "x" straight to the gated origin
// (its batched reads are never used for writes) and reopens it through a
// counting, raw-tier LRU of the given capacity, so every read the loader
// makes goes through that tier. It returns the dataset, the counter below
// the tier and the stored bytes of x's chunks.
func stripDataset(t *testing.T, origin *gatedOrigin, n int, capacity int64) (*core.Dataset, *storage.Counting, int64) {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, origin, "strips")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: stripBounds})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		vals := make([]float64, 64)
		vals[0] = float64(i)
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{64}, vals)
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	keys, err := origin.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for _, k := range keys {
		if strings.Contains(k, "/x/chunks/") {
			size, err := origin.Size(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			stored += size
		}
	}
	counting := storage.NewCounting(origin)
	ds, err = core.Open(ctx, storage.NewLRU(counting, capacity))
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()
	return ds, counting, stored
}

// TestStripsDoubleBuffered: while the first fetch strip's batched request
// is held at the origin, the scheduler has already issued the second
// strip's plan — and nothing more, because it blocks on the first strip's
// opening chunk. Every chunk then crosses the wire exactly once.
func TestStripsDoubleBuffered(t *testing.T) {
	const rows, fetchBatch = 512, 4
	origin := newGatedOrigin()
	defer origin.release()
	ds, counting, _ := stripDataset(t, origin, rows, 1<<20)
	chunks := ds.Tensor("x").NumChunks()
	if chunks < 3*fetchBatch {
		t.Fatalf("dataset has %d chunks, want at least three strips", chunks)
	}

	l := ForDataset(ds, Options{BatchSize: 32, Workers: 2, Shuffle: true, Seed: 5, FetchBatch: fetchBatch})
	ch := l.Batches(context.Background())
	next := func(what string) []string {
		t.Helper()
		select {
		case keys := <-origin.arrived:
			return keys
		case <-time.After(10 * time.Second):
			t.Fatalf("%s was never issued while the first strip was held", what)
			return nil
		}
	}
	first, second := next("the first strip"), next("the second strip")
	if len(first) != fetchBatch || len(second) != fetchBatch {
		t.Fatalf("strips carry %d and %d chunks, want %d each", len(first), len(second), fetchBatch)
	}
	seen := map[string]bool{}
	for _, k := range append(first, second...) {
		if seen[k] {
			t.Fatalf("chunk %s planned in both strips", k)
		}
		seen[k] = true
	}
	if extra := len(origin.arrived); extra != 0 {
		t.Fatalf("%d requests beyond the two strips were issued while the first was held", extra)
	}

	origin.release()
	delivered := 0
	for b := range ch {
		delivered += len(b.Samples)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if delivered != rows {
		t.Fatalf("delivered %d/%d rows", delivered, rows)
	}
	// Workers that overtake the walk on this latency-free origin fetch a
	// chunk themselves, so the split between strips and single Gets can
	// vary; the total cannot.
	if st := counting.Snapshot(); st.BatchRanges+st.Gets != int64(chunks) {
		t.Fatalf("epoch fetched %d chunks in strips and %d one by one, want each of %d chunks once",
			st.BatchRanges, st.Gets, chunks)
	}
}

// TestStripsFitTheRawTier: with a raw tier smaller than two FetchBatch
// strips, the strips narrow so that two of them fit, and one epoch reads
// exactly the stored chunk bytes from the origin. FetchBatch-wide strips
// double-buffered into this tier evict their own undecoded chunks and read
// them twice.
func TestStripsFitTheRawTier(t *testing.T) {
	const rows, fetchBatch = 1024, 8
	origin := newGatedOrigin()
	origin.release()
	// A tier of 6.5 chunk targets: strips of three chunks, where two
	// FetchBatch strips would need sixteen.
	capacity := int64(stripBounds.Target) * 13 / 2
	ds, counting, stored := stripDataset(t, origin, rows, capacity)
	chunks := int64(ds.Tensor("x").NumChunks())
	if w := stripWidth(ds.Store(), ds.Tensor("x"), fetchBatch); w != 3 {
		t.Fatalf("strip width %d, want 3", w)
	}

	// The readahead window spans the epoch and the worker waits in its
	// first transform until the walk has decoded every chunk, so only the
	// walk and its strips read through the raw tier: on this latency-free
	// origin a worker could otherwise outrun the walk and fetch chunks
	// itself.
	walked := make(chan struct{})
	l := ForDataset(ds, Options{
		BatchSize: 32, Workers: 1, Shuffle: true, Seed: 9, FetchBatch: fetchBatch, Readahead: rows,
		Transform: func(s map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error) {
			<-walked
			return s, nil
		},
	})
	ch := l.Batches(context.Background())
	for deadline := time.Now().Add(10 * time.Second); l.CacheDecodes() < chunks; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(walked)
			t.Fatalf("the readahead walk decoded %d of %d chunks", l.CacheDecodes(), chunks)
		}
	}
	close(walked)
	delivered := 0
	for b := range ch {
		delivered += len(b.Samples)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if delivered != rows {
		t.Fatalf("delivered %d/%d rows", delivered, rows)
	}
	if st := counting.Snapshot(); st.BytesRead != stored {
		t.Fatalf("epoch read %d origin bytes (%d chunks in strips, %d one by one) for %d stored bytes in %d chunks",
			st.BytesRead, st.BatchRanges, st.Gets, stored, chunks)
	}
}
