// Package dataloader implements the streaming dataloader of §4.6 as a
// chunk-aligned pipeline on the scan machinery: parallel chunk fetching,
// per-worker chunk-granular decode and user transforms, collation into
// batches, and bounded prefetching — delivering data fast enough that the
// (simulated) accelerator, not IO, is the bottleneck.
//
// The pipeline is:
//
//	epoch plans -> readahead scheduler ┐
//	epoch plans -> chunk jobs -> fetch+decode+transform workers -> reorder -> collate -> Batches()
//
// The sampler precomputes, per epoch, a chunk visit order (shuffled and
// sharded across Rank/WorldSize) and a delivery order (rows spilled through
// a bounded shuffle buffer). Workers own whole chunk jobs: each drains one
// chunk's rows through reused core.ScanReaders backed by a byte-budgeted
// chunk cache, so a chunk is fetched and decoded exactly once per epoch per
// rank no matter how many rows, columns or workers touch it — concurrent
// fetches of the same chunk coalesce through a singleflight layer — and a
// readahead scheduler walks the visit order a few chunks ahead of the
// workers, with double-buffered fetch strips in flight ahead of it, so
// fetch latency overlaps with decode. Media decoding runs inside
// the worker pool (the Go analogue of the paper's per-process C++ decode
// that avoids the Python GIL). Because the delivery order is fixed before
// any worker starts, the batch stream is byte-identical for a given seed at
// any worker count.
package dataloader

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/view"
)

// Transform mutates one sample row; it runs inside the worker pool and must
// be safe for concurrent use.
type Transform func(map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error)

// ErrWorkerDied marks an epoch aborted because a worker goroutine died
// mid-job without returning — user code in the worker (a Transform, a
// codec) called runtime.Goexit or panicked past the pipeline. The loader
// never truncates the stream silently: Err() carries this sentinel wrapped
// with the dying row's delivery position, and delivery stops strictly
// before that position, exactly like any other worker failure.
var ErrWorkerDied = errors.New("dataloader: worker died mid-epoch")

// Options configures a Loader.
type Options struct {
	// BatchSize is the number of samples per batch (default 1).
	BatchSize int
	// Fields restricts the loaded columns; nil loads every view column.
	// Loading fewer tensors streams fewer chunks (§3.1 partial access).
	Fields []string
	// Shuffle enables chunk-granular shuffled streaming (§3.5): the chunk
	// visit order is randomized, then rows spill through a bounded buffer.
	Shuffle bool
	// ShuffleBuffer is the shuffle buffer size in samples (default 2048).
	ShuffleBuffer int
	// Seed makes shuffling reproducible. Batches are byte-identical for a
	// fixed seed at any worker count.
	Seed int64
	// Workers sets the fetch/decode/transform worker count (default
	// GOMAXPROCS).
	Workers int
	// Prefetch is the number of batches buffered ahead of the consumer
	// (default 4).
	Prefetch int
	// Transform is applied per sample in the worker pool.
	Transform Transform
	// DropLast drops each epoch's trailing partial batch.
	DropLast bool
	// MemoryBudget caps the chunk buffer cache in bytes (default 256MB).
	// This is the loader's "efficient resource allocation" bound (§4.6).
	MemoryBudget int64
	// Readahead is how many chunks the prefetch scheduler decodes ahead
	// of the workers along the chunk visit order (default 4). Negative
	// disables readahead, and with it the fetch strips. Prefetches
	// coalesce with worker fetches through the chunk cache's singleflight
	// layer, so no chunk is read twice. The origin requests run further
	// ahead than this window: see FetchBatch.
	Readahead int
	// FetchBatch is the maximum width, in chunks, of a fetch strip: a run
	// of upcoming chunks the readahead scheduler hands to the storage
	// layer's fetch planner at once, so near-adjacent chunk objects
	// coalesce into single batched ranged origin requests (default 8).
	// Strips are double-buffered — the next strip is already in flight
	// while the workers drain the current one — so when the dataset's
	// store reports a byte capacity (storage.LRU does) a strip is narrowed
	// to half of it, divided by the tensor's chunk target, and two strips
	// always fit in the raw cache. Requires a prefetch-capable provider
	// chain (a storage.LRU over a BatchProvider); otherwise it is a no-op.
	// Negative disables batched prefetch, keeping the
	// one-request-per-chunk behavior.
	FetchBatch int
	// RawBytes controls media decoding of sample-compressed tensors.
	// When true, raw stored bytes are exposed as 1-d uint8 arrays
	// (useful for byte-throughput benchmarks). Default false (decode).
	RawBytes bool
	// Rank and WorldSize shard each epoch's chunk visit order disjointly
	// across simulated training nodes (§6.5): rank r of world w owns
	// chunks r, r+w, r+2w, ... of the (shuffled) order. Every rank must
	// use the same Seed; the rank shards are then disjoint and together
	// cover every row. When the dataset has fewer chunks than ranks, the
	// shards degrade to row striding so no node starves (coverage stays
	// disjoint and complete). WorldSize 0 or 1 means a single node.
	Rank      int
	WorldSize int
	// Epochs streams this many epochs through one Batches call (default
	// 1). Each epoch reshuffles the chunk visit order with a reseeded rng
	// (derived from Seed and the epoch number), and batches never straddle
	// an epoch boundary.
	Epochs int
	// Cache shares a node-level decoded-chunk cache between Loaders: hand
	// the same NodeCache to every Loader (every rank) colocated on one
	// node and each shared chunk is fetched+decoded once per node instead
	// of once per rank (§3.5 buffer promoted to node scope; ROADMAP item
	// 4). Keys carry dataset and commit identity, so Loaders over
	// different datasets or commits can share one cache safely. Nil keeps
	// a private per-Loader cache sized by MemoryBudget; when Cache is set
	// the shared cache's own budget governs and MemoryBudget is ignored.
	Cache *NodeCache
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Prefetch <= 0 {
		o.Prefetch = 4
	}
	if o.ShuffleBuffer <= 0 {
		o.ShuffleBuffer = 2048
	}
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = 256 << 20
	}
	if o.Readahead == 0 {
		o.Readahead = 4
	}
	if o.FetchBatch == 0 {
		o.FetchBatch = 8
	}
	if o.WorldSize <= 0 {
		o.WorldSize = 1
	}
	if o.Epochs <= 0 {
		o.Epochs = 1
	}
	return o
}

// Batch is one collated batch.
type Batch struct {
	// Index is the batch sequence number, starting at zero and running
	// across epochs.
	Index int
	// Epoch is the zero-based epoch this batch belongs to.
	Epoch int
	// Samples holds the per-sample column maps, in order.
	Samples []map[string]*tensor.NDArray
	// Stacked holds, per column, samples stacked along a new leading
	// axis — present only for columns whose samples share shape and
	// dtype (the deep-learning collation of §4.6).
	Stacked map[string]*tensor.NDArray
	// Unstacked names the columns (sorted) that could not be stacked —
	// mismatched shapes or dtypes across the batch's samples. Their values
	// are still delivered per-sample through Samples; they are listed here
	// so a consumer reading only Stacked sees the column was dropped from
	// collation rather than silently absent.
	Unstacked []string
}

// Loader streams batches from a view.
type Loader struct {
	v     *view.View
	opts  Options
	cache *NodeCache
	// scope is the owning dataset handle's identity, part of every cache
	// key so Loaders sharing a NodeCache across datasets never alias.
	scope uint64
	// led is this Loader's share of the (possibly shared) cache counters;
	// pins tracks the eviction pins its pipeline currently holds.
	led  cacheLedger
	pins pinLedger

	err  atomic.Value // error
	rows int64        // rows delivered (stats)
}

// New builds a loader over a view.
func New(v *view.View, opts Options) *Loader {
	opts = opts.withDefaults()
	cache := opts.Cache
	if cache == nil {
		cache = NewNodeCache(opts.MemoryBudget)
	}
	return &Loader{v: v, opts: opts, cache: cache, scope: v.Dataset().ScopeID()}
}

// Cache returns the node cache this Loader reads through — the shared one
// handed in via Options.Cache, or its private default.
func (l *Loader) Cache() *NodeCache { return l.cache }

// cacheGet reads one chunk's samples through the node cache, attributing
// ledger counters to this Loader.
func (l *Loader) cacheGet(ctx context.Context, t *core.Tensor, chunkID uint64) ([]chunk.Sample, error) {
	return l.cache.get(ctx, &l.led, l.scope, t, chunkID)
}

// ForDataset is a convenience wrapper over the identity view.
func ForDataset(ds *core.Dataset, opts Options) *Loader {
	return New(view.All(ds), opts)
}

// Err returns the first pipeline error once Batches' channel is closed. A
// worker failure always surfaces here (never silently truncates the
// stream), and when the pipeline fails on a sample it is the error of the
// earliest delivery position that aborted the epoch — not whatever
// cancellation fallout other workers produced while shutting down.
func (l *Loader) Err() error {
	if e, ok := l.err.Load().(error); ok {
		return e
	}
	return nil
}

// Rows reports how many samples have been delivered.
func (l *Loader) Rows() int64 { return atomic.LoadInt64(&l.rows) }

// CacheStats reports this Loader's chunk buffer cache hits and misses. On
// a shared NodeCache the figures are per-Loader shares; NodeCache.Stats
// has the node-level aggregate.
func (l *Loader) CacheStats() (hits, misses int64) {
	return l.led.hits.Load(), l.led.misses.Load()
}

// CacheCoalesced reports how many of this Loader's chunk fetches were
// absorbed into another in-flight fetch of the same chunk (workers, the
// readahead scheduler, or — on a shared cache — another Loader entirely).
func (l *Loader) CacheCoalesced() int64 { return l.led.coalesced.Load() }

// CacheDecodes reports how many chunk fetch+decodes this Loader actually
// ran (a decode joined by several Loaders is attributed to the one whose
// call ran it). The chunk-decode-once contract bounds the SUM across all
// Loaders sharing a NodeCache by the distinct (tensor, chunk) pairs
// visited per epoch — per node, not per rank.
func (l *Loader) CacheDecodes() int64 { return l.led.decodes.Load() }

// columns resolves the output column subset.
func (l *Loader) columns() ([]view.Column, error) {
	all := l.v.Columns()
	if l.opts.Fields == nil {
		return all, nil
	}
	var out []view.Column
	for _, f := range l.opts.Fields {
		found := false
		for _, c := range all {
			if c.Name == f {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("dataloader: unknown field %q", f)
		}
	}
	return out, nil
}

// primaryColumn picks the column whose chunk layout drives shuffling,
// sharding and readahead: the first stored identity column (typically the
// large media tensor).
func primaryColumn(cols []view.Column) string {
	for _, c := range cols {
		if c.Stored() {
			return c.Source
		}
	}
	return ""
}

type result struct {
	seq    int
	sample map[string]*tensor.NDArray
}

// errSink resolves which failure an epoch reports. Workers record errors
// with the delivery sequence of the failing row; the sink keeps the error
// of the earliest delivery position and never lets cancellation fallout
// (other workers aborting after the pipeline context is cancelled) displace
// a real failure — so Err() is deterministic for a deterministic fault.
type errSink struct {
	mu  sync.Mutex
	set bool
	seq int
	err error
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *errSink) record(seq int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.set:
		s.set, s.seq, s.err = true, seq, err
	case isCancel(err):
		// Shutdown fallout never displaces the recorded failure.
	case isCancel(s.err):
		s.seq, s.err = seq, err
	case seq < s.seq:
		s.seq, s.err = seq, err
	}
}

// barrier returns the delivery sequence of the recorded failure; rows at or
// past it are never delivered.
func (s *errSink) barrier() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.set
}

func (s *errSink) get() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Batches starts the pipeline and returns the batch channel. The channel
// closes when every requested epoch completes, the context is cancelled, or
// an error occurs (check Err afterwards). Batches may only be called once
// per Loader.
func (l *Loader) Batches(ctx context.Context) <-chan Batch {
	out := make(chan Batch, l.opts.Prefetch)
	cols, err := l.columns()
	if err == nil && (l.opts.Rank < 0 || l.opts.Rank >= l.opts.WorldSize) {
		err = fmt.Errorf("dataloader: rank %d out of range for world size %d", l.opts.Rank, l.opts.WorldSize)
	}
	if err != nil {
		l.err.Store(err)
		close(out)
		return out
	}
	ctx, cancel := context.WithCancel(ctx)
	primary := primaryColumn(cols)

	// Group rows by primary chunk once (the partition never changes), then
	// walk every epoch's shuffled, sharded chunk visit order to fix the
	// epoch row counts and ordinal bases. Only these O(Epochs) integers
	// are retained: the skeletons themselves are deterministic to rebuild,
	// so the feeder and the readahead scheduler regenerate each epoch's
	// shard on demand and the O(rows) plans live one epoch at a time.
	groups := chunkGroups(l.v, primary)
	epochEnd := make([]int, l.opts.Epochs)
	ordBase := make([]int, l.opts.Epochs)
	totalRows, totalOrds := 0, 0
	for e := range epochEnd {
		shard := buildShard(groups, l.opts, e)
		ordBase[e] = totalOrds
		totalOrds += len(shard.groups)
		totalRows += shard.rows
		epochEnd[e] = totalRows
	}

	jobs := make(chan chunkJob, l.opts.Workers*2)
	results := make(chan result, l.opts.Workers*4)
	sink := &errSink{}

	// Readahead scheduler: prefetch upcoming chunks into the chunk cache,
	// staying at most Readahead distinct chunks ahead of the workers along
	// the chunk visit order.
	var prog *raProgress
	var raReady chan struct{}
	if l.opts.Readahead > 0 {
		if t := readaheadDriver(l.v, primary, groups); t != nil {
			// Secondary stored fields ride the same strip prefetch so their
			// chunks land in coalesced plans instead of worker round trips.
			var secondaries []*core.Tensor
			for _, c := range cols {
				if !c.Stored() || c.Source == primary {
					continue
				}
				if st := l.v.Dataset().Tensor(c.Source); st != nil {
					secondaries = append(secondaries, st)
				}
			}
			prog = newRAProgress()
			go func() {
				<-ctx.Done()
				prog.stop()
			}()
			raReady = make(chan struct{})
			go runReadahead(ctx, l, t, secondaries, groups, l.opts, prog, l.opts.Readahead, raReady)
		}
	}

	// Job feeder: chunk jobs in visit order, epochs back to back, with
	// sequences and chunk ordinals renumbered into the global stream. The
	// first job waits for the readahead scheduler's opening fetch strip, so
	// the workers' first misses coalesce onto the strip's batched origin
	// requests instead of racing them with one-chunk round trips.
	//
	// Each job's primary chunk is pinned in the node cache before the job
	// is enqueued and unpinned by the worker that finishes it, so a tight
	// MemoryBudget can never evict a decoded chunk that a
	// planned-but-unstarted job still needs (the silent re-decode that
	// would break the fetch+decode-once contract). The feeder joins the
	// worker WaitGroup so the pipeline's pin sweep (releaseAll below) runs
	// strictly after the last pin is taken.
	primaryTensor := l.v.Dataset().Tensor(primary)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		if raReady != nil {
			select {
			case <-raReady:
			case <-ctx.Done():
				return
			}
		}
		seqBase := 0
		for e := 0; e < l.opts.Epochs; e++ {
			p := buildPlan(l.v, buildShard(groups, l.opts, e), l.opts, e)
			for _, cj := range p.jobs {
				cj.ord += ordBase[e]
				for ri := range cj.rows {
					cj.rows[ri].seq += seqBase
				}
				if primaryTensor != nil && cj.chunkID != noChunk {
					cj.pin = cacheKey{scope: l.scope, obj: primaryTensor.ChunkIdentity(cj.chunkID)}
					cj.pinned = true
					l.pins.pin(l.cache, cj.pin)
				}
				select {
				case jobs <- cj:
				case <-ctx.Done():
					return
				}
			}
			seqBase += p.rows
		}
	}()

	// Workers: each owns whole chunk jobs and drains them through reused
	// per-tensor ScanReaders backed by the shared chunk cache, so one job
	// fetches and decodes its chunk exactly once.
	//
	// When the batched-prefetch path is active, the fetch planner — not the
	// worker count — overlaps origin latency: workers almost never block on
	// the wire, so goroutines beyond the CPU count only add scheduler churn.
	// Cap the spawned pool at a small multiple of GOMAXPROCS then; the
	// batch stream is delivery-sequence ordered, so the cap (like Workers
	// itself) never changes what is delivered. Without batched prefetch,
	// workers ARE the IO parallelism and the full count is spawned.
	spawn := l.opts.Workers
	if prog != nil && l.opts.FetchBatch > 0 {
		if c := 2 * runtime.GOMAXPROCS(0); c < spawn {
			spawn = c
		}
	}
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker-death watchdog: a goroutine that dies mid-job without
			// reaching a normal exit path (user code calling runtime.Goexit,
			// or a panic unwinding) would otherwise strand its undelivered
			// rows — the reorder stage would wait on sequence numbers that
			// never arrive and the stream would truncate silently with a nil
			// Err. Record the death at the dying row's delivery position
			// instead: the contract stays the worker-failure contract — an
			// in-order prefix strictly before the death position, then a
			// deterministic error.
			exited, deathSeq := false, 0
			defer func() {
				if exited {
					return
				}
				sink.record(deathSeq, fmt.Errorf("%w at delivery position %d", ErrWorkerDied, deathSeq))
				cancel()
			}()
			rl := newRowLoader(l, cols)
			for cj := range jobs {
				if prog != nil {
					prog.advance(cj.ord)
				}
				for _, rj := range cj.rows {
					deathSeq = rj.seq
					sample, err := rl.load(ctx, rj)
					if err != nil {
						sink.record(rj.seq, err)
						cancel()
						exited = true
						return
					}
					select {
					case results <- result{seq: rj.seq, sample: sample}:
					case <-ctx.Done():
						exited = true
						return
					}
				}
				// Job done: its chunk no longer needs eviction protection
				// from this job. Early-return paths above leave the pin to
				// the pipeline sweep below.
				if cj.pinned {
					l.pins.unpin(l.cache, cj.pin)
				}
			}
			exited = true
		}()
	}
	go func() {
		wg.Wait()
		// Pipeline over (feeder and workers both done): drop whatever pins
		// are still held — jobs stranded in the channel by a cancellation,
		// jobs a dying worker never finished — so an aborted epoch cannot
		// leak pinned entries into a shared, long-lived cache.
		l.pins.releaseAll(l.cache)
		close(results)
	}()

	// Reorder + collate + emit: rows leave in the precomputed delivery
	// order regardless of which worker decoded them, and never at or past
	// a recorded failure's position.
	go func() {
		defer cancel()
		defer close(out)
		// Finalize the epoch error before the channel closes (LIFO: this
		// runs first), whichever path unwound the stage: a recorded worker
		// failure always wins over cancellation fallout, so Err() is
		// deterministic once the consumer sees the close.
		defer func() {
			if err := sink.get(); err != nil {
				l.err.Store(err)
				return
			}
			if ctx.Err() != nil {
				l.err.Store(ctx.Err())
			}
		}()
		pending := map[int]map[string]*tensor.NDArray{}
		next := 0
		epoch := 0
		batchIdx := 0
		coll := newCollator()
		var cur []map[string]*tensor.NDArray
		flush := func(force bool) bool {
			if len(cur) == 0 {
				return true
			}
			if !force && len(cur) < l.opts.BatchSize {
				return true
			}
			if force && l.opts.DropLast && len(cur) < l.opts.BatchSize {
				cur = nil
				return true
			}
			stacked, unstacked := coll.collate(cur)
			b := Batch{Index: batchIdx, Epoch: epoch, Samples: cur, Stacked: stacked, Unstacked: unstacked}
			batchIdx++
			cur = nil
			select {
			case out <- b:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for r := range results {
			if bseq, bad := sink.barrier(); bad && r.seq >= bseq {
				continue
			}
			pending[r.seq] = r.sample
			for {
				if bseq, bad := sink.barrier(); bad && next >= bseq {
					break
				}
				s, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				// Skip past epochs the rank's shard left empty.
				for epoch+1 < len(epochEnd) && next >= epochEnd[epoch] {
					epoch++
				}
				next++
				cur = append(cur, s)
				atomic.AddInt64(&l.rows, 1)
				if next == epochEnd[epoch] {
					if !flush(true) {
						return
					}
				} else if len(cur) == l.opts.BatchSize {
					if !flush(false) {
						return
					}
				}
			}
		}
	}()
	return out
}

// rowLoader is one worker's read state: a ScanReader per stored column,
// backed by the shared chunk cache, so the rows of one chunk job decode
// their chunk once however many rows and columns it covers, and chunks
// shared between workers are still fetched once (singleflight).
type rowLoader struct {
	l       *Loader
	cols    []view.Column
	readers map[string]*core.ScanReader
	// arena serves the worker's sample decode copies from 256KB slabs.
	// The decoded arrays escape into user batches, so the arena is never
	// Reset — it amortizes allocation (few large slabs instead of one heap
	// allocation per sample), it does not recycle memory. It drops each
	// slab it fills, so a slab is freed with the last batch that uses it.
	arena *chunk.Arena
}

func newRowLoader(l *Loader, cols []view.Column) *rowLoader {
	return &rowLoader{l: l, cols: cols, readers: map[string]*core.ScanReader{}, arena: chunk.NewArena()}
}

func (w *rowLoader) reader(t *core.Tensor) *core.ScanReader {
	r, ok := w.readers[t.Name()]
	if !ok {
		r = t.NewScanReaderWith(func(ctx context.Context, chunkID uint64) ([]chunk.Sample, error) {
			return w.l.cacheGet(ctx, t, chunkID)
		})
		r.SetArena(w.arena)
		w.readers[t.Name()] = r
	}
	return r
}

// load materializes one row of the selected columns.
func (w *rowLoader) load(ctx context.Context, rj rowJob) (map[string]*tensor.NDArray, error) {
	sample := make(map[string]*tensor.NDArray, len(w.cols))
	for _, c := range w.cols {
		var arr *tensor.NDArray
		var err error
		switch {
		case c.Eval != nil:
			arr, err = c.Eval(ctx, rj.src)
		case c.Source != "":
			arr, err = w.loadStored(ctx, c.Source, rj.src)
		default:
			err = fmt.Errorf("dataloader: column %q has neither source nor eval", c.Name)
		}
		if err != nil {
			return nil, fmt.Errorf("dataloader: row %d column %q: %w", rj.row, c.Name, err)
		}
		sample[c.Name] = arr
	}
	if w.l.opts.Transform != nil {
		out, err := w.l.opts.Transform(sample)
		if err != nil {
			return nil, fmt.Errorf("dataloader: transform at row %d: %w", rj.row, err)
		}
		sample = out
	}
	return sample, nil
}

// loadStored reads one stored sample through the worker's ScanReader and
// decodes it in this worker.
func (w *rowLoader) loadStored(ctx context.Context, tensorName string, src uint64) (*tensor.NDArray, error) {
	t := w.l.v.Dataset().Tensor(tensorName)
	if t == nil {
		return nil, fmt.Errorf("dataloader: unknown tensor %q", tensorName)
	}
	r := w.reader(t)
	if !w.l.opts.RawBytes {
		return r.At(ctx, src)
	}
	s, err := r.StoredAt(ctx, src)
	if err != nil {
		return nil, err
	}
	return tensor.FromBytes(tensor.UInt8, []int{len(s.Data)}, w.arena.Copy(s.Data))
}

// collator assembles the Stacked side of batches for one pipeline. The
// stacked columns' backing bytes are drawn from a per-pipeline arena
// instead of a fresh heap array per column per batch: stacked arrays escape
// into user batches, so the arena is never Reset — like the rowLoader's
// decode arena it amortizes allocation into 256KB slabs rather than
// recycling memory, and a filled slab is freed with the batches that use
// it. One collator is owned by the single reorder/emit goroutine, so it
// needs no locking.
type collator struct {
	arena *chunk.Arena
	// arrs is the reused per-column gather scratch.
	arrs []*tensor.NDArray
}

func newCollator() *collator {
	return &collator{arena: chunk.NewArena()}
}

// collate stacks equal-shape columns along a new batch axis. Columns whose
// samples disagree on shape or dtype cannot be stacked; they are returned
// in unstacked (sorted) so the batch can surface them instead of silently
// dropping the column — their per-sample values remain in Batch.Samples.
func (c *collator) collate(samples []map[string]*tensor.NDArray) (out map[string]*tensor.NDArray, unstacked []string) {
	if len(samples) == 0 {
		return nil, nil
	}
	out = make(map[string]*tensor.NDArray, len(samples[0]))
	for name := range samples[0] {
		arrs := c.arrs[:0]
		complete := true
		for _, s := range samples {
			a, ok := s[name]
			if !ok {
				complete = false
				break
			}
			arrs = append(arrs, a)
		}
		c.arrs = arrs[:0]
		if !complete {
			// The column is not present in every sample (transforms may
			// emit ragged maps): nothing coherent to stack or report.
			continue
		}
		stacked, err := c.stack(arrs)
		if err != nil {
			unstacked = append(unstacked, name)
			continue
		}
		out[name] = stacked
	}
	sort.Strings(unstacked)
	return out, unstacked
}

// stack runs tensor.StackInto over an arena-backed buffer sized for the
// column. Shape/dtype validation happens in StackInto before the buffer is
// touched; on mismatch the reserved bytes are simply abandoned to the
// arena's current slab (bounded by error frequency, and mismatched columns
// are reported once per batch).
func (c *collator) stack(arrs []*tensor.NDArray) (*tensor.NDArray, error) {
	buf := c.arena.Alloc(arrs[0].NumBytes() * len(arrs))
	return tensor.StackInto(arrs, buf)
}
