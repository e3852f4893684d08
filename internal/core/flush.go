package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/storage"
)

// WriteOptions configures the dataset's parallel ingestion engine: sealed
// chunks leave the per-tensor builders through a background flush pipeline
// that uploads to the storage provider with bounded concurrency, so appends
// never stall on object-store Put latency.
//
// The zero value keeps the fully synchronous write path: every sealed chunk
// is uploaded inline before the append returns, exactly as the serial
// format reference behaves. Any FlushWorkers > 0 switches to pipelined
// uploads; Flush and Commit drain the pipeline before persisting metadata,
// so the stored objects (chunks, chunk sets, diffs, encoders, meta) are
// byte-identical to the serial path at every worker count — only the upload
// order differs.
type WriteOptions struct {
	// FlushWorkers is the number of concurrent chunk uploads. 0 keeps the
	// synchronous serial path; 1 pipelines uploads behind a single worker.
	FlushWorkers int
	// MaxPending bounds how many sealed chunks may sit in the pipeline
	// (queued or uploading) before appends block for backpressure. 0
	// defaults to 2*FlushWorkers. Note that chunks parked by a FAILED
	// upload (kept in memory, readable, retried by the next Flush) are
	// outside this bound: appends surface a DeferredFlushError while the
	// provider is failing, and callers that keep appending anyway
	// accumulate one parked blob per sealed chunk until a Flush redrives
	// them — stop ingesting when appends report flush failures.
	MaxPending int
	// UploadTimeout bounds each background Put. 0 means no deadline; set
	// it when the provider has no internal timeout, so a hung upload
	// fails (and parks its chunk for retry) instead of pinning a worker
	// lane and a pending slot forever.
	UploadTimeout time.Duration
	// FlushRetries enables automatic recovery: after a retryable upload
	// failure (storage.IsRetryable, or the pipeline's own UploadTimeout
	// firing) the pipeline redrives every parked blob by itself under
	// capped exponential backoff, up to FlushRetries redrive bursts per
	// failure streak, instead of waiting for the next manual Flush. A
	// successful full drain resets the streak. 0 keeps the manual-only
	// behavior.
	FlushRetries int
	// FlushBackoff shapes the automatic redrive schedule. The zero value
	// uses the storage.Backoff defaults (10ms base, 1s cap).
	FlushBackoff storage.Backoff
	// AutotuneChunkBytes enables ingest-time chunk-size autotuning with the
	// given target ceiling in bytes: each tensor's builder grows its
	// effective target from the configured Bounds.Target toward this cap
	// (doubling per sealed chunk, floored at the mean observed sample size
	// times a small factor), converging into the paper's 8–16MB band without
	// per-dataset tuning. The schedule depends only on each tensor's append
	// sequence — appends are serialized per tensor regardless of
	// FlushWorkers — so the stored chunks are byte-identical at any worker
	// count. 0 disables autotuning and keeps the static bounds (the default,
	// so existing golden layouts are unaffected).
	AutotuneChunkBytes int64
}

// DeferredFlushError wraps a storage error from the background flush
// pipeline: the sealed bytes it covers are parked in the pipeline's
// pending map — still readable, and retried by the next Flush — so the
// append that surfaced it HAS been recorded in the working state. Callers
// should treat it as "uploads are currently failing", not "this sample was
// rejected". Unwrap exposes the cause (e.g. context.Canceled).
type DeferredFlushError struct{ Cause error }

func (e *DeferredFlushError) Error() string {
	return "core: background chunk flush failing (data parked for retry): " + e.Cause.Error()
}

// Unwrap lets errors.Is/As see through to the cause.
func (e *DeferredFlushError) Unwrap() error { return e.Cause }

// isDeferredFlush reports whether err (anywhere in its chain) is a parked,
// redrivable flush failure rather than a structural append failure.
func isDeferredFlush(err error) bool {
	var dfe *DeferredFlushError
	return errors.As(err, &dfe)
}

// deferredCollector centralizes the write path's error policy: deferred
// flush failures are collected (the operation keeps going, state stays
// consistent) while structural errors abort. note returns the error only
// when it must abort; err surfaces the first deferred failure afterwards.
type deferredCollector struct{ first error }

func (c *deferredCollector) note(err error) error {
	if err == nil || isDeferredFlush(err) {
		if c.first == nil {
			c.first = err
		}
		return nil
	}
	return err
}

func (c *deferredCollector) err() error { return c.first }

func (o WriteOptions) withDefaults() WriteOptions {
	if o.FlushWorkers > 0 && o.MaxPending <= 0 {
		o.MaxPending = 2 * o.FlushWorkers
	}
	if o.MaxPending < o.FlushWorkers {
		o.MaxPending = o.FlushWorkers
	}
	return o
}

// flushPipeline is the background chunk uploader. Sealed blobs enter
// through enqueue (blocking once MaxPending uploads are in flight —
// backpressure on the appenders) and are uploaded by at most FlushWorkers
// concurrent Puts.
//
// The pending map is the source of truth for every blob that is not yet
// durable: readers consult it before the provider, so same-process reads
// never race an upload, and a blob is only removed once its Put succeeded.
// A failed or aborted upload parks the entry (uploader=false) instead of
// dropping it — the data stays readable, and the next flush attempt
// redrives parked entries, which makes transient upload errors recoverable
// by simply calling Flush again. With FlushRetries > 0 the pipeline also
// redrives parked entries by itself under capped exponential backoff after
// a retryable failure, so recovery does not wait for a manual Flush; the
// sticky error clears once every pending blob has drained, so a recovered
// dataset never reports a stale failure. Re-enqueueing a key still in
// flight (copy-on-write SetAt rewrites a chunk under its existing id) hands
// the newer bytes to the existing uploader via a generation counter instead
// of racing a second Put on the same object.
//
// Uploads run on the pipeline's own background context, not the enqueuing
// caller's: once an append has been acknowledged, cancelling that caller's
// context must not retroactively fail the upload. Cancellation is honored
// where the caller is actually waiting — the enqueue backpressure wait and
// the drain barrier both select on the caller's context.
type flushPipeline struct {
	store storage.Provider
	// putTimeout bounds each Put (0 = none); see WriteOptions.UploadTimeout.
	putTimeout time.Duration

	// slots bounds total in-flight uploads; workers bounds concurrent Puts.
	slots   chan struct{}
	workers chan struct{}

	// autoRetries/backoff configure automatic redrive of parked uploads
	// (WriteOptions.FlushRetries/FlushBackoff); 0 disables it.
	autoRetries int
	backoff     storage.Backoff

	mu       sync.Mutex
	firstErr error
	pending  map[string]*pendingChunk
	// retryAttempt counts automatic redrive bursts in the current failure
	// streak; retryStop is non-nil while a backoff timer is pending and is
	// closed by a manual redrive that takes over recovery.
	retryAttempt int
	retryStop    chan struct{}
	// active counts uploader goroutines; idle is closed when active drops
	// to zero (and replaced when it rises again), so drain can select on
	// quiescence against its caller's context without a dangling waiter —
	// an abandoned drain leaves nothing behind that a later begin() could
	// race (the sync.WaitGroup Add-during-Wait hazard).
	active int
	idle   chan struct{}
}

type pendingChunk struct {
	blob []byte
	gen  uint64
	// uploader marks an uploader goroutine responsible for this entry;
	// false means the entry is parked (failed or aborted) awaiting redrive.
	uploader bool
}

func newFlushPipeline(store storage.Provider, opts WriteOptions) *flushPipeline {
	opts = opts.withDefaults()
	idle := make(chan struct{})
	close(idle)
	return &flushPipeline{
		store:       store,
		putTimeout:  opts.UploadTimeout,
		autoRetries: opts.FlushRetries,
		backoff:     opts.FlushBackoff,
		slots:       make(chan struct{}, opts.MaxPending),
		workers:     make(chan struct{}, opts.FlushWorkers),
		pending:     map[string]*pendingChunk{},
		idle:        idle,
	}
}

// begin registers one uploader goroutine. Caller must hold p.mu NOT held.
func (p *flushPipeline) begin() {
	p.mu.Lock()
	if p.active == 0 {
		p.idle = make(chan struct{})
	}
	p.active++
	p.mu.Unlock()
}

// end retires one uploader goroutine, signaling quiescence at zero.
func (p *flushPipeline) end() {
	p.mu.Lock()
	p.active--
	if p.active == 0 {
		close(p.idle)
	}
	p.mu.Unlock()
}

// Err returns the sticky first upload error (cleared by redrive).
func (p *flushPipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr
}

// lookup returns the not-yet-durable blob stored under key, if any.
func (p *flushPipeline) lookup(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pc, ok := p.pending[key]; ok {
		return pc.blob, true
	}
	return nil, false
}

// enqueue hands one sealed blob to the pipeline. The blob is recorded in
// the pending map unconditionally — even when enqueue returns an error, the
// bytes stay readable and redrivable — so callers may treat the chunk as
// part of the dataset state regardless. An error reports that uploads are
// not currently progressing (sticky failure, or ctx cancelled during the
// backpressure wait).
func (p *flushPipeline) enqueue(ctx context.Context, key string, blob []byte) error {
	p.mu.Lock()
	pc, ok := p.pending[key]
	if ok {
		pc.blob = blob
		pc.gen++
	} else {
		pc = &pendingChunk{blob: blob, gen: 1}
		p.pending[key] = pc
	}
	if err := p.firstErr; err != nil {
		// Writes are failing; park the entry and fail fast.
		p.mu.Unlock()
		return err
	}
	if pc.uploader {
		// The existing uploader will observe the new generation.
		p.mu.Unlock()
		return nil
	}
	pc.uploader = true
	p.mu.Unlock()

	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.park(key)
		return ctx.Err()
	}
	p.begin()
	go p.upload(key)
	return nil
}

// park marks key's entry as having no uploader; redrive picks it up.
func (p *flushPipeline) park(key string) {
	p.mu.Lock()
	if pc, ok := p.pending[key]; ok {
		pc.uploader = false
	}
	p.mu.Unlock()
}

// upload runs in its own goroutine holding one slot: acquire a worker
// lane, Put the latest generation of the key, release. If a re-enqueue
// replaced the blob while the Put was on the wire, Put again until the
// written generation is the newest, so the store converges to the final
// bytes. A failed Put parks the entry and records the sticky error.
func (p *flushPipeline) upload(key string) {
	defer p.end()
	defer func() { <-p.slots }()
	p.workers <- struct{}{}
	defer func() { <-p.workers }()
	for {
		p.mu.Lock()
		pc := p.pending[key]
		if pc == nil || !pc.uploader {
			p.mu.Unlock()
			return
		}
		blob, gen := pc.blob, pc.gen
		p.mu.Unlock()
		// Pipeline-owned context: the enqueuing caller's cancellation must
		// not retroactively fail an acknowledged write. UploadTimeout (when
		// set) keeps a black-holed Put from pinning this lane forever.
		putCtx, cancel := p.attemptCtx(context.Background())
		err := p.store.Put(putCtx, key, blob)
		cancel()
		if err != nil {
			p.failAndPark(key, err)
			return
		}
		p.mu.Lock()
		if cur, ok := p.pending[key]; ok && cur == pc && cur.gen == gen {
			delete(p.pending, key)
			if len(p.pending) == 0 {
				// Every blob is durable. A sticky error left over from a
				// failure that has since been redriven successfully would
				// misreport this recovered dataset on the next
				// Flush/Commit, so clear it — and reset the automatic
				// redrive streak, since the pipeline is healthy again.
				p.firstErr = nil
				p.retryAttempt = 0
			}
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// attemptCtx bounds one store call by UploadTimeout, when set. A nil
// pipeline (the synchronous write path) sets no bound.
func (p *flushPipeline) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p != nil && p.putTimeout > 0 {
		return context.WithTimeout(ctx, p.putTimeout)
	}
	return ctx, func() {}
}

// putNow stores one object on the caller's context with the same attempt
// policy as background uploads: each attempt is bounded by UploadTimeout,
// and a retryable failure is re-attempted up to FlushRetries times under
// FlushBackoff. The caller's own cancellation is never retried. The root
// publish uses it for the objects it must write in order, which cannot go
// through the pipeline's unordered uploads.
func (p *flushPipeline) putNow(ctx context.Context, key string, blob []byte) error {
	for attempt := 1; ; attempt++ {
		putCtx, cancel := p.attemptCtx(ctx)
		err := p.store.Put(putCtx, key, blob)
		cancel()
		if err == nil || ctx.Err() != nil || attempt > p.autoRetries || !retryableUpload(err) {
			return err
		}
		t := time.NewTimer(p.backoff.Delay(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// retryableUpload classifies a background Put failure for automatic
// redrive: explicitly transient storage errors, plus the pipeline's own
// UploadTimeout firing (uploads run on a background context, so a deadline
// error here is never the appending caller giving up).
func retryableUpload(err error) bool {
	return storage.IsRetryable(err) || errors.Is(err, context.DeadlineExceeded)
}

// failAndPark atomically parks key's entry and records the sticky error —
// one critical section, so a concurrent redrive can never observe the park
// without the error (recover the blob, then be re-failed by a stale write).
// If automatic redrive is enabled and the failure is retryable, it also
// schedules a backoff-delayed redrive of everything parked.
func (p *flushPipeline) failAndPark(key string, err error) {
	p.mu.Lock()
	if pc, ok := p.pending[key]; ok {
		pc.uploader = false
	}
	if p.firstErr == nil {
		p.firstErr = err
	}
	schedule := p.autoRetries > 0 && p.retryStop == nil &&
		p.retryAttempt < p.autoRetries && retryableUpload(err)
	var (
		stop  chan struct{}
		delay time.Duration
	)
	if schedule {
		p.retryAttempt++
		delay = p.backoff.Delay(p.retryAttempt)
		stop = make(chan struct{})
		p.retryStop = stop
	}
	p.mu.Unlock()
	if schedule {
		// The redrive timer registers as an active uploader so drain (the
		// Flush/Commit barrier) waits for the recovery attempt instead of
		// reporting a failure that is about to be retried.
		p.begin()
		go p.autoRedrive(stop, delay)
	}
}

// autoRedrive waits out the backoff, then restarts an uploader for every
// parked entry — the automatic counterpart of a manual Flush's redrive. A
// manual redrive that arrives first closes stop and takes over; the timer
// then exits without touching anything.
func (p *flushPipeline) autoRedrive(stop chan struct{}, delay time.Duration) {
	defer p.end()
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
		return
	}
	p.mu.Lock()
	if p.retryStop == stop {
		p.retryStop = nil
	}
	var parked []string
	for key, pc := range p.pending {
		if !pc.uploader {
			pc.uploader = true
			parked = append(parked, key)
		}
	}
	p.mu.Unlock()
	for _, key := range parked {
		// Block for a slot unconditionally: slots are only held by upload
		// goroutines, which always release, so this cannot deadlock — and
		// bailing out here would strand entries marked uploader=true with
		// no uploader.
		p.slots <- struct{}{}
		p.begin()
		go p.upload(key)
	}
}

// redrive clears the sticky error and restarts an uploader for every
// parked entry, making a new flush attempt after a transient failure (or a
// cancelled ingest) retry everything that never landed. It also cancels any
// pending automatic redrive timer and resets the failure streak — the
// manual flush takes over recovery. Caller holds the dataset structure lock
// exclusively.
func (p *flushPipeline) redrive(ctx context.Context) error {
	p.mu.Lock()
	p.firstErr = nil
	p.retryAttempt = 0
	if p.retryStop != nil {
		close(p.retryStop)
		p.retryStop = nil
	}
	var parked []string
	for key, pc := range p.pending {
		if !pc.uploader {
			pc.uploader = true
			parked = append(parked, key)
		}
	}
	p.mu.Unlock()
	for i, key := range parked {
		select {
		case p.slots <- struct{}{}:
		case <-ctx.Done():
			for _, k := range parked[i:] {
				p.park(k)
			}
			return ctx.Err()
		}
		p.begin()
		go p.upload(key)
	}
	return nil
}

// drain is the flush/commit barrier: it waits until every active uploader
// finished (honoring ctx — uploads keep running in the background if the
// caller gives up, and an abandoned drain leaves no dangling waiter) and
// returns the sticky error, if any. Caller holds the dataset structure
// lock exclusively, which guarantees no concurrent enqueue races the wait.
func (p *flushPipeline) drain(ctx context.Context) error {
	for {
		p.mu.Lock()
		idle := p.idle
		quiescent := p.active == 0
		p.mu.Unlock()
		if quiescent {
			return p.Err()
		}
		select {
		case <-idle:
			// Loop: the caller holds the structure lock exclusively so no
			// new enqueue can start uploads, but re-check rather than
			// assume.
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// SetWriteOptions reconfigures the dataset's write path. FlushWorkers > 0
// installs the background flush pipeline; the zero value restores the
// synchronous serial path. Reconfiguring first redrives and drains any
// previous pipeline so no queued upload outlives its configuration; on
// error the previous configuration stays in place (with its pending data
// intact) and the call can be retried. The drain waits without a deadline
// — if the provider can hang, set WriteOptions.UploadTimeout when first
// configuring the pipeline so a black-holed Put fails instead of blocking
// this call.
func (ds *Dataset) SetWriteOptions(opts WriteOptions) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.flusher != nil {
		ctx := context.Background()
		if err := ds.flusher.redrive(ctx); err != nil {
			return err
		}
		if err := ds.flusher.drain(ctx); err != nil {
			return err
		}
	}
	ds.writeOpts = opts
	ds.writeOptsSet = true
	if opts.FlushWorkers > 0 {
		ds.flusher = newFlushPipeline(ds.store, opts)
	} else {
		ds.flusher = nil
	}
	// Propagate the autotune cap to every existing builder; tensors created
	// later pick it up from ds.writeOpts in newTensor/loadTensor.
	for _, name := range ds.order {
		t := ds.tensors[name]
		t.mu.Lock()
		t.builder.SetAutotune(int(opts.AutotuneChunkBytes))
		t.mu.Unlock()
	}
	return nil
}

// WriteOptions returns the currently configured write options.
func (ds *Dataset) WriteOptions() WriteOptions {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.writeOpts
}

// WriteOptionsConfigured reports whether SetWriteOptions has been called on
// this handle — it distinguishes an explicitly-serial dataset (zero options
// set on purpose) from one that was never configured, so layers that
// install a default pipeline (transform.Pipeline.Eval) don't override a
// deliberate choice.
func (ds *Dataset) WriteOptionsConfigured() bool {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.writeOptsSet
}
