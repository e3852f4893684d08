package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// span is one call into a layer, recorded from outside the program.
type span struct {
	Name   string        `json:"name"`   // "<layer>.<call>", e.g. "core.at"
	ID     uint64        `json:"id"`     // unique within the run, never 0
	Parent uint64        `json:"parent"` // 0 is the run root
	Op     uint64        `json:"op"`     // shared by the spans of one batch, query, page, append or flush
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Failed bool          `json:"failed,omitempty"`
	// Bytes and Key describe origin writes, so metadata traffic can be
	// told apart from chunk uploads.
	Bytes int64  `json:"bytes,omitempty"`
	Key   string `json:"key,omitempty"`
}

func (s span) layer() string      { return s.Name[:strings.IndexByte(s.Name, '.')] }
func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer is valid and records
// nothing, so the untraced run goes through the same calls.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

type spanRef struct{ id, op uint64 }

// timed runs f as one call named name and returns its wall time. When
// tracing, f runs under a context carrying the new span, so calls it makes
// (down to the origin wrapper) become its children; newOp starts a new
// operation id instead of inheriting the caller's.
func (t *tracer) timed(ctx context.Context, name string, newOp bool, f func(context.Context) error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := f(ctx)
		return time.Since(start), err
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	s := span{Name: name, ID: t.ids.Add(1), Parent: parent.id, Op: parent.op}
	if newOp {
		s.Op = s.ID
	}
	s.Start = time.Since(t.epoch)
	err := f(context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, op: s.Op}))
	s.End = time.Since(t.epoch)
	s.Failed = err != nil
	t.add(s)
	return s.dur(), err
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// now is the tracer clock, for windows over recorded spans.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// within returns the spans that started in [from, to).
func (t *tracer) within(from, to time.Duration) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// writeTo writes every span as one JSON object per line.
func (t *tracer) writeTo(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by the union of its children's intervals. Children may
// overlap each other (concurrent uploads under one Flush) and may outlive
// the parent (background work); only the covered part of the parent's own
// interval is subtracted.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if curHi < 0 || lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		out[i] = s.dur() - covered
	}
	return out
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer            string
	calls, failed    int
	busy, self, wait time.Duration
}

// layerTable sums spans per layer. wait is time a layer's calls spent
// blocked on the layers below them (busy minus self); the storage row's
// wait is filled in by the caller from the simulated network's lane
// queueing, which no span can see.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for i, s := range spans {
		r := rows[s.layer()]
		if r == nil {
			r = &layerRow{layer: s.layer()}
			rows[s.layer()] = r
		}
		r.calls++
		if s.Failed {
			r.failed++
		}
		r.busy += s.dur()
		r.self += self[i]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.wait = r.busy - r.self
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].layer < out[b].layer })
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-12s %9s %11s %11s %11s %7s\n", "layer", "calls", "busy_s", "self_s", "wait_s", "failed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %9d %11.4f %11.4f %11.4f %7d\n", r.layer, r.calls, r.busy.Seconds(), r.self.Seconds(), r.wait.Seconds(), r.failed)
	}
}

// tracedOrigin records a storage span around every call into the provider
// below it. It sits just above the Counting layer, so it sees exactly the
// requests that reach the origin. Calls without a span in their context
// (background uploads and prefetch) parent to the run root.
//
// The program probes providers for optional interfaces (BatchProvider for
// coalesced ranged reads, Prefetcher, Unwrap for chain walks that find the
// Counting, Verify and Retry layers). A wrapper that hid one would silently
// switch the program onto another code path, so traceOrigin returns a type
// that implements exactly the optional interfaces of the provider it wraps.
type tracedOrigin struct {
	inner storage.Provider
	t     *tracer
}

func traceOrigin(inner storage.Provider, t *tracer) storage.Provider {
	base := &tracedOrigin{inner: inner, t: t}
	_, batch := inner.(storage.BatchProvider)
	_, prefetch := inner.(storage.Prefetcher)
	switch {
	case batch && prefetch:
		return tracedBatchPrefetch{base}
	case batch:
		return tracedBatch{base}
	case prefetch:
		return tracedPrefetch{base}
	}
	return base
}

type (
	tracedBatch         struct{ *tracedOrigin }
	tracedPrefetch      struct{ *tracedOrigin }
	tracedBatchPrefetch struct{ *tracedOrigin }
)

func (b tracedBatch) GetRanges(ctx context.Context, reqs []storage.RangeReq) ([][]byte, error) {
	return b.getRanges(ctx, reqs)
}

func (b tracedBatchPrefetch) GetRanges(ctx context.Context, reqs []storage.RangeReq) ([][]byte, error) {
	return b.getRanges(ctx, reqs)
}

func (p tracedPrefetch) Prefetch(ctx context.Context, keys []string, opts storage.PlanOptions) (int, error) {
	return p.prefetch(ctx, keys, opts)
}

func (p tracedPrefetch) PrefetchAsync(ctx context.Context, keys []string, opts storage.PlanOptions) int {
	return p.prefetchAsync(ctx, keys, opts)
}

func (p tracedBatchPrefetch) Prefetch(ctx context.Context, keys []string, opts storage.PlanOptions) (int, error) {
	return p.prefetch(ctx, keys, opts)
}

func (p tracedBatchPrefetch) PrefetchAsync(ctx context.Context, keys []string, opts storage.PlanOptions) int {
	return p.prefetchAsync(ctx, keys, opts)
}

func (o *tracedOrigin) Unwrap() storage.Provider { return o.inner }

func (o *tracedOrigin) getRanges(ctx context.Context, reqs []storage.RangeReq) (out [][]byte, err error) {
	o.t.timed(ctx, "storage.get_ranges", false, func(ctx context.Context) error {
		out, err = o.inner.(storage.BatchProvider).GetRanges(ctx, reqs)
		return err
	})
	return out, err
}

func (o *tracedOrigin) prefetch(ctx context.Context, keys []string, opts storage.PlanOptions) (n int, err error) {
	o.t.timed(ctx, "storage.prefetch", false, func(ctx context.Context) error {
		n, err = o.inner.(storage.Prefetcher).Prefetch(ctx, keys, opts)
		return err
	})
	return n, err
}

func (o *tracedOrigin) prefetchAsync(ctx context.Context, keys []string, opts storage.PlanOptions) (n int) {
	o.t.timed(ctx, "storage.prefetch_async", false, func(ctx context.Context) error {
		n = o.inner.(storage.Prefetcher).PrefetchAsync(ctx, keys, opts)
		return nil
	})
	return n
}

func (o *tracedOrigin) Get(ctx context.Context, key string) (data []byte, err error) {
	o.t.timed(ctx, "storage.get", false, func(ctx context.Context) error {
		data, err = o.inner.Get(ctx, key)
		return err
	})
	return data, err
}

func (o *tracedOrigin) GetRange(ctx context.Context, key string, offset, length int64) (data []byte, err error) {
	o.t.timed(ctx, "storage.get_range", false, func(ctx context.Context) error {
		data, err = o.inner.GetRange(ctx, key, offset, length)
		return err
	})
	return data, err
}

// Put records its span by hand to attach the key and payload size.
func (o *tracedOrigin) Put(ctx context.Context, key string, data []byte) error {
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	s := span{Name: "storage.put", ID: o.t.ids.Add(1), Parent: parent.id, Op: parent.op, Key: key, Bytes: int64(len(data))}
	s.Start = time.Since(o.t.epoch)
	err := o.inner.Put(ctx, key, data)
	s.End = time.Since(o.t.epoch)
	s.Failed = err != nil
	o.t.add(s)
	return err
}

func (o *tracedOrigin) Delete(ctx context.Context, key string) error {
	_, err := o.t.timed(ctx, "storage.delete", false, func(ctx context.Context) error {
		return o.inner.Delete(ctx, key)
	})
	return err
}

func (o *tracedOrigin) Exists(ctx context.Context, key string) (ok bool, err error) {
	o.t.timed(ctx, "storage.exists", false, func(ctx context.Context) error {
		ok, err = o.inner.Exists(ctx, key)
		return err
	})
	return ok, err
}

func (o *tracedOrigin) List(ctx context.Context, prefix string) (keys []string, err error) {
	o.t.timed(ctx, "storage.list", false, func(ctx context.Context) error {
		keys, err = o.inner.List(ctx, prefix)
		return err
	})
	return keys, err
}

func (o *tracedOrigin) Size(ctx context.Context, key string) (n int64, err error) {
	o.t.timed(ctx, "storage.size", false, func(ctx context.Context) error {
		n, err = o.inner.Size(ctx, key)
		return err
	})
	return n, err
}
