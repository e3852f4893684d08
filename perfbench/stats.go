package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: with
// fewer, the "percentile" is really the maximum of a handful of values and
// moves with every run.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It fails
// unless at least minTail samples lie strictly beyond the returned rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, max(n-rank, 0), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// minSamples is the smallest sample count for which percentile(q) succeeds.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minTail {
			return n
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opCount tallies the workload's operations (batches, queries, pages,
// appends, flushes, commits) and how many of them failed.
type opCount struct{ attempted, failed int64 }

func (c *opCount) note(err error) error {
	c.attempted++
	if err != nil {
		c.failed++
	}
	return err
}

func (c opCount) failedFrac() float64 { return ratio(float64(c.failed), float64(c.attempted)) }

// runtimeSample reads the runtime/metrics the benchmark reports.
type runtimeSample struct {
	liveBytes, allocBytes, gcCycles uint64
}

var runtimeMetricNames = []string{"/gc/heap/live:bytes", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	get := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	return runtimeSample{liveBytes: get(0), allocBytes: get(1), gcCycles: get(2)}
}

// heapWatch samples the live heap every 5 ms through a timed phase. The
// peak it reports is the median over one-second slices of each slice's
// highest reading: the single highest reading depends on which of hundreds
// of GC cycles happened to land on a transient allocation, and moved by a
// fifth between identical runs.
type heapWatch struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peaks []float64 // per full slice, bytes
	last  uint64    // highest reading of the trailing partial slice
	start runtimeSample
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), start: readRuntime()}
	h.last = h.start.liveBytes
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		sliceStart := time.Now()
		for {
			select {
			case <-h.stop:
				return
			case now := <-t.C:
				h.last = max(h.last, readRuntime().liveBytes)
				if now.Sub(sliceStart) >= sliceLen {
					h.peaks = append(h.peaks, float64(h.last))
					h.last, sliceStart = 0, now
				}
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak live heap, as above, plus the
// allocation and GC-cycle deltas since watchHeap. A phase shorter than one
// slice reports its highest reading.
func (h *heapWatch) finish() (peak float64, allocBytes, gcCycles uint64) {
	close(h.stop)
	h.done.Wait()
	end := readRuntime()
	peak = median(h.peaks)
	if len(h.peaks) == 0 {
		peak = float64(max(h.last, end.liveBytes))
	}
	return peak, end.allocBytes - h.start.allocBytes, end.gcCycles - h.start.gcCycles
}

// sliceLen is the length of one throughput slice.
const sliceLen = time.Second

// sliceRate measures throughput as the median over consecutive slices of
// the timed phase: a burst of contention from outside the process (other
// tenants of a shared machine) slows the slices it overlaps, not the
// median. A trailing partial slice is dropped.
type sliceRate struct {
	start time.Time
	n     float64
	rates []float64
}

func newSliceRate(start time.Time) *sliceRate { return &sliceRate{start: start} }

// add counts n items completed now.
func (s *sliceRate) add(n float64) {
	s.n += n
	now := time.Now()
	if d := now.Sub(s.start); d >= sliceLen {
		s.rates = append(s.rates, s.n/d.Seconds())
		s.start, s.n = now, 0
	}
}

func (s *sliceRate) median() float64 { return median(s.rates) }
