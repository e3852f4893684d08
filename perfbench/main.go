// Command perfbench is the repository benchmark: three closed-loop
// workloads against the library's public API, each timed from outside the
// program, with correctness checks and an optional traced run that splits
// the time by layer. See README.md for the workloads, the metrics and how
// to read them.
//
//	bash perfbench/run.sh --workload train-s3 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: {correct, attempted,
// failed, metrics}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones. The command exits non-zero when a
// correctness check fails.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	deeplake "repro"
	"repro/internal/dataloader"
	"repro/internal/simnet"
	"repro/internal/storage"
)

// timeScale compresses the simulated origin's latencies: S3's 15ms read and
// 25ms write first byte become 3ms and 5ms of wall time, well above timer
// and scheduler jitter.
const timeScale = 5

var workloads = map[string]func(context.Context, *bench) error{
	"train-s3": runTrain,
	"explore":  runExplore,
	"ingest":   runIngest,
}

func main() {
	name := flag.String("workload", "", "workload to run: train-s3, explore or ingest")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload train-s3|explore|ingest [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err := run(context.Background(), b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if b.tr != nil {
		path := filepath.Join(buildDir(), fmt.Sprintf("perfbench-trace-%s-%d.jsonl", *name, *seed))
		if err := b.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s\n", path)
	}
	if !b.finish(os.Stdout) {
		os.Exit(1)
	}
}

// buildDir is where build outputs and span files go, inside the checkout.
func buildDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return dir
}

// bench is one invocation's shared state: the settings every workload uses
// and everything it measured.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil in the untraced run
	procs    int     // every concurrency setting equals this
	profile  simnet.Profile
	budget   storage.NodeBudget

	ops    opCount
	values map[string]float64
	named  []namedValue // the workload-level figures for the text report
	fails  []string
	notes  []string
}

type namedValue struct {
	name, unit string
	value      float64
}

func newBench(workload string, seed int64, seconds time.Duration, traced bool) *bench {
	procs := runtime.NumCPU()
	profile := simnet.S3SameRegion()
	profile.TimeScale = timeScale
	profile.Lanes = procs
	b := &bench{workload: workload, seed: seed, seconds: seconds, procs: procs, profile: profile, values: map[string]float64{}}
	if traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// show adds a figure to the text report under the name the workload
// description uses (for example query_ms.p50 for explore's queries).
func (b *bench) show(name, unit string, v float64) {
	b.named = append(b.named, namedValue{name, unit, v})
}

// check records a failed correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.fails = append(b.fails, fmt.Sprintf(format, args...))
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// pct sets a percentile metric, or records why it could not be measured:
// a failed check for end-to-end metrics, a note (and 0) for per-layer ones.
func (b *bench) pct(name string, xs []float64, q float64, required bool) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		if required {
			b.check(false, "%s: %v", name, err)
		} else if len(xs) > 0 {
			b.note("%s not reported: %v", name, err)
		}
		v = 0
	}
	b.set(name, v)
	return v
}

// origin is the simulated object store every workload reads and writes:
// storage.Memory behind the S3 same-region cost model, counted, and (in
// the traced run) wrapped by the origin span recorder.
type origin struct {
	sim      *storage.Sim
	counting *storage.Counting
	below    storage.Provider // what the node's retry layer calls
}

func (b *bench) newOrigin() *origin {
	sim := storage.NewSim(storage.NewMemory(), b.profile)
	c := storage.NewCounting(sim)
	o := &origin{sim: sim, counting: c, below: c}
	if b.tr != nil {
		o.below = traceOrigin(c, b.tr)
	}
	return o
}

// provision builds a fresh node over o: the §3.6 chain of RAM cache over
// verify over retry over the origin, plus the decoded-chunk NodeCache, all
// sized from b.budget.
func (b *bench) provision(below storage.Provider) (*storage.LRU, *dataloader.NodeCache, error) {
	chain := deeplake.WithVerify(deeplake.WithRetry(below, deeplake.RetryOptions{}), deeplake.VerifyOptions{})
	return deeplake.ProvisionNode(chain, "", b.budget)
}

// setUp runs build setupRepeats times, each on a fresh origin, reports the
// median wall time as setup_s, and returns the last origin. build sees
// only program calls: inputs are generated before setUp.
func (b *bench) setUp(build func(*origin) error) (*origin, error) {
	var o *origin
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		o = b.newOrigin()
		start := time.Now()
		if err := build(o); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.set("setup_s", median(times))
	return o, nil
}

// simulated is the origin's simulated network time so far, in wall time.
func (o *origin) simulated() time.Duration {
	_, _, _, d := o.sim.Network().Stats()
	return time.Duration(float64(d) / o.sim.Network().Profile().TimeScale)
}

// phase brackets a timed phase: wall time, the tracer window, origin
// counters and simulated time, and the Go heap.
type phase struct {
	o          *origin
	start      time.Time
	trFrom     time.Duration
	trTo       time.Duration
	count0     storage.CountingStats
	count      storage.CountingStats // delta over the phase, after end
	sim0       time.Duration
	sim        time.Duration // delta, after end
	heap       *heapWatch
	allocBytes uint64 // allocated during the phase, after end
}

func (b *bench) begin(o *origin) *phase {
	runtime.GC()
	return &phase{o: o, start: time.Now(), trFrom: b.tr.now(), count0: o.counting.Snapshot(), sim0: o.simulated(), heap: watchHeap()}
}

func (p *phase) end(b *bench) {
	p.trTo = b.tr.now()
	peak, alloc, gcCycles := p.heap.finish()
	p.allocBytes = alloc
	c := p.o.counting.Snapshot()
	p.count = storage.CountingStats{
		Gets: c.Gets - p.count0.Gets, RangeGets: c.RangeGets - p.count0.RangeGets,
		BatchGets: c.BatchGets - p.count0.BatchGets, BatchRanges: c.BatchRanges - p.count0.BatchRanges,
		Puts: c.Puts - p.count0.Puts, Deletes: c.Deletes - p.count0.Deletes, Lists: c.Lists - p.count0.Lists,
		BytesRead: c.BytesRead - p.count0.BytesRead, BytesWritten: c.BytesWritten - p.count0.BytesWritten,
	}
	p.sim = p.o.simulated() - p.sim0
	b.set("peak_live_heap_mb", peak/(1<<20))
	b.set("go.gc_cycles", float64(gcCycles))
}

func (p *phase) spans(b *bench) []span { return b.tr.within(p.trFrom, p.trTo) }

// finish prints the environment stamp, the text report and the result
// line, and reports whether every correctness check passed.
func (b *bench) finish(w *os.File) bool {
	out := bufio.NewWriter(w)
	defer out.Flush()
	env, _ := json.Marshal(b.env()) // numbers and strings only: cannot fail
	fmt.Fprintf(out, "env %s\n", env)
	fmt.Fprintf(out, "workload %s seed %d: %d operations, %d failed (failed_frac %.4f)\n",
		b.workload, b.seed, b.ops.attempted, b.ops.failed, b.ops.failedFrac())
	b.set("failed_frac", b.ops.failedFrac())
	for _, n := range b.named {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n.name, n.value, n.unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	for _, f := range b.fails {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
		for _, d := range endToEnd {
			b.values["traced."+d.name] = b.values[d.name]
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.name] = metric{b.values[d.name], d.unit}
	}
	correct := len(b.fails) == 0 && b.ops.failed == 0
	line, _ := json.Marshal(struct { // numbers and strings only: cannot fail
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(b.ops.attempted, 1), b.ops.failed, metrics})
	fmt.Fprintf(out, "%s\n", line)
	return correct
}

// env stamps a result with what it was measured on, so a number from
// another machine or setting is recognisable as such.
func (b *bench) env() map[string]any {
	p := b.profile
	return map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"traced":     b.tr != nil,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"simnet": map[string]any{
			"profile": p.Name, "read_latency_ms": ms(p.ReadLatency), "write_latency_ms": ms(p.WriteLatency),
			"read_bytes_per_s": p.ReadBytesPerSec, "write_bytes_per_s": p.WriteBytesPerSec,
			"lanes": p.Lanes, "time_scale": p.TimeScale,
		},
		"node_budget": map[string]any{
			"memory_bytes": b.budget.MemoryBytes, "lru_bytes": b.budget.LRUBytes(), "decoded_bytes": b.budget.DecodedBytes(),
		},
		"concurrency": map[string]any{
			"loader_workers": b.procs, "flush_workers": b.procs, "query_workers": b.procs, "origin_lanes": p.Lanes,
		},
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
