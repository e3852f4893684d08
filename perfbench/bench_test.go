package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/storage"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.5, 50, true},
		{0.9, 90, true},  // exactly 10 samples (91..100) beyond
		{0.95, 0, false}, // only 5 beyond
		{0.99, 0, false},
	} {
		got, err := percentile(xs, c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v, ok=%v", c.q*100, got, err, c.want, c.ok)
		}
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples has only 9 beyond it and must fail")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must fail")
	}
	for q, n := range map[float64]int{0.5: 20, 0.9: 100, 0.95: 200, 0.99: 1000} {
		if got := minSamples(q); got != n {
			t.Errorf("minSamples(%g) = %d, want %d", q, got, n)
		}
		if _, err := percentile(make([]float64, n), q); err != nil {
			t.Errorf("p%g of minSamples = %d samples: %v", q*100, n, err)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "core.flush", ID: 1, Start: ms(0), End: ms(100)},
		// Two concurrent uploads overlapping each other: union 10..50.
		{Name: "storage.put", ID: 2, Parent: 1, Start: ms(10), End: ms(40)},
		{Name: "storage.put", ID: 3, Parent: 1, Start: ms(20), End: ms(50)},
		// A child that outlives the parent counts only inside it: 90..100.
		{Name: "storage.put", ID: 4, Parent: 1, Start: ms(90), End: ms(130)},
		// A grandchild is its parent's child, not the root's.
		{Name: "storage.get", ID: 5, Parent: 2, Start: ms(15), End: ms(25)},
		// A span with no children keeps all of its time.
		{Name: "core.at", ID: 6, Start: ms(200), End: ms(210)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(50), ms(20), ms(30), ms(40), ms(10), ms(10)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	rows := layerTable(spans)
	if len(rows) != 2 || rows[0].layer != "core" || rows[1].layer != "storage" {
		t.Fatalf("layers = %+v", rows)
	}
	if rows[0].calls != 2 || rows[0].busy != ms(110) || rows[0].self != ms(60) || rows[0].wait != ms(50) {
		t.Errorf("core row = %+v", rows[0])
	}
}

func TestTracerParentsAndOps(t *testing.T) {
	tr := newTracer()
	ctx := context.Background()
	tr.timed(ctx, "client.page", true, func(ctx context.Context) error {
		tr.timed(ctx, "core.at", false, func(context.Context) error { return nil })
		_, err := tr.timed(ctx, "core.at", false, func(context.Context) error { return errors.New("boom") })
		return err
	})
	spans := tr.within(0, tr.now()+1)
	if len(spans) != 3 {
		t.Fatalf("%d spans", len(spans))
	}
	root := spans[2]
	if root.Name != "client.page" || root.Parent != 0 || root.Op != root.ID || !root.Failed {
		t.Errorf("root = %+v", root)
	}
	for _, s := range spans[:2] {
		if s.Parent != root.ID || s.Op != root.ID {
			t.Errorf("child %+v not under root %d", s, root.ID)
		}
	}
	var nilTracer *tracer
	if _, err := nilTracer.timed(ctx, "core.at", true, func(context.Context) error { return nil }); err != nil {
		t.Error(err)
	}
}

// plainProvider hides every optional interface of the Memory it wraps.
type plainProvider struct{ storage.Provider }

// prefetchOnly implements Prefetcher but not BatchProvider.
type prefetchOnly struct{ plainProvider }

func (prefetchOnly) Prefetch(context.Context, []string, storage.PlanOptions) (int, error) {
	return 0, nil
}
func (prefetchOnly) PrefetchAsync(context.Context, []string, storage.PlanOptions) int { return 0 }

func TestTracedOriginForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	mem := storage.NewMemory()
	lru := storage.NewLRU(mem, 1<<20)
	for name, inner := range map[string]storage.Provider{
		"batch":          storage.NewCounting(storage.NewSim(mem, simnet.Local())),
		"batch+prefetch": lru,
		"prefetch":       prefetchOnly{plainProvider{mem}},
		"none":           plainProvider{mem},
	} {
		p := traceOrigin(inner, newTracer())
		_, innerBatch := inner.(storage.BatchProvider)
		_, innerPrefetch := inner.(storage.Prefetcher)
		_, batch := p.(storage.BatchProvider)
		_, prefetch := p.(storage.Prefetcher)
		if batch != innerBatch || prefetch != innerPrefetch {
			t.Errorf("%s: traced batch=%v prefetch=%v, inner batch=%v prefetch=%v", name, batch, prefetch, innerBatch, innerPrefetch)
		}
		u, ok := p.(interface{ Unwrap() storage.Provider })
		if !ok || u.Unwrap() != inner {
			t.Errorf("%s: Unwrap does not return the wrapped provider", name)
		}
	}
}

func TestTracedOriginKeepsChainWalksWorking(t *testing.T) {
	ctx := context.Background()
	counting := storage.NewCounting(storage.NewMemory())
	tr := newTracer()
	verify := storage.NewVerify(traceOrigin(counting, tr), storage.VerifyOptions{})
	lru := storage.NewLRU(verify, 1<<20)
	if err := lru.Put(ctx, "versions/v/tensors/x/chunks/1", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	lru.Evict("versions/v/tensors/x/chunks/1")
	// A cold prefetch reaches the origin as one batched ranged request.
	if n, err := lru.Prefetch(ctx, []string{"versions/v/tensors/x/chunks/1"}, storage.PlanOptions{}); err != nil || n != 1 {
		t.Fatalf("prefetch fetched %d: %v", n, err)
	}
	// The LRU finds the Counting layer below the traced wrapper.
	if st := lru.Stats(); st.Prefetched != 1 || st.Origin.BatchGets != 1 || st.Origin.Puts != 1 {
		t.Errorf("through the traced wrapper: prefetched %d, origin batch gets %d, puts %d; want 1 each", st.Prefetched, st.Origin.BatchGets, st.Origin.Puts)
	}
	if n := storage.SeedDigests(traceOrigin(verify, tr), map[string]uint32{"k": 1}); n != 1 {
		t.Errorf("SeedDigests through the traced wrapper seeded %d, want 1", n)
	}
	var puts, batches int
	for _, s := range tr.within(0, tr.now()+1) {
		if s.Name == "storage.put" && s.Bytes == 3 && s.Key == "versions/v/tensors/x/chunks/1" {
			puts++
		}
		if s.Name == "storage.get_ranges" {
			batches++
		}
	}
	if puts != 1 || batches != 1 {
		t.Errorf("recorded %d put spans with key and size and %d batched gets, want 1 each", puts, batches)
	}
}

func TestFailedFrac(t *testing.T) {
	var c opCount
	if c.failedFrac() != 0 {
		t.Error("no operations must read as 0 failed")
	}
	for i := 0; i < 8; i++ {
		c.note(nil)
	}
	if err := c.note(errors.New("x")); err == nil {
		t.Error("note must pass the error through")
	}
	c.note(context.Canceled)
	if c.attempted != 10 || c.failed != 2 || c.failedFrac() != 0.2 {
		t.Errorf("got %+v frac %v, want 10 attempted, 2 failed, 0.2", c, c.failedFrac())
	}
}

func TestSliceRateIgnoresAPartialSlice(t *testing.T) {
	s := newSliceRate(time.Now().Add(-2 * sliceLen))
	s.add(100) // closes one slice of about two slice lengths
	s.add(5)   // opens a partial slice that is never reported
	if len(s.rates) != 1 || s.rates[0] <= 0 || s.rates[0] > 100/sliceLen.Seconds() {
		t.Errorf("rates = %v", s.rates)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json and
// the metrics this command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, command %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
