package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	deeplake "repro"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// explore is the cache-resident, CPU-bound opposite of train-s3: one client
// runs a TQL query, then shows a page of 32 random rows of its result, as a
// visualizer user does. The dataset fits the RAM cache with room to spare
// and is warmed before timing, so the origin and the dataloader stay idle.
const (
	exploreRows     = 4096
	exploreDim      = 64 // embedding width
	explorePage     = 32
	exploreVariants = 8 // seeded constant sets per template
	exploreMemory   = 64 << 20
)

var exploreSides = []int{12, 16, 24}

// template is one query shape of the mix; constants come from the seed.
type template struct {
	name string
	make func(r *rand.Rand) string
}

var templates = []template{
	{"filter_label", func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT * FROM explore WHERE labels == %d", r.Intn(numClasses))
	}},
	{"shape_pushdown", func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT * FROM explore WHERE SHAPE(images)[0] == %d AND labels < %d",
			exploreSides[r.Intn(len(exploreSides))], 2+r.Intn(numClasses-2))
	}},
	// An equality on the label makes every image_filter decode the same
	// share of images (one class); with "labels < k" its cost, and the
	// mix's tail, would move with the seeded k.
	{"image_filter", func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT * FROM explore WHERE labels == %d AND MEAN(images) > %.1f", r.Intn(numClasses), 80+r.Float64()*80)
	}},
	{"order", func(*rand.Rand) string { return "SELECT * FROM explore ORDER BY labels" }},
	{"group", func(*rand.Rand) string { return "SELECT * FROM explore GROUP BY labels" }},
	{"knn", func(r *rand.Rand) string {
		q := make([]string, exploreDim)
		for i := range q {
			q[i] = fmt.Sprintf("%.3f", r.NormFloat64())
		}
		return "SELECT * FROM explore ORDER BY COSINE_SIMILARITY(embeddings, [" + strings.Join(q, ", ") + "]) DESC LIMIT 32"
	}},
}

// exploreSet is the generated explore dataset.
type exploreSet struct {
	images     []*tensor.NDArray
	labels     []int
	sides      []int
	embeddings []*tensor.NDArray
	rawImages  float64
}

func genExplore(seed int64) *exploreSet {
	r := rand.New(rand.NewSource(seed))
	s := &exploreSet{}
	for i := 0; i < exploreRows; i++ {
		side := exploreSides[r.Intn(len(exploreSides))]
		img := workload.ImageSpec{Height: side, Width: side, Channels: 3, Seed: seed}.Image(i)
		l, _ := workload.Label(seed, i, numClasses).Item() // a scalar
		v := make([]float64, exploreDim)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		emb, err := tensor.FromFloat64s(tensor.Float32, []int{exploreDim}, v)
		if err != nil {
			panic(err) // the shape matches len(v)
		}
		s.images = append(s.images, img)
		s.labels = append(s.labels, int(l))
		s.sides = append(s.sides, side)
		s.embeddings = append(s.embeddings, emb)
		s.rawImages += float64(img.NumBytes())
	}
	return s
}

func (s *exploreSet) userBytes() map[string]float64 {
	return map[string]float64{"images": s.rawImages, "labels": 4 * exploreRows, "embeddings": 4 * exploreDim * exploreRows}
}

// expected computes a filter/sort template's result from the generator, or
// returns false for templates checked against a serial run instead.
func (s *exploreSet) expected(name, query string) ([]uint64, bool) {
	var rows []uint64
	keep := func(f func(i int) bool) {
		for i := 0; i < exploreRows; i++ {
			if f(i) {
				rows = append(rows, uint64(i))
			}
		}
	}
	switch name {
	case "filter_label":
		var k int
		fmt.Sscanf(query, "SELECT * FROM explore WHERE labels == %d", &k)
		keep(func(i int) bool { return s.labels[i] == k })
	case "shape_pushdown":
		var side, k int
		fmt.Sscanf(query, "SELECT * FROM explore WHERE SHAPE(images)[0] == %d AND labels < %d", &side, &k)
		keep(func(i int) bool { return s.sides[i] == side && s.labels[i] < k })
	case "order", "group":
		keep(func(int) bool { return true })
		sort.SliceStable(rows, func(a, b int) bool { return s.labels[rows[a]] < s.labels[rows[b]] })
	default:
		return nil, false
	}
	return rows, true
}

func indexHash(rows []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(buf[:], r)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func runExplore(ctx context.Context, b *bench) error {
	b.budget = storage.NodeBudget{MemoryBytes: exploreMemory}
	in := genExplore(b.seed)
	r := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	var queries [][]string // [template][variant]
	for _, t := range templates {
		vs := make([]string, exploreVariants)
		for v := range vs {
			vs[v] = t.make(r)
		}
		queries = append(queries, vs)
	}

	var (
		ds  *core.Dataset
		lru *storage.LRU
	)
	o, err := b.setUp(func(o *origin) (err error) {
		if lru, _, err = b.provision(o.below); err != nil {
			return err
		}
		if err := b.buildExplore(ctx, lru, in); err != nil {
			return fmt.Errorf("build: %w", err)
		}
		if lru, _, err = b.provision(o.below); err != nil {
			return err
		}
		if ds, err = b.open(ctx, lru); err != nil {
			return err
		}
		if err := b.warmExplore(ctx, ds, queries); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	user := in.userBytes()
	in.images, in.embeddings = nil, nil
	mem := o.sim.Inner().(*storage.Memory)
	b.set("stored_bytes_per_user_byte", ratio(float64(mem.TotalBytes()), sumValues(user)))

	images, labels := ds.Tensor("images"), ds.Tensor("labels")
	var (
		scan                   deeplake.ScanStats
		interactions, qms, pms []float64
		perTemplate            = map[string][]float64{}
		seen                   = map[string]uint64{} // query -> hash of its result rows
		shown, returned        int
	)
	lru0 := lru.Stats()
	p := b.begin(o)
	deadline := p.start.Add(b.seconds)
	rate := newSliceRate(p.start)
	// The phase runs past the deadline if needed until page_ms.p95 has its
	// 200 samples, so a slow machine reports a slow run, not a failed one.
	for i := 0; (time.Now().Before(deadline) || len(pms) < minSamples(0.95)) && b.ops.failed == 0; i++ {
		t := templates[i%len(templates)]
		q := queries[i%len(templates)][(i/len(templates))%exploreVariants]
		var (
			v      *deeplake.View
			qd, pd time.Duration
			n      int
		)
		d, err := b.tr.timed(ctx, "client.interaction", true, func(ctx context.Context) error {
			var err error
			qd, err = b.tr.timed(ctx, "tql."+t.name, false, func(ctx context.Context) error {
				v, err = deeplake.QueryWith(ctx, ds, q, deeplake.QueryOptions{Workers: b.procs, Stats: &scan})
				return err
			})
			if err != nil {
				return err
			}
			rows := pageRows(r, v.Indices())
			n = len(rows)
			pd, err = b.tr.timed(ctx, "client.page", false, func(ctx context.Context) error {
				return b.page(ctx, images, labels, rows, in.labels)
			})
			return err
		})
		if b.ops.note(err) != nil {
			b.note("%s: %v", t.name, err)
			continue
		}
		interactions = append(interactions, ms(d))
		shown += n
		rate.add(float64(n))
		qms = append(qms, ms(qd))
		pms = append(pms, ms(pd))
		perTemplate[t.name] = append(perTemplate[t.name], ms(qd))
		returned += v.Len()
		h := indexHash(v.Indices())
		if prev, ok := seen[q]; ok && prev != h {
			b.check(false, "explore: %s returned different rows on a repeat", t.name)
		}
		seen[q] = h
	}
	elapsed := time.Since(p.start)
	p.end(b)

	b.set("samples_per_s", rate.median())
	b.show("samples_per_s.whole_run", "samples/s", float64(shown)/elapsed.Seconds())
	b.pct("op_ms.p50", interactions, 0.5, true)
	b.pct("op_ms.p90", interactions, 0.9, true)
	b.show("interactions", "count", float64(len(interactions)))
	for _, m := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"query_ms.p50", qms, 0.5}, {"query_ms.p90", qms, 0.9}, {"page_ms.p50", pms, 0.5}, {"page_ms.p95", pms, 0.95}} {
		b.show(m.name, "ms", b.pct(m.name, m.xs, m.q, true))
	}

	if b.tr != nil {
		spans := p.spans(b)
		for _, t := range templates {
			b.pct("tql."+t.name+"_ms.p50", perTemplate[t.name], 0.5, false)
		}
		b.pct("core.at_ms.p50", spanMS(spans, "core.at"), 0.5, false)
		b.pct("core.at_ms.p99", spanMS(spans, "core.at"), 0.99, false)
		b.pct("core.at.self_ms.p50", selfMS(spans, "core.at"), 0.5, false)
		b.set("tql.scan.planned", float64(scan.PrefetchPlanned()))
		b.set("tql.scan.claimed", float64(scan.PrefetchClaimed()))
		b.set("tql.scan.strips", float64(scan.PrefetchStrips()))
		b.set("tql.rows_returned.mean", ratio(float64(returned), float64(len(qms))))
		b.layerMetrics(p, lru, lru0, float64(shown), b.ops.attempted)
		b.callMetrics()
		b.planMetrics(queries)
	}
	b.datasetLayout(ctx, ds, mem, user)
	b.set("storage.verify.seeded_digests", float64(ds.Integrity().SeededDigests))

	// Correctness: every query the timed phase ran matches ground truth
	// from the generator, or the same query run serially.
	for ti, t := range templates {
		for _, q := range queries[ti] {
			got, ran := seen[q]
			if !ran {
				continue
			}
			want, ok := in.expected(t.name, q)
			source := "generator"
			if !ok {
				v, err := deeplake.QueryWith(ctx, ds, q, deeplake.QueryOptions{Workers: 1})
				if err != nil {
					return fmt.Errorf("serial %s: %w", t.name, err)
				}
				want, source = v.Indices(), "serial run"
			}
			b.check(got == indexHash(want), "explore: %s rows differ from the %s", t.name, source)
		}
	}
	if b.tr != nil {
		return b.probeForwarding(ctx, o)
	}
	return nil
}

// pageRows picks up to a page of random rows from a result.
func pageRows(r *rand.Rand, result []uint64) []uint64 {
	if len(result) <= explorePage {
		return result
	}
	rows := make([]uint64, explorePage)
	for i := range rows {
		rows[i] = result[r.Intn(len(result))]
	}
	return rows
}

// page reads one visualizer grid: the image and label of each row. Labels
// are checked against the generator.
func (b *bench) page(ctx context.Context, images, labels *core.Tensor, rows []uint64, want []int) error {
	for _, row := range rows {
		if _, err := b.tr.timed(ctx, "core.at", false, func(ctx context.Context) error {
			_, err := images.At(ctx, row)
			return err
		}); err != nil {
			return err
		}
		var l *tensor.NDArray
		if _, err := b.tr.timed(ctx, "core.at", false, func(ctx context.Context) (err error) {
			l, err = labels.At(ctx, row)
			return err
		}); err != nil {
			return err
		}
		if got, err := l.Item(); err != nil || int(got) != want[row] {
			b.check(false, "explore: row %d label %v (%v), generated %d", row, got, err, want[row])
		}
	}
	return nil
}

// buildExplore writes the explore dataset row by row through store.
func (b *bench) buildExplore(ctx context.Context, store storage.Provider, in *exploreSet) error {
	bounds := chunk.Bounds{Min: 12 << 10, Target: 16 << 10, Max: 24 << 10}
	ds, err := deeplake.Create(ctx, store, "explore")
	if err != nil {
		return err
	}
	if err := ds.SetWriteOptions(deeplake.WriteOptions{FlushWorkers: b.procs}); err != nil {
		return err
	}
	for _, spec := range []deeplake.TensorSpec{
		{Name: "images", Htype: "image", SampleCompression: "jpeg", Bounds: bounds},
		{Name: "labels", Htype: "class_label", Bounds: bounds},
		{Name: "embeddings", Htype: "embedding", Bounds: bounds},
	} {
		if _, err := ds.CreateTensor(ctx, spec); err != nil {
			return err
		}
	}
	for i := range in.images {
		if err := ds.Append(ctx, map[string]*tensor.NDArray{
			"images":     in.images[i],
			"labels":     tensor.Scalar(tensor.Int32, float64(in.labels[i])),
			"embeddings": in.embeddings[i],
		}); err != nil {
			return err
		}
	}
	if err := ds.Flush(ctx); err != nil {
		return err
	}
	_, err = ds.Commit(ctx, "perfbench")
	return err
}

// warmExplore runs every query once and reads a row of every chunk, so the
// timed phase finds every chunk in the RAM cache.
func (b *bench) warmExplore(ctx context.Context, ds *core.Dataset, queries [][]string) error {
	for _, vs := range queries {
		for _, q := range vs {
			if _, err := deeplake.QueryWith(ctx, ds, q, deeplake.QueryOptions{Workers: b.procs}); err != nil {
				return err
			}
		}
	}
	for _, name := range []string{"images", "labels", "embeddings"} {
		t := ds.Tensor(name)
		for _, span := range t.ChunkSpans() {
			if _, err := t.At(ctx, span.First); err != nil {
				return err
			}
		}
	}
	return nil
}

// planMetrics times Explain on the mix's query strings (traced run only).
func (b *bench) planMetrics(queries [][]string) {
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		for _, vs := range queries {
			for _, q := range vs {
				d, err := b.tr.timed(context.Background(), "tql.plan", true, func(context.Context) error {
					_, err := deeplake.Explain(q)
					return err
				})
				b.check(err == nil, "explain %q: %v", q, err)
				xs = append(xs, ms(d))
			}
		}
	}
	b.pct("tql.plan_ms.p50", xs, 0.5, false)
}
