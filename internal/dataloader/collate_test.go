package dataloader

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// collateSamples builds n samples with the given column widths (one uint8
// row vector per column); a negative width at index i makes that sample's
// column i one element wider, manufacturing a shape mismatch.
func collateSamples(t *testing.T, n int, widths map[string]int, raggedAt map[string]int) []map[string]*tensor.NDArray {
	t.Helper()
	out := make([]map[string]*tensor.NDArray, n)
	for i := 0; i < n; i++ {
		s := map[string]*tensor.NDArray{}
		for name, w := range widths {
			if at, ok := raggedAt[name]; ok && at == i {
				w++
			}
			data := bytes.Repeat([]byte{byte(i + 1)}, w)
			arr, err := tensor.FromBytes(tensor.UInt8, []int{w}, data)
			if err != nil {
				t.Fatal(err)
			}
			s[name] = arr
		}
		out[i] = s
	}
	return out
}

// TestCollateMismatchedShapesSurfaceUnstacked is the regression test for
// the silent-drop bug: a column whose samples disagree on shape must be
// reported in unstacked — with its per-sample values intact — never
// silently vanish from the batch.
func TestCollateMismatchedShapesSurfaceUnstacked(t *testing.T) {
	samples := collateSamples(t, 4,
		map[string]int{"x": 8, "ragged": 5, "alsoragged": 3},
		map[string]int{"ragged": 2, "alsoragged": 0})
	c := newCollator()
	stacked, unstacked := c.collate(samples)

	if _, ok := stacked["x"]; !ok {
		t.Fatal("uniform column x missing from stacked output")
	}
	if _, ok := stacked["ragged"]; ok {
		t.Fatal("mismatched column stacked anyway")
	}
	if want := []string{"alsoragged", "ragged"}; !reflect.DeepEqual(unstacked, want) {
		t.Fatalf("unstacked = %v, want %v", unstacked, want)
	}
	// The per-sample values survive untouched.
	for i, s := range samples {
		if got := s["ragged"].Len(); (i == 2 && got != 6) || (i != 2 && got != 5) {
			t.Fatalf("sample %d ragged column len %d", i, got)
		}
	}
}

// TestCollateArenaMatchesHeapStack: arena-backed stacking changes where the
// batch bytes live, never what they are.
func TestCollateArenaMatchesHeapStack(t *testing.T) {
	samples := collateSamples(t, 6, map[string]int{"a": 16, "b": 7}, nil)
	c := newCollator()
	stacked, unstacked := c.collate(samples)
	if len(unstacked) != 0 {
		t.Fatalf("unexpected unstacked columns %v", unstacked)
	}
	for name := range samples[0] {
		arrs := make([]*tensor.NDArray, len(samples))
		for i, s := range samples {
			arrs[i] = s[name]
		}
		want, err := tensor.Stack(arrs)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := stacked[name]
		if !ok {
			t.Fatalf("column %q missing", name)
		}
		if !reflect.DeepEqual(got.Shape(), want.Shape()) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("column %q: arena stack differs from heap stack", name)
		}
	}
}

// TestCollateArenaCutsAllocs is the allocation gate of the arena-backed
// collation path: steady-state batch assembly must cost measurably fewer
// heap allocations than one fresh backing array per column per batch (the
// legacy tensor.Stack path), because the stacked bytes bump-allocate into
// slabs shared across batches.
func TestCollateArenaCutsAllocs(t *testing.T) {
	const cols = 6
	widths := map[string]int{"c0": 64, "c1": 64, "c2": 64, "c3": 64, "c4": 64, "c5": 64}
	samples := collateSamples(t, 16, widths, nil)

	c := newCollator()
	c.collate(samples) // warm the gather scratch and first slab
	arena := testing.AllocsPerRun(200, func() {
		if out, _ := c.collate(samples); len(out) != cols {
			t.Fatal("collate dropped a column")
		}
	})

	legacy := testing.AllocsPerRun(200, func() {
		out := map[string]*tensor.NDArray{}
		for name := range samples[0] {
			arrs := make([]*tensor.NDArray, 0, len(samples))
			for _, s := range samples {
				arrs = append(arrs, s[name])
			}
			stacked, err := tensor.Stack(arrs)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = stacked
		}
		if len(out) != cols {
			t.Fatal("legacy collate dropped a column")
		}
	})

	t.Logf("allocs/op: arena collate %.2f, legacy stack %.2f", arena, legacy)
	// The legacy path pays at least one backing-array allocation per column
	// per batch on top of everything the arena path also pays; require the
	// arena path to save at least half of those.
	if arena > legacy-cols/2 {
		t.Fatalf("arena collate allocs/op %.2f vs legacy %.2f: backing arrays are not amortized", arena, legacy)
	}
}

// TestLoaderSurfacesUnstackedColumns runs the silent-drop regression
// through the whole pipeline: a dataset column with per-row shapes must
// arrive listed in Batch.Unstacked with its rows intact in Batch.Samples.
func TestLoaderSurfacesUnstackedColumns(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemory()
	ds, err := core.Create(ctx, store, "ragged")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.UInt8, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	lbl, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "label", Htype: "class_label", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		w := 4 + i%3 // per-row shape: collation cannot stack this column
		arr, err := tensor.FromBytes(tensor.UInt8, []int{w}, bytes.Repeat([]byte{byte(i)}, w))
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
		if err := lbl.Append(ctx, tensor.Scalar(tensor.Int32, float64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	l := ForDataset(ds, Options{BatchSize: 4, Workers: 2})
	batches := drain(t, l)
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	row := 0
	for _, b := range batches {
		if _, ok := b.Stacked["label"]; !ok {
			t.Fatal("uniform label column missing from Stacked")
		}
		if _, ok := b.Stacked["x"]; ok {
			t.Fatal("ragged column x stacked despite mismatched shapes")
		}
		if !reflect.DeepEqual(b.Unstacked, []string{"x"}) {
			t.Fatalf("Unstacked = %v, want [x]", b.Unstacked)
		}
		for _, s := range b.Samples {
			if got, want := s["x"].Len(), 4+row%3; got != want {
				t.Fatalf("row %d: per-sample x len %d, want %d", row, got, want)
			}
			row++
		}
	}
}
