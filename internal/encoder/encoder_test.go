package encoder

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chunk"
)

func TestChunkEncoderAppendAndLookup(t *testing.T) {
	e := NewChunkEncoder()
	if e.NumSamples() != 0 || e.NumChunks() != 0 {
		t.Fatal("new encoder not empty")
	}
	// Chunk 0: samples 0..9, chunk 1: 10..14, chunk 2: 15.
	if err := e.Append(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Append(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Append(1, 2); err != nil { // extend current chunk
		t.Fatal(err)
	}
	if err := e.Append(2, 1); err != nil {
		t.Fatal(err)
	}
	if e.NumSamples() != 16 || e.NumChunks() != 3 {
		t.Fatalf("samples=%d chunks=%d", e.NumSamples(), e.NumChunks())
	}
	cases := []struct {
		idx   uint64
		chunk uint64
		local int
	}{
		{0, 0, 0}, {9, 0, 9}, {10, 1, 0}, {14, 1, 4}, {15, 2, 0},
	}
	for _, c := range cases {
		id, local, err := e.Lookup(c.idx)
		if err != nil || id != c.chunk || local != c.local {
			t.Errorf("Lookup(%d) = %d,%d,%v; want %d,%d", c.idx, id, local, err, c.chunk, c.local)
		}
	}
	if _, _, err := e.Lookup(16); err == nil {
		t.Fatal("out-of-range lookup should error")
	}
	if err := e.Append(0, 1); err == nil {
		t.Fatal("reopening a closed chunk should error")
	}
	if err := e.Append(3, 0); err == nil {
		t.Fatal("zero count should error")
	}
}

func TestChunkEncoderRanges(t *testing.T) {
	e := NewChunkEncoder()
	e.Append(7, 4)
	e.Append(8, 6)
	first, last, id, err := e.ChunkRange(0)
	if err != nil || first != 0 || last != 3 || id != 7 {
		t.Fatalf("row 0 = [%d,%d] id %d, %v", first, last, id, err)
	}
	first, last, id, err = e.ChunkRange(1)
	if err != nil || first != 4 || last != 9 || id != 8 {
		t.Fatalf("row 1 = [%d,%d] id %d, %v", first, last, id, err)
	}
	if _, _, _, err := e.ChunkRange(2); err == nil {
		t.Fatal("row out of range should error")
	}
	if !reflect.DeepEqual(e.ChunkIDs(), []uint64{7, 8}) {
		t.Fatalf("ChunkIDs = %v", e.ChunkIDs())
	}
}

func TestChunkEncoderReplaceAll(t *testing.T) {
	e := NewChunkEncoder()
	e.Append(0, 100)
	if err := e.ReplaceAll([]uint64{10, 11}, []int{60, 40}); err != nil {
		t.Fatal(err)
	}
	if e.NumSamples() != 100 || e.NumChunks() != 2 {
		t.Fatalf("after replace: samples=%d chunks=%d", e.NumSamples(), e.NumChunks())
	}
	id, local, _ := e.Lookup(75)
	if id != 11 || local != 15 {
		t.Fatalf("Lookup(75) = %d,%d", id, local)
	}
	if err := e.ReplaceAll([]uint64{1}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := e.ReplaceAll([]uint64{1}, []int{0}); err == nil {
		t.Fatal("zero count should error")
	}
}

func TestChunkEncoderSerialization(t *testing.T) {
	e := NewChunkEncoder()
	e.Append(3, 7)
	e.Append(9, 2)
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back ChunkEncoder
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.NumSamples() != 9 || back.NumChunks() != 2 {
		t.Fatalf("deserialized: samples=%d chunks=%d", back.NumSamples(), back.NumChunks())
	}
	id, local, _ := back.Lookup(8)
	if id != 9 || local != 1 {
		t.Fatalf("Lookup after round trip = %d,%d", id, local)
	}
	for _, bad := range [][]byte{nil, []byte("XXXX"), blob[:10], append(append([]byte{}, blob...), 0)} {
		var e2 ChunkEncoder
		if err := e2.UnmarshalBinary(bad); err == nil {
			t.Errorf("corrupt blob %d bytes accepted", len(bad))
		}
	}
}

// Property: the RLE encoder agrees with a flat map for random append
// sequences, and row count equals the number of distinct chunks.
func TestChunkEncoderMatchesFlatMap(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewChunkEncoder()
		var flat []uint64 // flat[i] = chunk of sample i
		chunkID := uint64(0)
		for op := 0; op < int(ops)%30+1; op++ {
			count := rng.Intn(5) + 1
			if rng.Intn(3) == 0 {
				chunkID++ // start a new chunk sometimes
			}
			if err := e.Append(chunkID, count); err != nil {
				return false
			}
			for k := 0; k < count; k++ {
				flat = append(flat, chunkID)
			}
		}
		if e.NumSamples() != uint64(len(flat)) {
			return false
		}
		locals := map[uint64]int{}
		for i, want := range flat {
			id, local, err := e.Lookup(uint64(i))
			if err != nil || id != want {
				return false
			}
			if local != locals[id] {
				return false
			}
			locals[id]++
		}
		// Round trip through serialization too.
		blob, err := e.MarshalBinary()
		if err != nil {
			return false
		}
		var back ChunkEncoder
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		return back.NumSamples() == e.NumSamples() && back.NumChunks() == e.NumChunks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTileEncoder(t *testing.T) {
	e := NewTileEncoder()
	layout := chunk.TileLayout{SampleShape: []int{8, 8}, TileShape: []int{4, 4}, Grid: []int{2, 2}}
	entry := TileEntry{Layout: layout, ChunkIDs: []uint64{100, 101, 102, 103}}
	if err := e.Set(5, entry); err != nil {
		t.Fatal(err)
	}
	if err := e.Set(6, TileEntry{Layout: layout, ChunkIDs: []uint64{1}}); err == nil {
		t.Fatal("chunk id count mismatch should error")
	}
	got, ok := e.Get(5)
	if !ok || len(got.ChunkIDs) != 4 {
		t.Fatalf("Get(5) = %+v, %v", got, ok)
	}
	if _, ok := e.Get(4); ok {
		t.Fatal("untiled sample should not be present")
	}
	if e.Len() != 1 || !reflect.DeepEqual(e.Indices(), []uint64{5}) {
		t.Fatalf("Len=%d Indices=%v", e.Len(), e.Indices())
	}

	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back TileEncoder
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	got2, ok := back.Get(5)
	if !ok || !reflect.DeepEqual(got2.ChunkIDs, entry.ChunkIDs) {
		t.Fatalf("round trip = %+v, %v", got2, ok)
	}
	back.Delete(5)
	if back.Len() != 0 {
		t.Fatal("delete failed")
	}
	if err := back.UnmarshalBinary([]byte("{bad")); err == nil {
		t.Fatal("corrupt json should error")
	}
}

func TestSequenceEncoder(t *testing.T) {
	e := NewSequenceEncoder()
	for _, n := range []int{3, 0, 5} {
		if err := e.AppendRow(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AppendRow(-1); err == nil {
		t.Fatal("negative length should error")
	}
	if e.NumRows() != 3 || e.NumItems() != 8 {
		t.Fatalf("rows=%d items=%d", e.NumRows(), e.NumItems())
	}
	cases := []struct{ row, start, end int }{{0, 0, 3}, {1, 3, 3}, {2, 3, 8}}
	for _, c := range cases {
		s, en, err := e.RowRange(c.row)
		if err != nil || s != uint64(c.start) || en != uint64(c.end) {
			t.Errorf("RowRange(%d) = %d,%d,%v", c.row, s, en, err)
		}
	}
	if _, _, err := e.RowRange(3); err == nil {
		t.Fatal("row out of range should error")
	}
	for item, wantRow := range map[uint64]int{0: 0, 2: 0, 3: 2, 7: 2} {
		row, err := e.RowOf(item)
		if err != nil || row != wantRow {
			t.Errorf("RowOf(%d) = %d,%v; want %d", item, row, err, wantRow)
		}
	}
	if _, err := e.RowOf(8); err == nil {
		t.Fatal("item out of range should error")
	}

	blob, _ := e.MarshalBinary()
	var back SequenceEncoder
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.NumItems() != 8 {
		t.Fatalf("round trip items = %d", back.NumItems())
	}
	if err := back.UnmarshalBinary([]byte("[5,3]")); err == nil {
		t.Fatal("non-monotone cum should error")
	}
}

func TestShapeEncoderRLE(t *testing.T) {
	e := NewShapeEncoder()
	// 100 samples of the same shape compress to one row.
	for i := 0; i < 100; i++ {
		e.Append([]int{224, 224, 3})
	}
	if e.NumRows() != 1 || e.NumSamples() != 100 {
		t.Fatalf("rows=%d samples=%d", e.NumRows(), e.NumSamples())
	}
	e.Append([]int{512, 512, 3})
	e.Append([]int{224, 224, 3}) // back to first shape: new run
	if e.NumRows() != 3 || e.NumSamples() != 102 {
		t.Fatalf("rows=%d samples=%d", e.NumRows(), e.NumSamples())
	}
	s, err := e.Get(100)
	if err != nil || !reflect.DeepEqual(s, []int{512, 512, 3}) {
		t.Fatalf("Get(100) = %v, %v", s, err)
	}
	s, _ = e.Get(50)
	if !reflect.DeepEqual(s, []int{224, 224, 3}) {
		t.Fatalf("Get(50) = %v", s)
	}
	if _, err := e.Get(102); err == nil {
		t.Fatal("out of range should error")
	}
}

func TestShapeEncoderSet(t *testing.T) {
	e := NewShapeEncoder()
	for i := 0; i < 10; i++ {
		e.Append([]int{4, 4})
	}
	if err := e.Set(5, []int{8, 8}); err != nil {
		t.Fatal(err)
	}
	if e.NumSamples() != 10 {
		t.Fatalf("samples after set = %d", e.NumSamples())
	}
	s, _ := e.Get(5)
	if !reflect.DeepEqual(s, []int{8, 8}) {
		t.Fatalf("Get(5) after set = %v", s)
	}
	s, _ = e.Get(4)
	if !reflect.DeepEqual(s, []int{4, 4}) {
		t.Fatalf("Get(4) after set = %v", s)
	}
	if e.NumRows() != 3 {
		t.Fatalf("rows after split = %d, want 3", e.NumRows())
	}
	if err := e.Set(10, []int{1}); err == nil {
		t.Fatal("set out of range should error")
	}
}

// Property: shape encoder Get agrees with a flat slice of shapes.
func TestShapeEncoderMatchesFlat(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewShapeEncoder()
		var flat [][]int
		shapes := [][]int{{2, 2}, {3, 3}, {2, 2, 3}}
		for i := 0; i < int(n)%50+1; i++ {
			s := shapes[rng.Intn(len(shapes))]
			e.Append(s)
			flat = append(flat, s)
		}
		blob, err := e.MarshalBinary()
		if err != nil {
			return false
		}
		var back ShapeEncoder
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		for i, want := range flat {
			got, err := back.Get(uint64(i))
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkEncoderDuplicateDetectionAfterRestore(t *testing.T) {
	// The O(1) duplicate index must survive every path that replaces the
	// row set: ReplaceAll, UnmarshalBinary, and zero-value encoders.
	e := NewChunkEncoder()
	for id := uint64(0); id < 5; id++ {
		if err := e.Append(id, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Append(2, 1); err == nil {
		t.Fatal("re-opening a closed chunk should fail")
	}

	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back ChunkEncoder
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := back.Append(3, 1); err == nil {
		t.Fatal("restored encoder should still reject duplicate chunk ids")
	}
	if err := back.Append(4, 2); err != nil {
		t.Fatalf("extending the most recent chunk: %v", err)
	}
	if err := back.Append(99, 2); err != nil {
		t.Fatalf("appending a fresh chunk: %v", err)
	}

	if err := back.ReplaceAll([]uint64{7, 8}, []int{2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := back.Append(7, 1); err == nil {
		t.Fatal("ReplaceAll ids should be registered as closed")
	}

	var zero ChunkEncoder
	if err := zero.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := zero.Append(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := zero.Append(1, 2); err == nil {
		t.Fatal("zero-value encoder should reject duplicates too")
	}
}

func TestChunkEncoderAppendScales(t *testing.T) {
	// 50k distinct chunks; quadratic appends would take minutes here.
	e := NewChunkEncoder()
	start := time.Now()
	for id := uint64(0); id < 50000; id++ {
		if err := e.Append(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	if e.NumChunks() != 50000 || e.NumSamples() != 100000 {
		t.Fatalf("chunks=%d samples=%d", e.NumChunks(), e.NumSamples())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("50k appends took %s; append is not O(1)", elapsed)
	}
}

// TestTileEncoderRejectsUnwalkableEntries: a stored tile encoder is read
// unverified, so UnmarshalBinary must refuse every entry Set refuses —
// entries whose tiles a reader cannot walk without indexing out of range.
func TestTileEncoderRejectsUnwalkableEntries(t *testing.T) {
	good := chunk.TileLayout{SampleShape: []int{8, 6}, TileShape: []int{4, 4}, Grid: []int{2, 2}}
	for name, entry := range map[string]TileEntry{
		"fewer chunk ids":   {Layout: good, ChunkIDs: []uint64{1, 2, 3}},
		"more chunk ids":    {Layout: good, ChunkIDs: []uint64{1, 2, 3, 4, 5}},
		"tile rank":         {Layout: chunk.TileLayout{SampleShape: []int{8, 6}, TileShape: []int{4}, Grid: []int{2, 2}}, ChunkIDs: []uint64{1, 2, 3, 4}},
		"grid rank":         {Layout: chunk.TileLayout{SampleShape: []int{8, 6}, TileShape: []int{4, 4}, Grid: []int{4}}, ChunkIDs: []uint64{1, 2, 3, 4}},
		"grid not ceil":     {Layout: chunk.TileLayout{SampleShape: []int{8, 6}, TileShape: []int{4, 4}, Grid: []int{4, 1}}, ChunkIDs: []uint64{1, 2, 3, 4}},
		"zero tile":         {Layout: chunk.TileLayout{SampleShape: []int{8, 6}, TileShape: []int{0, 4}, Grid: []int{1, 2}}, ChunkIDs: []uint64{1, 2}},
		"tile over sample":  {Layout: chunk.TileLayout{SampleShape: []int{8, 6}, TileShape: []int{16, 4}, Grid: []int{1, 2}}, ChunkIDs: []uint64{1, 2}},
		"negative sample":   {Layout: chunk.TileLayout{SampleShape: []int{-8, 6}, TileShape: []int{4, 4}, Grid: []int{1, 2}}, ChunkIDs: []uint64{1, 2}},
		"grid overflow":     {Layout: chunk.TileLayout{SampleShape: []int{1 << 40, 1 << 40}, TileShape: []int{1, 1}, Grid: []int{1 << 40, 1 << 40}}, ChunkIDs: []uint64{1}},
		"no layout":         {ChunkIDs: []uint64{1, 2}},
		"negative tile dim": {Layout: chunk.TileLayout{SampleShape: []int{0, 6}, TileShape: []int{-1, 3}, Grid: []int{1, 2}}, ChunkIDs: []uint64{1, 2}},
	} {
		if err := NewTileEncoder().Set(0, entry); err == nil {
			t.Errorf("%s: Set accepted %+v", name, entry)
		}
		blob, err := json.Marshal(map[string]TileEntry{"3": entry})
		if err != nil {
			t.Fatal(err)
		}
		var e TileEncoder
		if err := e.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted %s", name, blob)
		}
	}
	// Layouts PlanTiles produces still load, including an empty axis.
	for _, shape := range [][]int{{48, 48}, {0, 9}, {5, 7, 3}} {
		layout, err := chunk.PlanTiles(shape, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		enc := NewTileEncoder()
		if err := enc.Set(1, TileEntry{Layout: layout, ChunkIDs: make([]uint64, layout.NumTiles())}); err != nil {
			t.Fatalf("Set(%v): %v", layout, err)
		}
		blob, _ := enc.MarshalBinary()
		if err := new(TileEncoder).UnmarshalBinary(blob); err != nil {
			t.Fatalf("UnmarshalBinary of a planned layout %v: %v", layout, err)
		}
	}
}
