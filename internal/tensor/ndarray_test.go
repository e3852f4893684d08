package tensor

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDtypeBasics(t *testing.T) {
	cases := []struct {
		d    Dtype
		name string
		size int
	}{
		{Bool, "bool", 1}, {UInt8, "uint8", 1}, {UInt16, "uint16", 2},
		{UInt32, "uint32", 4}, {UInt64, "uint64", 8}, {Int8, "int8", 1},
		{Int16, "int16", 2}, {Int32, "int32", 4}, {Int64, "int64", 8},
		{Float32, "float32", 4}, {Float64, "float64", 8},
	}
	for _, c := range cases {
		if c.d.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.d, c.d.String(), c.name)
		}
		if c.d.Size() != c.size {
			t.Errorf("%s.Size() = %d, want %d", c.name, c.d.Size(), c.size)
		}
		parsed, err := ParseDtype(c.name)
		if err != nil || parsed != c.d {
			t.Errorf("ParseDtype(%q) = %v, %v", c.name, parsed, err)
		}
	}
	if _, err := ParseDtype("complex128"); err == nil {
		t.Error("ParseDtype should reject unknown names")
	}
	if InvalidDtype.Valid() {
		t.Error("InvalidDtype must not be valid")
	}
	// Past the end of the lookup tables: no panic, no size, no name.
	for _, d := range []Dtype{InvalidDtype, Float64 + 1, 255} {
		if d.Valid() || d.Size() != 0 {
			t.Errorf("%d: Valid() = %v, Size() = %d; want false, 0", uint8(d), d.Valid(), d.Size())
		}
		if _, err := ParseDtype(d.String()); err == nil {
			t.Errorf("ParseDtype(%q) accepted an unknown dtype", d.String())
		}
	}
	if _, err := ParseDtype(""); err == nil {
		t.Error("ParseDtype must reject the empty name")
	}
}

func TestNewAndAccessors(t *testing.T) {
	a, err := New(Int32, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 6 || a.NumBytes() != 24 || a.NDim() != 2 {
		t.Fatalf("Len=%d NumBytes=%d NDim=%d", a.Len(), a.NumBytes(), a.NDim())
	}
	if err := a.SetAt(42, 1, 2); err != nil {
		t.Fatal(err)
	}
	v, err := a.At(1, 2)
	if err != nil || v != 42 {
		t.Fatalf("At = %v, %v", v, err)
	}
	// Negative indexing.
	v, err = a.At(-1, -1)
	if err != nil || v != 42 {
		t.Fatalf("negative At = %v, %v", v, err)
	}
	if _, err := a.At(2, 0); err == nil {
		t.Fatal("out of bounds At should error")
	}
	if _, err := a.At(0); err == nil {
		t.Fatal("wrong arity At should error")
	}
	if _, err := New(Int32, -1); err == nil {
		t.Fatal("negative dim should error")
	}
}

func TestEveryDtypeRoundTripsValues(t *testing.T) {
	vals := map[Dtype][]float64{
		Bool:    {0, 1},
		UInt8:   {0, 1, 255},
		UInt16:  {0, 65535},
		UInt32:  {0, 4294967295},
		UInt64:  {0, 1e15},
		Int8:    {-128, 0, 127},
		Int16:   {-32768, 32767},
		Int32:   {-2147483648, 2147483647},
		Int64:   {-1e15, 1e15},
		Float32: {-1.5, 0, 3.25},
		Float64: {-1e300, math.Pi},
	}
	for d, vs := range vals {
		a := MustNew(d, len(vs))
		for i, v := range vs {
			if err := a.SetAt(v, i); err != nil {
				t.Fatal(err)
			}
		}
		for i, v := range vs {
			got, _ := a.At(i)
			if got != v {
				t.Errorf("%s: round trip %v -> %v", d, v, got)
			}
		}
	}
}

func TestIntegerSaturation(t *testing.T) {
	a := MustNew(UInt8, 3)
	a.SetAt(300, 0)
	a.SetAt(-5, 1)
	a.SetAt(math.NaN(), 2)
	want := []float64{255, 0, 0}
	if got := a.Float64s(); !reflect.DeepEqual(got, want) {
		t.Fatalf("saturation = %v, want %v", got, want)
	}
	b := MustNew(Int8, 2)
	b.SetAt(1000, 0)
	b.SetAt(-1000, 1)
	if got := b.Float64s(); got[0] != 127 || got[1] != -128 {
		t.Fatalf("int8 saturation = %v", got)
	}
}

func TestFromBytesValidation(t *testing.T) {
	if _, err := FromBytes(Int32, []int{2}, make([]byte, 7)); err == nil {
		t.Fatal("short buffer should error")
	}
	a, err := FromBytes(UInt8, []int{2, 2}, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a.At(1, 0); v != 3 {
		t.Fatalf("At(1,0) = %v, want 3", v)
	}
}

func TestReshape(t *testing.T) {
	a, _ := FromFloat64s(Float32, []int{6}, []float64{1, 2, 3, 4, 5, 6})
	b, err := a.Reshape(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := b.At(1, 1); v != 5 {
		t.Fatalf("reshaped At(1,1) = %v, want 5", v)
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Fatal("size-changing reshape should error")
	}
	// Reshape shares the buffer.
	b.SetAt(99, 0, 0)
	if v, _ := a.At(0); v != 99 {
		t.Fatal("reshape must share data")
	}
}

func TestIndexReducesRank(t *testing.T) {
	a, _ := FromFloat64s(Int32, []int{3, 2}, []float64{1, 2, 3, 4, 5, 6})
	row, err := a.Index(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row.Float64s(), []float64{3, 4}) {
		t.Fatalf("Index(1) = %v", row.Float64s())
	}
	last, err := a.Index(-1)
	if err != nil || last.Float64s()[0] != 5 {
		t.Fatalf("Index(-1) = %v, %v", last, err)
	}
	if _, err := a.Index(3); err == nil {
		t.Fatal("out-of-range Index should error")
	}
	s := Scalar(Float64, 1)
	if _, err := s.Index(0); err == nil {
		t.Fatal("Index on 0-d should error")
	}
}

func TestSlice(t *testing.T) {
	// 4x4 matrix 0..15.
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i)
	}
	a, _ := FromFloat64s(Int32, []int{4, 4}, vals)

	got, err := a.Slice(Range{1, 3}, Range{2, End})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shape(), []int{2, 2}) {
		t.Fatalf("slice shape = %v", got.Shape())
	}
	if !reflect.DeepEqual(got.Float64s(), []float64{6, 7, 10, 11}) {
		t.Fatalf("slice values = %v", got.Float64s())
	}

	// Trailing axes default to All.
	got, err = a.Slice(Range{0, 1})
	if err != nil || !reflect.DeepEqual(got.Float64s(), []float64{0, 1, 2, 3}) {
		t.Fatalf("partial slice = %v, %v", got, err)
	}

	// Negative bounds.
	got, err = a.Slice(Range{-2, End}, Range{-1, End})
	if err != nil || !reflect.DeepEqual(got.Float64s(), []float64{11, 15}) {
		t.Fatalf("negative slice = %v, %v", got.Float64s(), err)
	}

	// Empty slice.
	got, err = a.Slice(Range{2, 2})
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty slice = %v, %v", got, err)
	}

	// Errors.
	if _, err := a.Slice(Range{3, 1}); err == nil {
		t.Fatal("inverted range should error")
	}
	if _, err := a.Slice(All(), All(), All()); err == nil {
		t.Fatal("too many ranges should error")
	}
}

// Property: slicing agrees with a brute-force reference implementation on
// random 3-d arrays.
func TestSliceProperty(t *testing.T) {
	f := func(d0, d1, d2 uint8, s0, e0, s1, e1 uint8) bool {
		shape := []int{int(d0)%5 + 1, int(d1)%5 + 1, int(d2)%4 + 1}
		n := shape[0] * shape[1] * shape[2]
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i * 7 % 251)
		}
		a, err := FromFloat64s(Float64, shape, vals)
		if err != nil {
			return false
		}
		lo0, hi0 := int(s0)%shape[0], int(e0)%(shape[0]+1)
		lo1, hi1 := int(s1)%shape[1], int(e1)%(shape[1]+1)
		if hi0 < lo0 || hi1 < lo1 {
			return true // skip invalid ranges
		}
		got, err := a.Slice(Range{lo0, hi0}, Range{lo1, hi1})
		if err != nil {
			return false
		}
		// Reference: explicit triple loop.
		for i := lo0; i < hi0; i++ {
			for j := lo1; j < hi1; j++ {
				for k := 0; k < shape[2]; k++ {
					want, _ := a.At(i, j, k)
					have, err := got.At(i-lo0, j-lo1, k)
					if err != nil || have != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSamples(t *testing.T) {
	s := FromString("hello deep lake")
	if s.Dtype() != UInt8 || s.Len() != 15 {
		t.Fatalf("FromString = %v", s)
	}
	if s.AsString() != "hello deep lake" {
		t.Fatalf("AsString = %q", s.AsString())
	}
}

func TestEqualAndClone(t *testing.T) {
	a, _ := FromFloat64s(Int16, []int{2, 2}, []float64{1, 2, 3, 4})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone must equal original")
	}
	b.SetAt(9, 0, 0)
	if a.Equal(b) {
		t.Fatal("mutated clone must differ")
	}
	if v, _ := a.At(0, 0); v != 1 {
		t.Fatal("clone must not share data")
	}
	c, _ := FromFloat64s(Int32, []int{2, 2}, []float64{1, 2, 3, 4})
	if a.Equal(c) {
		t.Fatal("different dtypes must not be equal")
	}
	var nilArr *NDArray
	if nilArr.Equal(a) || a.Equal(nil) {
		t.Fatal("nil comparisons")
	}
	if !nilArr.Equal(nil) {
		t.Fatal("nil == nil")
	}
}
