package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// mixedSamples covers every directory shape SampleAt walks past: scalars,
// rank 1-3, empty payloads and a zero-length dimension.
func mixedSamples() []Sample {
	return []Sample{
		{Shape: nil, Data: []byte{7}},
		{Shape: []int{3}, Data: []byte("abc")},
		{Shape: []int{2, 2}, Data: []byte("wxyz")},
		{Shape: []int{0}, Data: nil},
		{Shape: []int{1, 2, 3}, Data: []byte("012345")},
		{Shape: nil, Data: []byte{9}},
	}
}

func sameSample(a, b Sample) bool {
	if !bytes.Equal(a.Data, b.Data) || len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

func TestSampleAtMatchesDecode(t *testing.T) {
	blob, err := Encode(mixedSamples())
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"v2": blob, "v1": legacyV1Blob(t, blob)} {
		all, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range all {
			got, err := SampleAt(raw, i)
			if err != nil {
				t.Fatalf("%s: SampleAt(%d): %v", name, i, err)
			}
			if !sameSample(got, want) {
				t.Fatalf("%s: SampleAt(%d) = %+v, Decode gives %+v", name, i, got, want)
			}
		}
		for _, i := range []int{-1, len(all)} {
			_, err := SampleAt(raw, i)
			if err == nil || errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: SampleAt(%d) = %v, want a plain out-of-range error", name, i, err)
			}
		}
	}
}

func TestSampleAtRejectsCorrupt(t *testing.T) {
	blob, err := Encode(mixedSamples())
	if err != nil {
		t.Fatal(err)
	}
	n := len(mixedSamples())
	offsetsEnd := headerSize + (n+1)*8
	dataAt := dataStart(int(binary.LittleEndian.Uint32(blob[10:])))
	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), blob...)
		copy(out[at:], b)
		return out
	}
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cases := map[string]struct {
		raw []byte
		i   int
	}{
		"short header":          {blob[:5], 0},
		"no footer room":        {blob[:dataAt+4], 0},
		"directory too small":   {patch(6, 0xFF, 0xFF, 0, 0), 0},
		"offset past data":      {patch(headerSize+8*2, u64(1<<40)...), 1},
		"offsets reversed":      {patch(headerSize+8*2, u64(0)...), 1},
		"shape walk overruns":   {patch(offsetsEnd, 0xFF), n - 1},
		"target shape overruns": {patch(offsetsEnd, 0xFF), 0},
	}
	for name, c := range cases {
		_, err := SampleAt(c.raw, c.i)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: SampleAt(%d) = %v, want an error wrapping ErrCorrupt", name, c.i, err)
		}
	}
}

func TestSampleAtAllocatesOnlyTheShape(t *testing.T) {
	samples := make([]Sample, 4096)
	for i := range samples {
		samples[i] = Sample{Shape: []int{1}, Data: []byte{byte(i)}}
	}
	blob, err := Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := SampleAt(blob, len(samples)-1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("SampleAt on a 4096-sample chunk: %.1f allocs/op, want 1 (the shape)", allocs)
	}
}

// FuzzSampleAt checks SampleAt differentially against Decode: it never
// panics, it returns exactly Decode(raw)[i] whenever Decode accepts the blob,
// and every error it gives for an index the header claims wraps ErrCorrupt.
func FuzzSampleAt(f *testing.F) {
	blob, err := Encode(mixedSamples())
	if err != nil {
		f.Fatal(err)
	}
	v1 := append([]byte(nil), blob[:len(blob)-footerSize]...)
	v1[4], v1[5] = legacyVersion, 0
	f.Add(blob)
	f.Add(v1)
	empty, _ := Encode(nil)
	f.Add(empty)
	for _, cut := range []int{0, 5, headerSize, headerSize + 9, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:cut])
		f.Add(v1[:cut])
	}
	for _, at := range []int{6, 10, headerSize + 8, headerSize + 7*8, len(blob) - footerSize - 1} {
		garbled := append([]byte(nil), blob...)
		garbled[at] ^= 0xA5
		f.Add(garbled)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		all, decErr := Decode(raw)
		if decErr != nil && !errors.Is(decErr, ErrCorrupt) {
			t.Fatalf("Decode error %v does not wrap ErrCorrupt", decErr)
		}
		claimed := 0
		if len(raw) >= headerSize {
			claimed = int(binary.LittleEndian.Uint32(raw[6:]))
		}
		// Bound the work per input: a garbled count can claim 4G samples.
		probe := min(claimed, 256)
		for i := 0; i <= probe; i++ {
			got, err := SampleAt(raw, i)
			if decErr == nil {
				if i < len(all) {
					if err != nil {
						t.Fatalf("Decode accepts the blob but SampleAt(%d) = %v", i, err)
					}
					if !sameSample(got, all[i]) {
						t.Fatalf("SampleAt(%d) = %+v, Decode gives %+v", i, got, all[i])
					}
				} else if err == nil || errors.Is(err, ErrCorrupt) {
					t.Fatalf("SampleAt(%d) past %d samples = %v, want a plain out-of-range error", i, len(all), err)
				}
				continue
			}
			if err != nil && i < claimed && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("SampleAt(%d) of %d claimed samples: error %v does not wrap ErrCorrupt", i, claimed, err)
			}
		}
	})
}
