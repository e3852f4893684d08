package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistryResolvesAllCodecs(t *testing.T) {
	for _, name := range []string{"none", "lz4", "deflate", "gzip"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("codec %q reports name %q", name, c.Name())
		}
	}
	if _, err := ByName(""); err != nil {
		t.Fatalf("empty name should resolve to identity codec: %v", err)
	}
	if _, err := ByName("zstd-o-matic"); err == nil {
		t.Fatal("unknown codec should error")
	}
}

func roundTrip(t *testing.T, c Codec, src []byte) {
	t.Helper()
	enc, err := c.Compress(src)
	if err != nil {
		t.Fatalf("%s compress: %v", c.Name(), err)
	}
	dec, err := c.Decompress(enc)
	if err != nil {
		t.Fatalf("%s decompress: %v", c.Name(), err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("%s round trip mismatch: %d bytes in, %d out", c.Name(), len(src), len(dec))
	}
}

func TestRoundTripsAcrossCodecs(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("hello"),
		[]byte(strings.Repeat("abcd", 10000)),
		bytes.Repeat([]byte{0}, 1<<16),
		[]byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500)),
	}
	// A pseudo-random incompressible block.
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, 100_000)
	rng.Read(noise)
	inputs = append(inputs, noise)

	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			roundTrip(t, c, in)
		}
	}
}

func TestLZ4CompressesRepetitiveData(t *testing.T) {
	c, _ := ByName("lz4")
	src := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	enc, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(src)/10 {
		t.Fatalf("lz4 ratio too poor on repetitive data: %d -> %d", len(src), len(enc))
	}
}

func TestLZ4StoresIncompressibleRaw(t *testing.T) {
	c, _ := ByName("lz4")
	rng := rand.New(rand.NewSource(42))
	src := make([]byte, 10_000)
	rng.Read(src)
	enc, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(src)+16 {
		t.Fatalf("raw fallback added too much overhead: %d -> %d", len(src), len(enc))
	}
	if enc[0] != lz4Raw {
		t.Fatalf("expected raw mode for random data, got mode %#x", enc[0])
	}
}

func TestLZ4RejectsCorruptInput(t *testing.T) {
	c, _ := ByName("lz4")
	cases := [][]byte{
		{},
		{lz4Block},                              // missing size
		{lz4Block, 0x05},                        // claims 5 bytes, no payload
		{0x77, 0x01, 0x00},                      // unknown mode
		{lz4Raw, 0x05, 'a', 'b'},                // raw payload shorter than header
		{lz4Block, 0x10, 0xFF, 0xFF},            // nonsense block
		{lz4Block, 0x08, 0x02, 'a'},             // literal run past end
		{lz4Block, 0x04, 0x01, 'a', 0x09, 0x00}, // offset beyond output
	}
	for i, in := range cases {
		if _, err := c.Decompress(in); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}

// Property: LZ4 round-trips arbitrary byte strings.
func TestLZ4RoundTripProperty(t *testing.T) {
	c, _ := ByName("lz4")
	f := func(src []byte) bool {
		enc, err := c.Compress(src)
		if err != nil {
			return false
		}
		dec, err := c.Decompress(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: LZ4 round-trips highly repetitive strings with overlapping
// matches (offset < match length), the classic decoder pitfall.
func TestLZ4OverlapProperty(t *testing.T) {
	c, _ := ByName("lz4")
	f := func(seed int64, unit uint8, reps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		u := int(unit)%7 + 1
		pattern := make([]byte, u)
		rng.Read(pattern)
		src := bytes.Repeat(pattern, int(reps)%2000+20)
		enc, err := c.Compress(src)
		if err != nil {
			return false
		}
		dec, err := c.Decompress(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func makeTestImage(h, w, ch int) []byte {
	pix := make([]byte, h*w*ch)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for c := 0; c < ch; c++ {
				pix[(y*w+x)*ch+c] = byte((x*3 + y*5 + c*17) % 256)
			}
		}
	}
	return pix
}

func TestPNGSampleCodecLossless(t *testing.T) {
	c, err := SampleByName("png")
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []int{1, 3} {
		pix := makeTestImage(32, 48, ch)
		enc, err := c.Encode(pix, 32, 48, ch)
		if err != nil {
			t.Fatal(err)
		}
		dec, h, w, dch, err := c.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if h != 32 || w != 48 || dch != ch {
			t.Fatalf("shape = %dx%dx%d, want 32x48x%d", h, w, dch, ch)
		}
		if !bytes.Equal(dec, pix) {
			t.Fatalf("png must be lossless (ch=%d)", ch)
		}
	}
}

func TestJPEGSampleCodecApproximate(t *testing.T) {
	c, err := SampleByName("jpeg")
	if err != nil {
		t.Fatal(err)
	}
	pix := makeTestImage(64, 64, 3)
	enc, err := c.Encode(pix, 64, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(pix) {
		t.Fatalf("jpeg did not compress smooth gradient: %d -> %d", len(pix), len(enc))
	}
	dec, h, w, ch, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h != 64 || w != 64 || ch != 3 {
		t.Fatalf("shape = %dx%dx%d", h, w, ch)
	}
	// Lossy: verify mean absolute error is modest rather than equality.
	var sum int
	for i := range pix {
		d := int(pix[i]) - int(dec[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	if mae := float64(sum) / float64(len(pix)); mae > 20 {
		t.Fatalf("jpeg mean abs error %.1f too high", mae)
	}
}

func TestSampleCodecValidation(t *testing.T) {
	c, _ := SampleByName("png")
	if _, err := c.Encode(make([]byte, 10), 2, 2, 3); err == nil {
		t.Fatal("wrong buffer length should error")
	}
	if _, err := c.Encode(nil, 0, 0, 3); err == nil {
		t.Fatal("zero dims should error")
	}
	if _, err := c.Encode(make([]byte, 8), 2, 2, 2); err == nil {
		t.Fatal("2-channel images unsupported, should error")
	}
	if _, _, _, _, err := c.Decode([]byte("not a png")); err == nil {
		t.Fatal("garbage decode should error")
	}
}

func TestSampleRegistry(t *testing.T) {
	names := SampleNames()
	if len(names) < 2 {
		t.Fatalf("expected jpeg and png registered, got %v", names)
	}
	if _, err := SampleByName("webp"); err == nil {
		t.Fatal("unknown sample codec should error")
	}
}

// TestLZ4MatchCopyCases decodes hand-built blocks that pin each match-copy
// regime — offset 1 (RLE), offset < matchLen (overlapping, the pattern
// repeats several times) and offset >= matchLen (a plain back-reference) —
// against a byte-at-a-time reference expansion, then round-trips inputs
// that make the compressor emit the same kinds of match.
func TestLZ4MatchCopyCases(t *testing.T) {
	cases := []struct {
		name     string
		literals []byte
		offset   int
		matchLen int
	}{
		{"rle", []byte("a"), 1, 1000},
		{"rle-min-match", []byte("z"), 1, lz4MinMatch},
		{"overlap-period-3", []byte("abc"), 3, 50},
		{"overlap-period-7", []byte("0123456"), 7, 8},
		{"offset-equals-match", []byte("ABCDEFGH"), 8, 8},
		{"offset-beyond-match", []byte("the quick brown fox"), 19, 5},
		{"offset-mid-window", []byte("0123456789abcdef"), 12, 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tail := []byte("END!!")
			want := append([]byte(nil), c.literals...)
			for k := 0; k < c.matchLen; k++ {
				want = append(want, want[len(want)-c.offset])
			}
			want = append(want, tail...)

			block := lz4EmitSequence(nil, c.literals, c.offset, c.matchLen)
			block = lz4EmitLiterals(block, tail)
			got, err := lz4DecompressBlock(block, len(want), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("decoded %q, want %q", got, want)
			}
			// A scratch buffer with room to spare must give the same bytes.
			got, err = lz4DecompressBlock(block, len(want), make([]byte, 3, 4*len(want)))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("decode into scratch = %q, %v; want %q", got, err, want)
			}
		})
	}

	c, _ := ByName("lz4")
	text := strings.Repeat("0123456789abcdefghij", 4)
	for name, src := range map[string][]byte{
		"rle":     bytes.Repeat([]byte{0x5A}, 70000),
		"overlap": bytes.Repeat([]byte("xyz"), 5000),
		"far":     []byte(text + strings.Repeat("\x00", 300) + text),
	} {
		enc, err := c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		if enc[0] != lz4Block {
			t.Fatalf("%s: input stored raw; the match path was not exercised", name)
		}
		dec, err := c.Decompress(enc)
		if err != nil || !bytes.Equal(dec, src) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
	}
}
