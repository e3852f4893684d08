package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// lz4 implements the LZ4 block format from scratch: a byte-oriented LZ77
// variant with 64KB windows, 4-byte minimum matches, and token-encoded
// sequence lengths. It is the paper's choice for chunk compression of small
// numeric tensors (labels, shapes) where decode speed matters far more than
// ratio.
//
// Framing: because the raw LZ4 block format does not record the decompressed
// size, Compress prepends a one-byte mode tag (lz4Raw when compression did
// not help, lz4Block otherwise) and a uvarint decompressed length.
type lz4 struct{}

func (lz4) Name() string { return "lz4" }

const (
	lz4Raw   = 0x00
	lz4Block = 0x01

	lz4MinMatch = 4
	// The block format forbids matches starting within the final 12
	// bytes; the last 5 bytes must be literals.
	lz4MFLimit    = 12
	lz4LastLits   = 5
	lz4MaxOffset  = 65535
	lz4HashLog    = 16
	lz4TokenLits  = 15
	lz4TokenMatch = 15
)

// lz4CompressBound is the worst-case size of an LZ4 block for n input bytes.
func lz4CompressBound(n int) int { return n + n/255 + 16 }

func (lz4) Compress(src []byte) ([]byte, error) {
	header := make([]byte, 0, binary.MaxVarintLen64+1)
	header = append(header, lz4Block)
	header = binary.AppendUvarint(header, uint64(len(src)))

	block := lz4CompressBlock(src)
	if block == nil || len(block)+len(header) >= len(src)+len(header) {
		// Incompressible: store raw.
		out := make([]byte, 0, len(src)+len(header))
		out = append(out, lz4Raw)
		out = binary.AppendUvarint(out, uint64(len(src)))
		return append(out, src...), nil
	}
	return append(header, block...), nil
}

func (c lz4) Decompress(src []byte) ([]byte, error) {
	return c.DecompressAppend(src, nil)
}

// DecompressAppend implements AppendDecompressor: the output grows from
// dst[:0], so a caller looping over chunks reuses one buffer.
func (lz4) DecompressAppend(src, dst []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, errors.New("lz4: empty input")
	}
	mode := src[0]
	size, n := binary.Uvarint(src[1:])
	if n <= 0 {
		return nil, errors.New("lz4: bad size header")
	}
	payload := src[1+n:]
	switch mode {
	case lz4Raw:
		if uint64(len(payload)) != size {
			return nil, fmt.Errorf("lz4: raw payload size %d != header %d", len(payload), size)
		}
		return append(dst[:0], payload...), nil
	case lz4Block:
		return lz4DecompressBlock(payload, int(size), dst)
	default:
		return nil, fmt.Errorf("lz4: unknown mode byte %#x", mode)
	}
}

func lz4Hash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lz4HashLog)
}

func le32(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b)
}

// lz4CompressBlock encodes src as a raw LZ4 block. It returns nil when src
// is too short to contain any match, signalling the caller to store raw.
func lz4CompressBlock(src []byte) []byte {
	if len(src) < lz4MFLimit+lz4MinMatch {
		return nil
	}
	var table [1 << lz4HashLog]int32
	for i := range table {
		table[i] = -1
	}
	dst := make([]byte, 0, lz4CompressBound(len(src)))
	anchor := 0
	i := 0
	limit := len(src) - lz4MFLimit
	for i <= limit {
		h := lz4Hash(le32(src[i:]))
		ref := int(table[h])
		table[h] = int32(i)
		if ref < 0 || i-ref > lz4MaxOffset || le32(src[ref:]) != le32(src[i:]) {
			i++
			continue
		}
		// Extend the match forward, leaving the final literals intact.
		matchLen := lz4MinMatch
		maxLen := len(src) - lz4LastLits - i
		for matchLen < maxLen && src[ref+matchLen] == src[i+matchLen] {
			matchLen++
		}
		dst = lz4EmitSequence(dst, src[anchor:i], i-ref, matchLen)
		i += matchLen
		anchor = i
	}
	if anchor == 0 {
		return nil // no matches at all; raw storage is cheaper
	}
	dst = lz4EmitLiterals(dst, src[anchor:])
	return dst
}

// lz4EmitSequence appends one literal run + match to dst.
func lz4EmitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	mlToken := matchLen - lz4MinMatch

	token := byte(0)
	if litLen >= lz4TokenLits {
		token = lz4TokenLits << 4
	} else {
		token = byte(litLen) << 4
	}
	if mlToken >= lz4TokenMatch {
		token |= lz4TokenMatch
	} else {
		token |= byte(mlToken)
	}
	dst = append(dst, token)
	if litLen >= lz4TokenLits {
		dst = lz4AppendExtLen(dst, litLen-lz4TokenLits)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if mlToken >= lz4TokenMatch {
		dst = lz4AppendExtLen(dst, mlToken-lz4TokenMatch)
	}
	return dst
}

// lz4EmitLiterals appends the trailing literal-only sequence.
func lz4EmitLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= lz4TokenLits {
		dst = append(dst, lz4TokenLits<<4)
		dst = lz4AppendExtLen(dst, litLen-lz4TokenLits)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func lz4AppendExtLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

var errLZ4Corrupt = errors.New("lz4: corrupt block")

// lz4DecompressBlock decodes a raw LZ4 block into exactly size bytes,
// reusing scratch's capacity when it suffices.
func lz4DecompressBlock(src []byte, size int, scratch []byte) ([]byte, error) {
	dst := scratch[:0]
	if cap(dst) < size {
		dst = make([]byte, 0, size)
	}
	s := 0
	for s < len(src) {
		token := src[s]
		s++
		// Literals.
		litLen := int(token >> 4)
		if litLen == lz4TokenLits {
			n, ns, err := lz4ReadExtLen(src, s)
			if err != nil {
				return nil, err
			}
			litLen += n
			s = ns
		}
		if s+litLen > len(src) {
			return nil, errLZ4Corrupt
		}
		dst = append(dst, src[s:s+litLen]...)
		s += litLen
		if s == len(src) {
			break // final literal-only sequence
		}
		// Match.
		if s+2 > len(src) {
			return nil, errLZ4Corrupt
		}
		offset := int(src[s]) | int(src[s+1])<<8
		s += 2
		if offset == 0 || offset > len(dst) {
			return nil, errLZ4Corrupt
		}
		matchLen := int(token & 0x0F)
		if matchLen == lz4TokenMatch {
			n, ns, err := lz4ReadExtLen(src, s)
			if err != nil {
				return nil, err
			}
			matchLen += n
			s = ns
		}
		matchLen += lz4MinMatch
		// The match repeats the offset-byte pattern ending at dst's tail.
		// An overlapping match (offset < matchLen) is copied in runs from
		// start: each run is everything written since start, a whole number
		// of periods, so the run length doubles and an RLE match of n bytes
		// takes log2(n) appends rather than n.
		start := len(dst) - offset
		for matchLen > 0 {
			run := min(matchLen, len(dst)-start)
			dst = append(dst, dst[start:start+run]...)
			matchLen -= run
		}
	}
	if len(dst) != size {
		return nil, fmt.Errorf("lz4: decoded %d bytes, header said %d", len(dst), size)
	}
	return dst, nil
}

func lz4ReadExtLen(src []byte, s int) (n, next int, err error) {
	for {
		if s >= len(src) {
			return 0, 0, errLZ4Corrupt
		}
		b := src[s]
		s++
		n += int(b)
		if b != 255 {
			return n, s, nil
		}
	}
}

func init() {
	Register(lz4{})
}
