package main

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/chunk"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// rawSide is the side of the raw 32x32x3 uint8 images train-s3 and ingest
// use: small samples, so a dataset several times the node budget stays a
// few tens of MB.
const (
	rawSide      = 32
	rawBytes     = rawSide * rawSide * 3
	numClasses   = 10
	appendRowsAt = 256 // rows per AppendBatch when building a dataset
	setupRepeats = 3   // setup_s is the median of this many set-ups
)

// rawBounds sizes chunks to hold about perChunk raw images.
func rawBounds(perChunk int) chunk.Bounds {
	t := perChunk * rawBytes
	return chunk.Bounds{Min: t * 3 / 4, Target: t, Max: t * 5 / 4}
}

// rawSet is a generated raw-image dataset: stacked batches ready for
// AppendBatch, and a hash per row to check what the program returns.
type rawSet struct {
	rows    int
	images  []*tensor.NDArray // [n, 32, 32, 3] uint8
	labels  []*tensor.NDArray // [n] int32
	rowHash []uint64
}

// genRaw synthesizes rows images and labels from seed, starting at image
// first, in AppendBatch batches of batch rows (the last may be shorter).
func genRaw(seed int64, first, rows, batch int) *rawSet {
	spec := workload.ImageSpec{Height: rawSide, Width: rawSide, Channels: 3, Seed: seed}
	s := &rawSet{rows: rows, rowHash: make([]uint64, rows)}
	for lo := 0; lo < rows; lo += batch {
		n := min(batch, rows-lo)
		pix := make([]byte, 0, n*rawBytes)
		lab := make([]float64, n)
		for i := 0; i < n; i++ {
			img := spec.Image(first + lo + i).Bytes()
			l, _ := workload.Label(seed, first+lo+i, numClasses).Item() // a scalar
			pix = append(pix, img...)
			lab[i] = l
			s.rowHash[lo+i] = rowHash(img, int32(l))
		}
		images, err := tensor.FromBytes(tensor.UInt8, []int{n, rawSide, rawSide, 3}, pix)
		if err != nil {
			panic(err) // the shape is built from the byte count above
		}
		labels, err := tensor.FromFloat64s(tensor.Int32, []int{n}, lab)
		if err != nil {
			panic(err)
		}
		s.images = append(s.images, images)
		s.labels = append(s.labels, labels)
	}
	return s
}

// multiset is the order-independent hash of the rows, for "each row exactly
// once" checks.
func (s *rawSet) multiset() uint64 {
	var h uint64
	for _, r := range s.rowHash {
		h += mix(r)
	}
	return h
}

func (s *rawSet) userBytes() map[string]float64 {
	return map[string]float64{"images": float64(s.rows * rawBytes), "labels": float64(s.rows * 4)}
}

func rowHash(image []byte, label int32) uint64 {
	h := fnv.New64a()
	h.Write(image)
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(label))
	h.Write(l[:])
	return h.Sum64()
}

// mix spreads a hash before it is summed, so sums of related hashes do not
// cancel.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func sumValues(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
