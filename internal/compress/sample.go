package compress

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"image/png"
	"sort"
	"sync"
)

// SampleCodec encodes and decodes individual media samples (the paper's
// "sample compression", §5: an image tensor with sample compression JPEG
// copies raw JPEG bytes straight into chunks). Pixels are exchanged as raw
// HWC uint8 buffers, the layout the dataloader hands to the training loop.
type SampleCodec interface {
	// Name is the identifier recorded in tensor metadata (e.g. "jpeg").
	Name() string
	// Encode turns raw HWC uint8 pixels into the media format.
	Encode(pixels []byte, height, width, channels int) ([]byte, error)
	// Decode turns media bytes back into raw HWC uint8 pixels.
	Decode(data []byte) (pixels []byte, height, width, channels int, err error)
}

var (
	sampleMu       sync.RWMutex
	sampleRegistry = make(map[string]SampleCodec)
)

// RegisterSample makes a sample codec available by name.
func RegisterSample(c SampleCodec) {
	sampleMu.Lock()
	defer sampleMu.Unlock()
	if _, dup := sampleRegistry[c.Name()]; dup {
		panic(fmt.Sprintf("compress: duplicate sample codec %q", c.Name()))
	}
	sampleRegistry[c.Name()] = c
}

// SampleByName returns the sample codec registered under name.
func SampleByName(name string) (SampleCodec, error) {
	sampleMu.RLock()
	defer sampleMu.RUnlock()
	c, ok := sampleRegistry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown sample codec %q", name)
	}
	return c, nil
}

// SampleNames lists registered sample codec names in sorted order.
func SampleNames() []string {
	sampleMu.RLock()
	defer sampleMu.RUnlock()
	out := make([]string, 0, len(sampleRegistry))
	for name := range sampleRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// pixelsToImage wraps an HWC uint8 buffer as an image.Image without copying
// when possible.
func pixelsToImage(pixels []byte, height, width, channels int) (image.Image, error) {
	if height <= 0 || width <= 0 {
		return nil, fmt.Errorf("compress: invalid image dims %dx%d", height, width)
	}
	if len(pixels) != height*width*channels {
		return nil, fmt.Errorf("compress: pixel buffer %d bytes != %d*%d*%d", len(pixels), height, width, channels)
	}
	switch channels {
	case 1:
		return &image.Gray{Pix: pixels, Stride: width, Rect: image.Rect(0, 0, width, height)}, nil
	case 3:
		// Expand RGB to RGBA for the stdlib encoders.
		rgba := image.NewRGBA(image.Rect(0, 0, width, height))
		for y := 0; y < height; y++ {
			src := pixels[y*width*3 : (y+1)*width*3]
			dst := rgba.Pix[y*rgba.Stride : y*rgba.Stride+width*4]
			for x := 0; x < width; x++ {
				dst[x*4+0] = src[x*3+0]
				dst[x*4+1] = src[x*3+1]
				dst[x*4+2] = src[x*3+2]
				dst[x*4+3] = 0xFF
			}
		}
		return rgba, nil
	case 4:
		return &image.RGBA{Pix: pixels, Stride: width * 4, Rect: image.Rect(0, 0, width, height)}, nil
	default:
		return nil, fmt.Errorf("compress: unsupported channel count %d", channels)
	}
}

// DecoderInto is an optional SampleCodec extension: DecodeInto is Decode
// with the flattened HWC pixel buffer obtained from alloc instead of the
// heap, so a caller holding an arena can serve the per-sample decode
// scratch from its slabs. The codec's internal decode state (the stdlib
// image decoders' planes) still lives wherever the codec puts it.
type DecoderInto interface {
	DecodeInto(data []byte, alloc func(int) []byte) (pixels []byte, height, width, channels int, err error)
}

// imageToPixels flattens any decoded image into an HWC uint8 buffer. Gray
// images come back with 1 channel, everything else with 3 (alpha dropped),
// which matches the htype contract for image tensors.
func imageToPixels(img image.Image) (pixels []byte, height, width, channels int) {
	return imageToPixelsInto(img, func(n int) []byte { return make([]byte, n) })
}

// imageToPixelsInto is imageToPixels with the output buffer drawn from
// alloc; alloc must return a slice of exactly the requested length.
func imageToPixelsInto(img image.Image, alloc func(int) []byte) (pixels []byte, height, width, channels int) {
	b := img.Bounds()
	height, width = b.Dy(), b.Dx()
	if g, ok := img.(*image.Gray); ok {
		channels = 1
		pixels = alloc(height * width)
		for y := 0; y < height; y++ {
			copy(pixels[y*width:(y+1)*width], g.Pix[y*g.Stride:y*g.Stride+width])
		}
		return pixels, height, width, channels
	}
	channels = 3
	pixels = alloc(height * width * 3)
	i := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := color.RGBAModel.Convert(img.At(x, y)).(color.RGBA)
			pixels[i] = c.R
			pixels[i+1] = c.G
			pixels[i+2] = c.B
			i += 3
		}
	}
	return pixels, height, width, channels
}

// jpegCodec is the lossy photographic sample codec (stdlib image/jpeg).
type jpegCodec struct {
	quality int
}

func (jpegCodec) Name() string { return "jpeg" }

func (c jpegCodec) Encode(pixels []byte, height, width, channels int) ([]byte, error) {
	img, err := pixelsToImage(pixels, height, width, channels)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, img, &jpeg.Options{Quality: c.quality}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (jpegCodec) Decode(data []byte) ([]byte, int, int, int, error) {
	img, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	p, h, w, ch := imageToPixels(img)
	return p, h, w, ch, nil
}

func (jpegCodec) DecodeInto(data []byte, alloc func(int) []byte) ([]byte, int, int, int, error) {
	img, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	p, h, w, ch := imageToPixelsInto(img, alloc)
	return p, h, w, ch, nil
}

// pngCodec is the lossless image sample codec (stdlib image/png).
type pngCodec struct{}

func (pngCodec) Name() string { return "png" }

func (pngCodec) Encode(pixels []byte, height, width, channels int) ([]byte, error) {
	img, err := pixelsToImage(pixels, height, width, channels)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (pngCodec) Decode(data []byte) ([]byte, int, int, int, error) {
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	p, h, w, ch := imageToPixels(img)
	return p, h, w, ch, nil
}

func (pngCodec) DecodeInto(data []byte, alloc func(int) []byte) ([]byte, int, int, int, error) {
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	p, h, w, ch := imageToPixelsInto(img, alloc)
	return p, h, w, ch, nil
}

func init() {
	RegisterSample(jpegCodec{quality: 91})
	RegisterSample(pngCodec{})
}
