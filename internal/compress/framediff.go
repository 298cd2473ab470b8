package compress

import (
	"encoding/binary"
	"io"
)

// frameDiffCodec is the paper's §4 open problem made concrete: it exploits
// the symmetry between configuration frames. Each byte at offset i >=
// frameBytes is XORed with the byte one frame earlier; frames that repeat
// the previous frame's CLB patterns (the common case inside one function's
// column span) collapse to zero runs, which the inner RLE stage then
// crushes. The first frame passes through unchanged.
//
// Stream layout: uint16 LE frame size, then an RLE stream of the
// differenced bytes.
type frameDiffCodec struct {
	frameBytes int
}

func (frameDiffCodec) Name() string           { return "framediff" }
func (frameDiffCodec) CyclesPerByte() float64 { return 1.25 }

func (c frameDiffCodec) Compress(src []byte) ([]byte, error) {
	diff := make([]byte, len(src))
	for i := range src {
		if i >= c.frameBytes {
			diff[i] = src[i] ^ src[i-c.frameBytes]
		} else {
			diff[i] = src[i]
		}
	}
	inner, err := rleCodec{}.Compress(diff)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 2, 2+len(inner))
	binary.LittleEndian.PutUint16(out, uint16(c.frameBytes))
	return append(out, inner...), nil
}

func (c frameDiffCodec) Decompress(comp []byte) ([]byte, error) {
	return decompressAll(c, comp)
}

func (c frameDiffCodec) NewReader(comp []byte) (io.Reader, error) {
	if len(comp) < 2 {
		return nil, ErrCorrupt
	}
	fb := int(binary.LittleEndian.Uint16(comp))
	if fb != c.frameBytes {
		return nil, ErrCorrupt
	}
	inner, err := rleCodec{}.NewReader(comp[2:])
	if err != nil {
		return nil, err
	}
	return &frameDiffReader{inner: inner, hist: make([]byte, fb)}, nil
}

// frameDiffReader integrates the XOR prediction incrementally, keeping one
// frame of history.
type frameDiffReader struct {
	inner  io.Reader
	hist   []byte // the last frame of output, as a ring
	pos    int    // ring index of the byte one frame before the next
	primed bool   // a whole frame has been produced; XOR from now on
}

// InputConsumed reports the frame-size header plus whatever the inner
// RLE reader has consumed.
func (r *frameDiffReader) InputConsumed() int {
	if ir, ok := r.inner.(InputReporter); ok {
		return 2 + ir.InputConsumed()
	}
	return 2
}

func (r *frameDiffReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	// Walk the output in runs that end at the ring's wrap point.
	for out := p[:n]; len(out) > 0; {
		prev := r.hist[r.pos:min(len(r.hist), r.pos+len(out))]
		if r.primed {
			for i := range prev {
				out[i] ^= prev[i]
				prev[i] = out[i]
			}
		} else {
			copy(prev, out) // the first frame passes through unchanged
		}
		out = out[len(prev):]
		if r.pos += len(prev); r.pos == len(r.hist) {
			r.pos, r.primed = 0, true
		}
	}
	return n, err
}
