package compress

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// refFrameDiffReader is the straightforward per-byte integration of the
// XOR prediction: byte i >= frameBytes is XORed with output byte
// i-frameBytes, found by taking the output position modulo frameBytes.
type refFrameDiffReader struct {
	inner      *rleReader
	frameBytes int
	hist       []byte
	produced   int
}

func (r *refFrameDiffReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	for i := 0; i < n; i++ {
		b := p[i]
		if r.produced >= r.frameBytes {
			b ^= r.hist[r.produced%r.frameBytes]
		}
		p[i] = b
		if len(r.hist) < r.frameBytes {
			r.hist = append(r.hist, b)
		} else {
			r.hist[r.produced%r.frameBytes] = b
		}
		r.produced++
	}
	return n, err
}

func (r *refFrameDiffReader) InputConsumed() int { return 2 + r.inner.InputConsumed() }

func TestFrameDiffReaderMatchesReference(t *testing.T) {
	c, err := New("framediff", testFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range corpus() {
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := c.Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, data) {
			t.Fatalf("%s: Decompress does not round-trip", name)
		}
		for win := 1; win <= 2*testFrameBytes+3; win++ {
			r, err := c.NewReader(comp)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refFrameDiffReader{inner: &rleReader{comp: comp[2:]}, frameBytes: testFrameBytes}
			got := make([]byte, win)
			want := make([]byte, win)
			var out []byte
			for {
				n, err := r.Read(got)
				rn, rerr := ref.Read(want)
				if n != rn || !errors.Is(err, rerr) || !bytes.Equal(got[:n], want[:rn]) {
					t.Fatalf("%s window %d: read (%d, %v) differs from reference (%d, %v)", name, win, n, err, rn, rerr)
				}
				if ic := r.(InputReporter).InputConsumed(); ic != ref.InputConsumed() {
					t.Fatalf("%s window %d: InputConsumed %d, reference %d", name, win, ic, ref.InputConsumed())
				}
				out = append(out, got[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s window %d: %v", name, win, err)
				}
			}
			if !bytes.Equal(out, whole) {
				t.Fatalf("%s window %d: windowed output differs from Decompress", name, win)
			}
		}
	}
}
