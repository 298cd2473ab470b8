package fpga

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// crcReference is the definition CRCUpdate must match: IEEE CRC-32 over
// the register id byte followed by the big-endian word.
func crcReference(crc uint32, reg int, w uint32) uint32 {
	var m [5]byte
	m[0] = byte(reg)
	binary.BigEndian.PutUint32(m[1:], w)
	return crc32.Update(crc, crc32.IEEETable, m[:])
}

func TestCRCUpdateMatchesCRC32(t *testing.T) {
	edges := []uint32{0, 0xFFFFFFFF, SyncWord}
	for _, crc := range edges {
		for reg := 0; reg < 256; reg++ {
			for _, w := range edges {
				if got, want := CRCUpdate(crc, reg, w), crcReference(crc, reg, w); got != want {
					t.Fatalf("CRCUpdate(%08x, %d, %08x) = %08x, want %08x", crc, reg, w, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		crc, reg, w := rng.Uint32(), rng.Intn(256), rng.Uint32()
		if got, want := CRCUpdate(crc, reg, w), crcReference(crc, reg, w); got != want {
			t.Fatalf("CRCUpdate(%08x, %d, %08x) = %08x, want %08x", crc, reg, w, got, want)
		}
	}
}

func TestCRCUpdateAllocatesNothing(t *testing.T) {
	var crc uint32
	if n := testing.AllocsPerRun(100, func() { crc = CRCUpdate(crc, RegFDRI, 0x01234567) }); n != 0 {
		t.Errorf("CRCUpdate allocates %v times per call", n)
	}
}

// portOutcome is everything a load leaves behind that the byte chunking
// of its stream must not change.
type portOutcome struct {
	frames   [][]byte
	gens     []uint64
	cycles   uint64
	written  uint64
	firstErr error
}

// feedChunked writes stream into a fresh fabric of geometry g in chunks
// of size chunk (0 = one write).
func feedChunked(t *testing.T, g Geometry, stream []byte, chunk int) portOutcome {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register(echoCore{7, "echo"}); err != nil {
		t.Fatal(err)
	}
	f := NewFabric(g, reg)
	var out portOutcome
	if chunk == 0 {
		chunk = len(stream)
	}
	for rest := stream; len(rest) > 0; {
		n := min(chunk, len(rest))
		if _, err := f.Port().Write(rest[:n]); err != nil && out.firstErr == nil {
			out.firstErr = err
		}
		rest = rest[n:]
	}
	for i := 0; i < g.NumFrames(); i++ {
		fr, err := f.ReadFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		out.frames = append(out.frames, fr)
		out.gens = append(out.gens, f.Generation(i))
	}
	out.cycles = f.Port().Cycles()
	out.written = f.Port().FramesWritten
	return out
}

// equivStream is a three-frame load of geometry g. idcode and crcFlip
// let a case break the IDCODE check or the final CRC check.
func equivStream(g Geometry, idcode, crcFlip uint32) []byte {
	var s wordStream
	s.raw(DummyWord)
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, idcode)
	s.reg(RegFLR, uint32(g.FrameWords()))
	s.reg(RegCMD, CmdWCFG)
	for n, far := range []int{1, 4, 5} {
		s.reg(RegFAR, uint32(far))
		s.reg(RegFDRI, frameImage(g, Signature{FnID: 7, Index: uint16(n), Total: 3, Serial: 2}, 0x31*byte(n+1))...)
	}
	s.reg(RegCMD, CmdLFRM)
	s.reg(RegCRC, s.crc^crcFlip)
	s.reg(RegCMD, CmdDESYNC)
	return s.bytes()
}

func TestPortWriteChunkingEquivalence(t *testing.T) {
	// Rows 4 gives word-aligned 84-byte frames; Rows 3 gives 63-byte
	// frames whose final FDRI word carries a pad byte.
	for _, g := range []Geometry{{Rows: 4, Cols: 8}, {Rows: 3, Cols: 8}} {
		id := NewFabric(g, NewRegistry()).IDCode()
		cases := []struct {
			name   string
			stream []byte
			want   error
		}{
			{"clean", equivStream(g, id, 0), nil},
			{"bad CRC", equivStream(g, id, 0x10), ErrCRC},
			{"bad IDCODE", equivStream(g, id^1, 0), ErrIDCODE},
		}
		for _, c := range cases {
			whole := feedChunked(t, g, c.stream, 0)
			if !errors.Is(whole.firstErr, c.want) || (c.want == nil) != (whole.firstErr == nil) {
				t.Fatalf("%v %s: err = %v, want %v", g, c.name, whole.firstErr, c.want)
			}
			for chunk := 1; chunk <= 9; chunk++ {
				got := feedChunked(t, g, c.stream, chunk)
				if got.cycles != whole.cycles || got.written != whole.written {
					t.Errorf("%v %s chunk %d: cycles %d frames %d, want %d and %d",
						g, c.name, chunk, got.cycles, got.written, whole.cycles, whole.written)
				}
				if (got.firstErr == nil) != (whole.firstErr == nil) ||
					(got.firstErr != nil && got.firstErr.Error() != whole.firstErr.Error()) {
					t.Errorf("%v %s chunk %d: first error %v, want %v", g, c.name, chunk, got.firstErr, whole.firstErr)
				}
				for i := range whole.frames {
					if !bytes.Equal(got.frames[i], whole.frames[i]) || got.gens[i] != whole.gens[i] {
						t.Errorf("%v %s chunk %d: frame %d differs", g, c.name, chunk, i)
					}
				}
			}
		}
	}
}

func TestPortReusableAfterFaultAndReset(t *testing.T) {
	// Reset keeps the port's staging buffers; nothing of an abandoned or
	// faulted session may leak into the next one through them.
	g := Geometry{Rows: 3, Cols: 8}
	f := NewFabric(g, NewRegistry())
	good := equivStream(g, f.IDCode(), 0)
	// An abandoned load: frames written, a frame half staged, no CRC check.
	if _, err := f.Port().Write(good[:len(good)*3/4]); err != nil {
		t.Fatal(err)
	}
	f.Port().Reset()
	if _, ok := f.FrameSignature(1); !ok {
		t.Fatal("abandoned load did not write frame 1")
	}
	// A faulted session invalidates only the frames it wrote itself. This
	// one faults before any RCRC, which would also clear the list.
	var bad wordStream
	bad.raw(SyncWord)
	bad.reg(RegIDCODE, f.IDCode()^1)
	if _, err := f.Port().Write(bad.bytes()); !errors.Is(err, ErrIDCODE) {
		t.Fatalf("err = %v, want ErrIDCODE", err)
	}
	if _, ok := f.FrameSignature(1); !ok {
		t.Error("a fault after Reset invalidated a frame of the earlier session")
	}
	f.Port().Reset()
	f.Port().TakeCycles()
	if _, err := f.Port().Write(good); err != nil {
		t.Fatal(err)
	}
	fresh := feedChunked(t, g, good, 0)
	for i := 0; i < g.NumFrames(); i++ {
		fr, _ := f.ReadFrame(i)
		if !bytes.Equal(fr, fresh.frames[i]) {
			t.Errorf("frame %d differs from a load on a fresh port", i)
		}
	}
	if f.Port().Cycles() != fresh.cycles {
		t.Errorf("cycles = %d, want %d", f.Port().Cycles(), fresh.cycles)
	}
}
