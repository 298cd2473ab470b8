package algos

// The table-driven cipher and field models against their bit-serial
// definitions and against the Go standard library over many blocks.

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"math/bits"
	"math/rand/v2"
	"testing"
)

func TestGFMulTableMatchesBitSerial(t *testing.T) {
	gfOnce.Do(gfInit)
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMulTable(byte(a), byte(b)), gfMulByte(byte(a), byte(b)); got != want {
				t.Fatalf("%#02x·%#02x: table %#02x, bit-serial %#02x", a, b, got, want)
			}
		}
	}
}

func TestCipherTablesMatchDefinitions(t *testing.T) {
	aesOnce.Do(aesInit)
	desOnce.Do(desInit)
	for x := 0; x < 256; x++ {
		// MixColumns row r is the circulant (2, 3, 1, 1) rotated right by
		// r, so an input in row k picks up coefficient mix[(k-r+4)%4].
		mix := [4]byte{2, 3, 1, 1}
		for k := 0; k < 4; k++ {
			var want uint32
			for r := 0; r < 4; r++ {
				want |= uint32(gfMulByte(aesSbox[x], mix[(k-r+4)%4])) << (24 - 8*r)
			}
			if aesTe[k][x] != want {
				t.Fatalf("aesTe[%d][%#02x] = %#08x, want %#08x", k, x, aesTe[k][x], want)
			}
		}
	}
	for i := 0; i < 8; i++ {
		for six := 0; six < 64; six++ {
			row, col := six>>4&2|six&1, six>>1&0xF
			s := uint64(desS[i][16*row+col]) << (28 - 4*i)
			if want := uint32(permute(s, 32, desP[:])); desSP[i][six] != want {
				t.Fatalf("desSP[%d][%d] = %#08x, want %#08x", i, six, desSP[i][six], want)
			}
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 1000; n++ {
		v := rng.Uint64()
		if got, want := desPermute(&desIPT, v), permute(v, 64, desIP[:]); got != want {
			t.Fatalf("IP(%#016x) = %#016x, want %#016x", v, got, want)
		}
		if got, want := desPermute(&desFPT, v), permute(v, 64, desFP[:]); got != want {
			t.Fatalf("FP(%#016x) = %#016x, want %#016x", v, got, want)
		}
		// desRounds reads E(R) as eight rotations of R.
		r := uint32(v)
		e := permute(uint64(r), 32, desE[:])
		for i := 0; i < 8; i++ {
			if got, want := bits.RotateLeft32(r, 4*i+5)&0x3F, uint32(e>>(42-6*i))&0x3F; got != want {
				t.Fatalf("E(%#08x) group %d: rotation %#x, table %#x", r, i, got, want)
			}
		}
	}
}

// TestCiphersMatchStdlibMultiBlock runs each cipher over a 4 KiB random
// buffer and over an odd length that Exec zero-pads, against the
// standard library in ECB mode.
func TestCiphersMatchStdlibMultiBlock(t *testing.T) {
	aesBlock, err := aes.NewCipher(aesKey[:])
	if err != nil {
		t.Fatal(err)
	}
	desBlock, err := des.NewCipher(desKey[:])
	if err != nil {
		t.Fatal(err)
	}
	tdesBlock, err := des.NewTripleDESCipher(bytes.Join([][]byte{tdesKeys[0][:], tdesKeys[1][:], tdesKeys[2][:]}, nil))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for _, c := range []struct {
		f     *Function
		block cipher.Block
	}{{AES128(), aesBlock}, {DES(), desBlock}, {TDES(), tdesBlock}} {
		for _, n := range []int{4096, 1001} {
			in := make([]byte, n)
			for i := range in {
				in[i] = byte(rng.Uint32())
			}
			got, err := c.f.Exec(in)
			if err != nil {
				t.Fatal(err)
			}
			bs := c.block.BlockSize()
			want := make([]byte, (n+bs-1)/bs*bs)
			copy(want, in)
			for i := 0; i < len(want); i += bs {
				c.block.Encrypt(want[i:], want[i:])
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s over %d bytes differs from the standard library", c.f.Name(), n)
			}
		}
	}
}
