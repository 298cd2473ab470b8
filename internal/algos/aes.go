package algos

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// AES-128 ECB encryption, implemented from first principles (the S-box is
// derived from the GF(2⁸) inverse plus affine transform at init time
// rather than typed in). The cipher key is fixed — on the real
// co-processor it is baked into the configuration bitstream, which is
// precisely what makes an algorithm-agile card attractive for key-fixed
// appliance duty (cf. the paper's reference [2], an IPSec engine).

// aesKey is the key embedded in the aes128 core's bitstream.
var aesKey = [16]byte{'A', 'G', 'I', 'L', 'E', '-', 'A', 'E', 'S', '-', 'K', 'E', 'Y', '-', '1', '6'}

var (
	aesOnce sync.Once
	aesSbox [256]byte
	// aesRK holds the 11 round keys as 44 big-endian column words.
	aesRK [44]uint32
	// aesTe[k][x] is the MixColumns output for a column holding s = S(x)
	// in row k and zero elsewhere, so one lookup per state byte does
	// SubBytes and MixColumns at once. aesTe[0][x] is (2s, s, s, 3s).
	aesTe [4][256]uint32
)

// gfMulByte multiplies two GF(2⁸) elements modulo the AES polynomial.
func gfMulByte(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1B
		}
		b >>= 1
	}
	return p
}

// gfInv is the multiplicative inverse in GF(2⁸) (0 maps to 0), by
// exhaustion — it runs once.
func gfInv(a byte) byte {
	if a == 0 {
		return 0
	}
	for b := 1; b < 256; b++ {
		if gfMulByte(a, byte(b)) == 1 {
			return byte(b)
		}
	}
	panic("algos: GF(2^8) inverse not found")
}

func aesInit() {
	// S-box: affine transform of the field inverse.
	for i := 0; i < 256; i++ {
		x := gfInv(byte(i))
		aesSbox[i] = x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
	}
	// Key expansion (FIPS-197 §5.2) into 11 round keys.
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], aesKey[4*i:4*i+4])
	}
	rcon := byte(1)
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			t[0], t[1], t[2], t[3] = aesSbox[t[1]]^rcon, aesSbox[t[2]], aesSbox[t[3]], aesSbox[t[0]]
			rcon = gfMulByte(rcon, 2)
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-4][j] ^ t[j]
		}
	}
	for i := range aesRK {
		aesRK[i] = binary.BigEndian.Uint32(w[i][:])
	}
	// Round tables, derived from the S-box and the field multiply.
	for x := 0; x < 256; x++ {
		s := aesSbox[x]
		t := uint32(gfMulByte(s, 2))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(gfMulByte(s, 3))
		for k := range aesTe {
			aesTe[k][x] = bits.RotateLeft32(t, -8*k)
		}
	}
}

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }

// aesEncryptBlock encrypts one 16-byte block. The state is four
// big-endian column words; each of the nine full rounds is sixteen
// table lookups (SubBytes, ShiftRows and MixColumns fused) plus the
// round key, and the last round, which has no MixColumns, uses the
// S-box directly.
func aesEncryptBlock(dst, src []byte) {
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ aesRK[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ aesRK[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ aesRK[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ aesRK[3]
	te0, te1, te2, te3 := &aesTe[0], &aesTe[1], &aesTe[2], &aesTe[3]
	for k := 4; k < 40; k += 4 {
		t0 := te0[s0>>24] ^ te1[s1>>16&0xFF] ^ te2[s2>>8&0xFF] ^ te3[s3&0xFF] ^ aesRK[k]
		t1 := te0[s1>>24] ^ te1[s2>>16&0xFF] ^ te2[s3>>8&0xFF] ^ te3[s0&0xFF] ^ aesRK[k+1]
		t2 := te0[s2>>24] ^ te1[s3>>16&0xFF] ^ te2[s0>>8&0xFF] ^ te3[s1&0xFF] ^ aesRK[k+2]
		t3 := te0[s3>>24] ^ te1[s0>>16&0xFF] ^ te2[s1>>8&0xFF] ^ te3[s2&0xFF] ^ aesRK[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	binary.BigEndian.PutUint32(dst[0:4], aesLast(s0, s1, s2, s3)^aesRK[40])
	binary.BigEndian.PutUint32(dst[4:8], aesLast(s1, s2, s3, s0)^aesRK[41])
	binary.BigEndian.PutUint32(dst[8:12], aesLast(s2, s3, s0, s1)^aesRK[42])
	binary.BigEndian.PutUint32(dst[12:16], aesLast(s3, s0, s1, s2)^aesRK[43])
}

// aesLast is one output column of the final round: SubBytes over the
// ShiftRows diagonal that starts in column a.
func aesLast(a, b, c, d uint32) uint32 {
	return uint32(aesSbox[a>>24])<<24 | uint32(aesSbox[b>>16&0xFF])<<16 |
		uint32(aesSbox[c>>8&0xFF])<<8 | uint32(aesSbox[d&0xFF])
}

var aesFn = &Function{
	id:          IDAES128,
	name:        "aes128",
	LUTs:        2200, // iterative round datapath + key schedule storage
	InBus:       16,
	OutBus:      16,
	BlockBytes:  16,
	outPerBlock: 16,
	hwSetup:     16, // pipeline fill
	hwPerBlock:  3,  // four round units in parallel: a block every 3 cycles
	swSetup:     400,
	swPerByte:   30, // table-based software AES on a scalar host
	run: func(in []byte) []byte {
		aesOnce.Do(aesInit)
		out := make([]byte, len(in))
		for i := 0; i < len(in); i += 16 {
			aesEncryptBlock(out[i:], in[i:])
		}
		return out
	},
}

// AES128 is the AES-128 ECB encryption core.
func AES128() *Function { return aesFn }
