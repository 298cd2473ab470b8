package algos

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// DES ECB encryption from the FIPS-46 tables, with a fixed key baked into
// the core's bitstream (see the aes128 comment). DES remains the classic
// FPGA crypto demonstrator — its permutations are free in routing.

var desKey = [8]byte{'D', 'E', 'S', '-', 'K', 'E', 'Y', '!'}

// Initial permutation.
var desIP = [64]byte{
	58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
	62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
	57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
	61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
}

// Final permutation (inverse of IP).
var desFP = [64]byte{
	40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
	38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
	36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
	34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
}

// Expansion of the 32-bit half to 48 bits. desRounds applies it as
// rotations of the half; the tests check those against this table.
var desE = [48]byte{
	32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
	8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
	16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
	24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
}

// P permutation after the S-boxes.
var desP = [32]byte{
	16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
	2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
}

// The eight S-boxes.
var desS = [8][64]byte{
	{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
		0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
		4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
		15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13},
	{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
		3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
		0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
		13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9},
	{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
		13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
		13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
		1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12},
	{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
		13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
		10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
		3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14},
	{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
		14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
		4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
		11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3},
	{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
		10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
		9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
		4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13},
	{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
		13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
		1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
		6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12},
	{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
		1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
		7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
		2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11},
}

// Key schedule tables.
var desPC1 = [56]byte{
	57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
	10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
	63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
	14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
}

var desPC2 = [48]byte{
	14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
	23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
	41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
	44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
}

var desShifts = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

// permute applies a 1-based bit-selection table to a big-endian bit
// vector of width srcBits, producing len(table) output bits.
func permute(src uint64, srcBits uint, table []byte) uint64 {
	var out uint64
	for _, pos := range table {
		out <<= 1
		out |= (src >> (srcBits - uint(pos))) & 1
	}
	return out
}

var desSubkeys = desKeySchedule(binary.BigEndian.Uint64(desKey[:]))

var (
	desOnce sync.Once
	// desSP[i][six] is S-box i applied to the six bits it sees (row from
	// the outer bits, column from the inner four), moved to its output
	// nibble and passed through P: f(R, K) is the XOR of eight lookups.
	desSP [8][64]uint32
	// desIPT[j][b] and desFPT[j][b] are IP and FP applied to a block whose
	// only non-zero byte, byte j from the most significant, is b.
	desIPT, desFPT [8][256]uint64
)

// desInit derives the round and permutation tables from the FIPS-46
// tables above.
func desInit() {
	for i := range desSP {
		for six := 0; six < 64; six++ {
			row := (six&0x20)>>4 | six&1
			col := (six >> 1) & 0x0F
			nib := uint64(desS[i][row*16+col]) << (28 - 4*uint(i))
			desSP[i][six] = uint32(permute(nib, 32, desP[:]))
		}
	}
	for j := 0; j < 8; j++ {
		for b := 0; b < 256; b++ {
			v := uint64(b) << (56 - 8*uint(j))
			desIPT[j][b] = permute(v, 64, desIP[:])
			desFPT[j][b] = permute(v, 64, desFP[:])
		}
	}
}

// desPermute applies a per-byte permutation table to a 64-bit block.
func desPermute(t *[8][256]uint64, v uint64) uint64 {
	return t[0][v>>56] ^ t[1][v>>48&0xFF] ^ t[2][v>>40&0xFF] ^ t[3][v>>32&0xFF] ^
		t[4][v>>24&0xFF] ^ t[5][v>>16&0xFF] ^ t[6][v>>8&0xFF] ^ t[7][v&0xFF]
}

// desRounds runs the 16 Feistel rounds with the given schedule; decrypt
// reverses the subkey order. E needs no table: the i-th six-bit group of
// E(R) is R rotated left by 4i+5 (mod 32), masked to six bits.
func desRounds(block uint64, sub *[16]uint64, decrypt bool) uint64 {
	v := desPermute(&desIPT, block)
	l, r := uint32(v>>32), uint32(v)
	for n := 0; n < 16; n++ {
		k := sub[n]
		if decrypt {
			k = sub[15-n]
		}
		f := desSP[0][(bits.RotateLeft32(r, 5)^uint32(k>>42))&0x3F] ^
			desSP[1][(bits.RotateLeft32(r, 9)^uint32(k>>36))&0x3F] ^
			desSP[2][(bits.RotateLeft32(r, 13)^uint32(k>>30))&0x3F] ^
			desSP[3][(bits.RotateLeft32(r, 17)^uint32(k>>24))&0x3F] ^
			desSP[4][(bits.RotateLeft32(r, 21)^uint32(k>>18))&0x3F] ^
			desSP[5][(bits.RotateLeft32(r, 25)^uint32(k>>12))&0x3F] ^
			desSP[6][(bits.RotateLeft32(r, 29)^uint32(k>>6))&0x3F] ^
			desSP[7][(bits.RotateLeft32(r, 1)^uint32(k))&0x3F]
		l, r = r, l^f
	}
	return desPermute(&desFPT, uint64(r)<<32|uint64(l))
}

func desEncryptBlock(dst, src []byte) {
	out := desRounds(binary.BigEndian.Uint64(src), &desSubkeys, false)
	binary.BigEndian.PutUint64(dst, out)
}

var desFn = &Function{
	id:          IDDES,
	name:        "des",
	LUTs:        1400, // round function + key schedule; permutations are routing
	InBus:       8,
	OutBus:      8,
	BlockBytes:  8,
	outPerBlock: 8,
	hwSetup:     20, // 16-stage pipeline fill
	hwPerBlock:  1,  // fully pipelined Feistel ladder: one block per cycle
	swSetup:     300,
	swPerByte:   60, // bit-twiddling software DES is slow on scalar hosts
	run: func(in []byte) []byte {
		desOnce.Do(desInit)
		out := make([]byte, len(in))
		for i := 0; i < len(in); i += 8 {
			desEncryptBlock(out[i:], in[i:])
		}
		return out
	},
}

// DES is the single-DES ECB encryption core.
func DES() *Function { return desFn }
