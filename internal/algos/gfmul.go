package algos

import "sync"

// GF(2⁸) multiplier over the AES polynomial. Input blocks are (a, b) byte
// pairs; each output byte is a·b in the field. Finite-field multipliers
// are tiny in LUTs and unbeatably parallel in fabric — the extreme end of
// the offload spectrum.

var (
	gfOnce sync.Once
	// gfLog and gfExp are discrete log and antilog tables of GF(2⁸) over
	// 0x11B with generator 0x03. gfExp is doubled so a sum of two logs
	// indexes it without reduction mod 255.
	gfLog [256]byte
	gfExp [510]byte
)

func gfInit() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i], gfExp[i+255] = x, x
		gfLog[x] = byte(i)
		x = gfMulByte(x, 3)
	}
}

// gfMulTable is a·b by log/antilog lookup; gfOnce must have run.
func gfMulTable(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfmulRun(in []byte) []byte {
	gfOnce.Do(gfInit)
	out := make([]byte, len(in)/2)
	for i := 0; i+1 < len(in); i += 2 {
		out[i/2] = gfMulTable(in[i], in[i+1])
	}
	return out
}

var gfmulFn = &Function{
	id:          IDGFMul,
	name:        "gfmul8",
	LUTs:        150, // four parallel combinational multipliers
	InBus:       8,
	OutBus:      4,
	BlockBytes:  8, // four pairs
	outPerBlock: 4,
	hwSetup:     2,
	hwPerBlock:  1, // four products per cycle
	swSetup:     40,
	swPerByte:   4, // shift-and-xor loop per pair
	run:         gfmulRun,
}

// GFMul is the GF(2⁸) pairwise multiplier core.
func GFMul() *Function { return gfmulFn }
