package algos

import "encoding/binary"

// Triple DES (EDE with three independent keys), built on the single-DES
// round machinery in des.go. 3DES is the workload the paper's era
// actually offloaded: ~3× the software cost of DES while a pipelined
// hardware ladder barely notices the extra passes.

var tdesKeys = [3][8]byte{
	{'T', 'D', 'E', 'S', '-', 'K', '1', '!'},
	{'T', 'D', 'E', 'S', '-', 'K', '2', '!'},
	{'T', 'D', 'E', 'S', '-', 'K', '3', '!'},
}

// tdesSubkeys[i] is the 16-subkey schedule of key i.
var tdesSubkeys [3][16]uint64

var tdesInitDone = func() bool {
	for i, key := range tdesKeys {
		tdesSubkeys[i] = desKeySchedule(binary.BigEndian.Uint64(key[:]))
	}
	return true
}()

// desKeySchedule derives the 16 round subkeys of a 64-bit key.
func desKeySchedule(key uint64) [16]uint64 {
	var sub [16]uint64
	cd := permute(key, 64, desPC1[:])
	c := uint32(cd>>28) & 0x0FFFFFFF
	d := uint32(cd) & 0x0FFFFFFF
	rot28 := func(v uint32, n byte) uint32 { return (v<<n | v>>(28-byte(n))) & 0x0FFFFFFF }
	for i := 0; i < 16; i++ {
		c = rot28(c, desShifts[i])
		d = rot28(d, desShifts[i])
		sub[i] = permute(uint64(c)<<28|uint64(d), 56, desPC2[:])
	}
	return sub
}

func tdesEncryptBlock(dst, src []byte) {
	v := binary.BigEndian.Uint64(src)
	v = desRounds(v, &tdesSubkeys[0], false) // E with K1
	v = desRounds(v, &tdesSubkeys[1], true)  // D with K2
	v = desRounds(v, &tdesSubkeys[2], false) // E with K3
	binary.BigEndian.PutUint64(dst, v)
}

var tdesFn = &Function{
	id:          IDTDES,
	name:        "tdes",
	LUTs:        3600, // three chained 16-stage pipelines
	InBus:       8,
	OutBus:      8,
	BlockBytes:  8,
	outPerBlock: 8,
	hwSetup:     52, // 48-stage pipeline fill
	hwPerBlock:  1,  // fully pipelined: one block per cycle
	swSetup:     400,
	swPerByte:   170, // three DES passes plus gluing
	run: func(in []byte) []byte {
		desOnce.Do(desInit)
		out := make([]byte, len(in))
		for i := 0; i < len(in); i += 8 {
			tdesEncryptBlock(out[i:], in[i:])
		}
		return out
	},
}

// TDES is the 3DES (EDE3) ECB encryption core.
func TDES() *Function { return tdesFn }
