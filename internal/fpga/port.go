package fpga

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// Bitstream wire format. Words travel big-endian through the byte-wide
// configuration port, as on SelectMAP. The format mirrors the Virtex-II
// packet scheme closely enough that every control path the paper relies on
// (device check, frame addressing, partial loads, CRC protection) exists.
const (
	// SyncWord marks the start of packet processing.
	SyncWord = 0xAA995566
	// DummyWord is the pad word accepted before sync.
	DummyWord = 0xFFFFFFFF
)

// Configuration registers addressed by type-1 packets.
const (
	RegCRC    = 0 // write: compare against running CRC, then reset it
	RegFAR    = 1 // frame address register
	RegFDRI   = 2 // frame data input; word count = payload length
	RegCMD    = 3 // command register
	RegCTL    = 4 // control (accepted, ignored)
	RegMASK   = 5 // control mask (accepted, ignored)
	RegSTAT   = 6 // status (read-only; writes are an error)
	RegCOR    = 7 // configuration options (accepted, ignored)
	RegIDCODE = 8 // device identity check; must precede FDRI
	RegFLR    = 9 // frame length register, in words; must match geometry
	numRegs   = 10
)

// Command-register values.
const (
	CmdNull   = 0
	CmdWCFG   = 1  // enable configuration writes
	CmdLFRM   = 3  // last frame: close the write session
	CmdRCRC   = 7  // reset the running CRC
	CmdDESYNC = 13 // leave packet mode; a new SyncWord is required
)

// MakeType1 builds a type-1 packet header for op (OpWrite/OpNop) on
// register reg with a payload of count words. Count must fit in 11 bits.
func MakeType1(op, reg, count int) uint32 {
	return 1<<29 | uint32(op&3)<<27 | uint32(reg&0x1F)<<13 | uint32(count&0x7FF)
}

// Packet header opcodes.
const (
	OpNop   = 0
	OpRead  = 1
	OpWrite = 2
)

// parseType1 splits a packet header word.
func parseType1(w uint32) (typ, op, reg, count int) {
	return int(w >> 29), int(w >> 27 & 3), int(w >> 13 & 0x1F), int(w & 0x7FF)
}

// Configuration port errors.
var (
	ErrNotSynced    = errors.New("fpga: configuration port not synchronised")
	ErrBadPacket    = errors.New("fpga: malformed configuration packet")
	ErrIDCODE       = errors.New("fpga: bitstream IDCODE does not match device")
	ErrFrameLength  = errors.New("fpga: bitstream frame length does not match device")
	ErrCRC          = errors.New("fpga: configuration CRC mismatch")
	ErrNoWCFG       = errors.New("fpga: frame data received outside a WCFG session")
	ErrNoIDCheck    = errors.New("fpga: frame data received before IDCODE check")
	ErrFrameAddress = errors.New("fpga: frame address out of range")
	ErrPortFault    = errors.New("fpga: configuration port in error state")
)

// port FSM states.
const (
	stUnsynced = iota
	stHeader   // expecting a packet header
	stData     // consuming FDRI payload words
)

// ConfigPort is the byte-wide configuration interface of the fabric. It
// implements io.Writer; callers stream bitstream bytes (for example the
// mini-OS configuration module, window by window) and the port parses
// packets, performs register writes, and commits frame data into the
// fabric's configuration memory.
//
// Timing: each byte costs one cycle of the configuration clock domain;
// cycle counts accumulate in Cycles and are harvested by the caller.
type ConfigPort struct {
	fab *Fabric

	state   int
	wordBuf [4]byte
	wordLen int

	// packet consumption
	dataReg   int // register receiving payload words
	dataLeft  int // payload words still expected
	wcfg      bool
	idChecked bool
	far       int    // current frame address
	frameOff  int    // byte offset within the frame being filled
	frame     []byte // staging for the frame at far

	crc     uint32
	touched []int // frames written since last RCRC, for corruption marking

	fault  error
	cycles uint64

	// FramesWritten counts frames committed to configuration memory over
	// the port's lifetime.
	FramesWritten uint64
}

// Err reports the sticky port fault, if any.
func (p *ConfigPort) Err() error { return p.fault }

// Cycles reports configuration-clock cycles consumed since the last
// TakeCycles call.
func (p *ConfigPort) Cycles() uint64 { return p.cycles }

// TakeCycles returns the accumulated cycle count and resets it.
func (p *ConfigPort) TakeCycles() uint64 {
	c := p.cycles
	p.cycles = 0
	return c
}

// Reset clears the port FSM and any sticky fault. Configuration memory is
// left as-is (matching a PROG_B-less resync rather than a full reset).
func (p *ConfigPort) Reset() {
	p.state = stUnsynced
	p.wordLen = 0
	p.dataLeft = 0
	p.wcfg = false
	p.idChecked = false
	p.frameOff = 0
	p.crc = 0
	p.touched = p.touched[:0] // keep the capacity across loads
	p.fault = nil
}

// Write streams bitstream bytes into the port. It always consumes all of
// data (charging one configuration cycle per byte, as a real byte-wide
// port would clock them in) and reports the first fault encountered, which
// is also kept sticky: a faulted port ignores further data until Reset.
// Whole words are decoded straight from data; only a word split across
// calls goes through the staging buffer.
func (p *ConfigPort) Write(data []byte) (int, error) {
	n := len(data)
	p.cycles += uint64(n)
	if p.fault != nil {
		return n, p.fault
	}
	for len(data) > 0 {
		var w uint32
		if p.wordLen == 0 && len(data) >= 4 {
			w, data = binary.BigEndian.Uint32(data), data[4:]
		} else {
			k := copy(p.wordBuf[p.wordLen:], data)
			p.wordLen, data = p.wordLen+k, data[k:]
			if p.wordLen < 4 {
				break
			}
			p.wordLen = 0
			w = binary.BigEndian.Uint32(p.wordBuf[:])
		}
		if err := p.word(w); err != nil {
			p.fail(err)
			return n, err
		}
	}
	return n, nil
}

// WriteWord feeds one 32-bit word directly (used by tests).
func (p *ConfigPort) WriteWord(w uint32) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], w)
	_, err := p.Write(b[:])
	return err
}

// fail records a sticky fault and corrupts the signature of every frame
// touched in the failed session, so a half-applied configuration can never
// be activated.
func (p *ConfigPort) fail(err error) {
	p.fault = err
	for _, fi := range p.touched {
		f := p.fab.cfg[fi]
		if len(f) >= SigBytes {
			f[sigOffCRC] ^= 0xFF // invalidate the signature CRC
		}
	}
	p.touched = p.touched[:0]
}

func (p *ConfigPort) word(w uint32) error {
	switch p.state {
	case stUnsynced:
		if w == SyncWord {
			p.state = stHeader
		}
		// Anything else before sync is scanned past, like real hardware.
		return nil

	case stData:
		return p.dataWord(w)

	case stHeader:
		typ, op, reg, count := parseType1(w)
		if w == DummyWord || (typ == 0 && op == OpNop) {
			return nil // pad / NOP
		}
		if typ != 1 {
			return fmt.Errorf("%w: unsupported packet type %d", ErrBadPacket, typ)
		}
		switch op {
		case OpNop:
			return nil
		case OpRead:
			return fmt.Errorf("%w: reads not supported through write port", ErrBadPacket)
		case OpWrite:
		default:
			return fmt.Errorf("%w: bad opcode %d", ErrBadPacket, op)
		}
		if reg >= numRegs {
			return fmt.Errorf("%w: register %d", ErrBadPacket, reg)
		}
		if reg == RegSTAT {
			return fmt.Errorf("%w: STAT is read-only", ErrBadPacket)
		}
		if count == 0 {
			return nil
		}
		p.dataReg = reg
		p.dataLeft = count
		p.state = stData
		return nil
	}
	return fmt.Errorf("%w: bad port state %d", ErrBadPacket, p.state)
}

func (p *ConfigPort) dataWord(w uint32) error {
	p.dataLeft--
	if p.dataLeft == 0 {
		p.state = stHeader
	}
	if p.dataReg != RegCRC {
		p.crc = CRCUpdate(p.crc, p.dataReg, w)
	}
	switch p.dataReg {
	case RegCRC:
		if w != p.crc {
			return fmt.Errorf("%w: got %08x, want %08x", ErrCRC, w, p.crc)
		}
		p.crc = 0
		p.touched = p.touched[:0]
		return nil
	case RegFAR:
		if int(w) >= p.fab.geom.NumFrames() {
			return fmt.Errorf("%w: %d (device has %d frames)", ErrFrameAddress, w, p.fab.geom.NumFrames())
		}
		p.far = int(w)
		p.frameOff = 0
		return nil
	case RegFDRI:
		return p.frameDataWord(w)
	case RegCMD:
		return p.command(w)
	case RegIDCODE:
		if w != p.fab.IDCode() {
			return fmt.Errorf("%w: bitstream %08x, device %08x", ErrIDCODE, w, p.fab.IDCode())
		}
		p.idChecked = true
		return nil
	case RegFLR:
		if int(w) != p.fab.geom.FrameWords() {
			return fmt.Errorf("%w: bitstream %d words, device %d", ErrFrameLength, w, p.fab.geom.FrameWords())
		}
		return nil
	case RegCTL, RegMASK, RegCOR:
		return nil // accepted, no behaviour modelled
	}
	return fmt.Errorf("%w: payload for register %d", ErrBadPacket, p.dataReg)
}

func (p *ConfigPort) command(w uint32) error {
	switch w {
	case CmdNull:
		return nil
	case CmdWCFG:
		p.wcfg = true
		return nil
	case CmdLFRM:
		if p.frameOff != 0 {
			return fmt.Errorf("%w: LFRM with partial frame (%d bytes pending)", ErrBadPacket, p.frameOff)
		}
		p.wcfg = false
		return nil
	case CmdRCRC:
		p.crc = 0
		p.touched = p.touched[:0]
		return nil
	case CmdDESYNC:
		if p.frameOff != 0 {
			return fmt.Errorf("%w: DESYNC with partial frame", ErrBadPacket)
		}
		p.state = stUnsynced
		p.wcfg = false
		return nil
	default:
		return fmt.Errorf("%w: unknown command %d", ErrBadPacket, w)
	}
}

func (p *ConfigPort) frameDataWord(w uint32) error {
	if !p.wcfg {
		return ErrNoWCFG
	}
	if !p.idChecked {
		return ErrNoIDCheck
	}
	// The staging buffer holds whole words; the pad bytes of a frame's
	// final word land past FrameBytes and are dropped at commit.
	if p.frame == nil {
		p.frame = make([]byte, 4*p.fab.geom.FrameWords())
	}
	binary.BigEndian.PutUint32(p.frame[p.frameOff:], w)
	p.frameOff += 4
	if fb := p.fab.geom.FrameBytes(); p.frameOff >= fb {
		if p.far >= p.fab.geom.NumFrames() {
			return fmt.Errorf("%w: auto-incremented past device end", ErrFrameAddress)
		}
		copy(p.fab.cfg[p.far], p.frame[:fb])
		p.touched = append(p.touched, p.far)
		p.fab.generation[p.far]++
		p.FramesWritten++
		p.far++ // auto-increment, as the FAR does during multi-frame FDRI bursts
		p.frameOff = 0
	}
	return nil
}

// crcTables are the slicing-by-4 tables for IEEE CRC-32: crcTables[0] is
// crc32.IEEETable and crcTables[k][i] advances crcTables[k-1][i] by one
// more zero byte, so four table lookups fold a whole word.
var crcTables = func() (t [4][256]uint32) {
	t[0] = *crc32.IEEETable
	for k := 1; k < 4; k++ {
		for i, c := range t[k-1] {
			t[k][i] = t[0][byte(c)] ^ c>>8
		}
	}
	return t
}()

// CRCUpdate folds a register write into a running configuration CRC. The
// exact polynomial matters less than that port and assembler agree; both
// use IEEE CRC-32 over the register id byte followed by the big-endian
// word, computed here without building that 5-byte message.
func CRCUpdate(crc uint32, reg int, w uint32) uint32 {
	c := ^crc
	// One table step for the register byte, then the word's big-endian
	// bytes, loaded little-endian, through the four slicing tables.
	c = crcTables[0][byte(c)^byte(reg)] ^ c>>8 ^ bits.ReverseBytes32(w)
	return ^(crcTables[3][byte(c)] ^ crcTables[2][byte(c>>8)] ^ crcTables[1][byte(c>>16)] ^ crcTables[0][c>>24])
}
