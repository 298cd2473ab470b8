// Package memory models the co-processor's on-board storage: the ROM
// holding compressed configuration bitstreams and the function record
// table (paper §2.2), and the local RAM staging function inputs and
// outputs (paper §2.3).
//
// The ROM follows the paper's two-ended layout exactly: compressed
// bitstreams are appended from the bottom of the address space while the
// record table grows down from the top; the device is full when the two
// regions would collide. Records are genuinely serialised into the ROM
// bytes — the microcontroller reads them back through the same address
// space it reads bitstreams from.
package memory

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Record is one function entry in the ROM record table: where the
// compressed bitstream lives, how big it is compressed and raw, which
// codec it uses, the function's I/O bus widths and frame demand — the
// fields the paper's §2.2 record holds, plus what the mini OS needs for
// placement.
type Record struct {
	Name       string // up to 16 bytes
	FnID       uint16
	CodecID    byte
	Start      uint32 // byte offset of the compressed bitstream in ROM
	CompSize   uint32
	RawSize    uint32
	InBus      uint16 // input bus width in bytes; transfers are multiples of it
	OutBus     uint16 // output bus width in bytes
	FrameCount uint16 // frames the function occupies on the fabric
	Serial     uint16 // bitstream build serial
}

// RecordBytes is the on-ROM footprint of one serialised record.
const RecordBytes = 48

const recNameBytes = 16

// encode serialises the record into dst (RecordBytes long).
func (r *Record) encode(dst []byte) error {
	if len(r.Name) > recNameBytes {
		return fmt.Errorf("memory: record name %q exceeds %d bytes", r.Name, recNameBytes)
	}
	for i := range dst[:RecordBytes] {
		dst[i] = 0
	}
	copy(dst, r.Name)
	binary.LittleEndian.PutUint16(dst[16:], r.FnID)
	dst[18] = r.CodecID
	binary.LittleEndian.PutUint32(dst[20:], r.Start)
	binary.LittleEndian.PutUint32(dst[24:], r.CompSize)
	binary.LittleEndian.PutUint32(dst[28:], r.RawSize)
	binary.LittleEndian.PutUint16(dst[32:], r.InBus)
	binary.LittleEndian.PutUint16(dst[34:], r.OutBus)
	binary.LittleEndian.PutUint16(dst[36:], r.FrameCount)
	binary.LittleEndian.PutUint16(dst[38:], r.Serial)
	binary.LittleEndian.PutUint16(dst[46:], recCRC(dst[:46]))
	return nil
}

// decodeRecord parses a serialised record, verifying its CRC.
func decodeRecord(src []byte) (Record, error) {
	if len(src) < RecordBytes {
		return Record{}, errors.New("memory: short record")
	}
	if binary.LittleEndian.Uint16(src[46:]) != recCRC(src[:46]) {
		return Record{}, errors.New("memory: record CRC mismatch")
	}
	name := src[:recNameBytes]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	return Record{
		Name:       string(name[:end]),
		FnID:       binary.LittleEndian.Uint16(src[16:]),
		CodecID:    src[18],
		Start:      binary.LittleEndian.Uint32(src[20:]),
		CompSize:   binary.LittleEndian.Uint32(src[24:]),
		RawSize:    binary.LittleEndian.Uint32(src[28:]),
		InBus:      binary.LittleEndian.Uint16(src[32:]),
		OutBus:     binary.LittleEndian.Uint16(src[34:]),
		FrameCount: binary.LittleEndian.Uint16(src[36:]),
		Serial:     binary.LittleEndian.Uint16(src[38:]),
	}, nil
}

// recCRC is CRC-16/CCITT over the record body.
func recCRC(p []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range p {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// ROM errors.
var (
	ErrROMFull   = errors.New("memory: ROM full (bitstream and record regions collided)")
	ErrNoRecord  = errors.New("memory: no such function record")
	ErrROMBounds = errors.New("memory: ROM access out of bounds")
	ErrDupFnID   = errors.New("memory: duplicate function id in ROM")
)

// ROMBytesPerCycle is the ROM read port width: a 16-bit flash interface
// delivers 2 bytes per microcontroller cycle.
const ROMBytesPerCycle = 2

// ROM is the two-ended configuration store.
type ROM struct {
	data    []byte
	blobTop int // first free byte above the bitstream region (grows up)
	recBot  int // lowest byte of the record table (grows down)
	// recs holds the record table decoded, in installation order. Install
	// and LoadROM, the only writers of the table bytes, decode (and
	// CRC-check) each record once as they write it.
	recs []Record
}

// NewROM returns a ROM of the given capacity.
func NewROM(capacity int) (*ROM, error) {
	if capacity < RecordBytes {
		return nil, fmt.Errorf("memory: ROM capacity %d below one record", capacity)
	}
	return &ROM{data: make([]byte, capacity), recBot: capacity}, nil
}

// Capacity reports the ROM size in bytes.
func (r *ROM) Capacity() int { return len(r.data) }

// FreeBytes reports the unused gap between the two regions.
func (r *ROM) FreeBytes() int { return r.recBot - r.blobTop }

// NumRecords reports how many function records the table holds.
func (r *ROM) NumRecords() int { return len(r.recs) }

// Install appends a compressed bitstream to the blob region and its
// record to the table. The Start field of rec is filled in by the ROM.
// Install fails with ErrROMFull if the regions would collide, leaving the
// ROM unchanged.
func (r *ROM) Install(rec Record, blob []byte) error {
	if rec.CompSize != 0 && int(rec.CompSize) != len(blob) {
		return fmt.Errorf("memory: record CompSize %d != blob %d", rec.CompSize, len(blob))
	}
	if _, err := r.FindByID(rec.FnID); err == nil {
		return fmt.Errorf("%w: %d (%s)", ErrDupFnID, rec.FnID, rec.Name)
	}
	need := len(blob) + RecordBytes
	if r.FreeBytes() < need {
		return fmt.Errorf("%w: need %d bytes, %d free", ErrROMFull, need, r.FreeBytes())
	}
	rec.Start = uint32(r.blobTop)
	rec.CompSize = uint32(len(blob))
	slot := r.recBot - RecordBytes
	if err := rec.encode(r.data[slot:]); err != nil {
		return err
	}
	stored, err := decodeRecord(r.data[slot:])
	if err != nil {
		return err
	}
	copy(r.data[r.blobTop:], blob)
	r.blobTop += len(blob)
	r.recBot = slot
	r.recs = append(r.recs, stored)
	return nil
}

// Record returns the i-th record (installation order).
func (r *ROM) Record(i int) (Record, error) {
	if i < 0 || i >= len(r.recs) {
		return Record{}, fmt.Errorf("%w: index %d of %d", ErrNoRecord, i, len(r.recs))
	}
	return r.recs[i], nil
}

// Records returns all records in installation order.
func (r *ROM) Records() ([]Record, error) {
	return append([]Record(nil), r.recs...), nil
}

// FindByID locates the record of function fnID.
func (r *ROM) FindByID(fnID uint16) (Record, error) {
	for _, rec := range r.recs {
		if rec.FnID == fnID {
			return rec, nil
		}
	}
	return Record{}, fmt.Errorf("%w: id %d", ErrNoRecord, fnID)
}

// FindByName locates the record of the named function.
func (r *ROM) FindByName(name string) (Record, error) {
	for _, rec := range r.recs {
		if rec.Name == name {
			return rec, nil
		}
	}
	return Record{}, fmt.Errorf("%w: name %q", ErrNoRecord, name)
}

// ReadAt copies n bytes starting at off into a fresh slice.
func (r *ROM) ReadAt(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(r.data) {
		return nil, fmt.Errorf("%w: [%d, %d)", ErrROMBounds, off, off+n)
	}
	out := make([]byte, n)
	copy(out, r.data[off:])
	return out, nil
}

// Blob returns the compressed bitstream of rec.
func (r *ROM) Blob(rec Record) ([]byte, error) {
	return r.ReadAt(int(rec.Start), int(rec.CompSize))
}

// ReadCycles reports microcontroller cycles to read n bytes from ROM.
func ReadCycles(n int) uint64 {
	return uint64((n + ROMBytesPerCycle - 1) / ROMBytesPerCycle)
}
