package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// The log is a flat sequence of self-checking frames after an 8-byte file
// header. Each frame is
//
//	magic   [4]byte  "FRME"
//	type    byte     'E' entry · 'P' pin · 'U' unpin · 'T' tombstone
//	metaLen uint32   little-endian
//	bodyLen uint32   little-endian
//	meta    [metaLen]byte   JSON (Meta for 'E', pinRecord for 'P'/'U',
//	                        tombRecord for 'T')
//	body    [bodyLen]byte   the entry payload ('E' only; empty otherwise)
//	sum     [32]byte        sha256 over every preceding frame byte
//
// The trailing checksum covers the header too, so a frame whose lengths,
// type or magic were corrupted in place fails exactly like one whose body
// was torn: nothing short of a fully intact frame is ever surfaced. Readers
// stop at the first frame that does not verify, which defines the store's
// recovery rule — the longest valid frame prefix is the store.

const (
	logMagic  = "obstore1"    // file header
	logHeader = len(logMagic) // 8 bytes
	frameSize = 4 + 1 + 4 + 4 // fixed frame header bytes
	sumSize   = sha256.Size   // 32
)

var frameMagic = [4]byte{'F', 'R', 'M', 'E'}

// Frame types.
const (
	frameEntry     = byte('E')
	framePin       = byte('P')
	frameUnpin     = byte('U')
	frameTombstone = byte('T')
)

func validType(t byte) bool {
	switch t {
	case frameEntry, framePin, frameUnpin, frameTombstone:
		return true
	}
	return false
}

// maxMetaLen bounds the metadata section. Entry metadata is a small JSON
// object (environment descriptors included); a megabyte is far beyond any
// legitimate frame and keeps a corrupted length field from driving a huge
// allocation before the checksum gets its chance to reject the frame.
const maxMetaLen = 1 << 20

// pinRecord is the metadata of 'P' and 'U' frames.
type pinRecord struct {
	Run  string   `json:"run"`
	Keys []string `json:"keys,omitempty"`
}

// tombRecord is the metadata of 'T' frames.
type tombRecord struct {
	Key string `json:"key"`
}

// encodeFrame encodes one frame with a JSON-marshaled metadata record and
// a body given as parts, concatenated in order, into one buffer of exactly
// the frame's size: the parts are copied once, straight into the frame. It
// also returns the frame's index entry at offset 0, built from the lengths
// it wrote: the frameInfo decodeFrame would parse back, without hashing
// the frame a second time. A frame decodeFrame would reject for its
// lengths is an error here instead.
func encodeFrame(typ byte, metaRec any, parts ...[]byte) ([]byte, frameInfo, error) {
	meta, err := json.Marshal(metaRec)
	if err != nil {
		return nil, frameInfo{}, fmt.Errorf("store: encode frame meta: %w", err)
	}
	var bodyLen uint64
	for _, p := range parts {
		bodyLen += uint64(len(p))
	}
	if len(meta) > maxMetaLen || bodyLen > math.MaxUint32 {
		return nil, frameInfo{}, fmt.Errorf("store: frame too large (%d meta bytes, %d body bytes)", len(meta), bodyLen)
	}
	info := frameInfo{typ: typ, metaLen: uint32(len(meta)), bodyLen: uint32(bodyLen)}
	frame := make([]byte, 0, info.end())
	frame = append(frame, frameMagic[:]...)
	frame = append(frame, typ)
	frame = binary.LittleEndian.AppendUint32(frame, info.metaLen)
	frame = binary.LittleEndian.AppendUint32(frame, info.bodyLen)
	frame = append(frame, meta...)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	sum := sha256.Sum256(frame)
	return append(frame, sum[:]...), info, nil
}

// frameInfo describes one decoded frame's position inside the log.
type frameInfo struct {
	off     int64 // frame start (the magic)
	typ     byte
	metaLen uint32
	bodyLen uint32
}

// end returns the offset one past the frame's checksum.
func (f frameInfo) end() int64 {
	return f.off + int64(frameSize) + int64(f.metaLen) + int64(f.bodyLen) + int64(sumSize)
}

// metaOff and bodyOff locate the frame's sections.
func (f frameInfo) metaOff() int64 { return f.off + int64(frameSize) }
func (f frameInfo) bodyOff() int64 { return f.metaOff() + int64(f.metaLen) }

// decodeFrame parses and verifies the frame starting at off in buf (the
// whole log, header included). It returns ok=false — never an invalid
// partial result — when the bytes at off are not one fully intact frame:
// short buffer, bad magic, unknown type, oversized metadata, lengths
// overrunning the buffer, or a checksum mismatch.
func decodeFrame(buf []byte, off int64) (frameInfo, bool) {
	if off < 0 || int64(len(buf))-off < int64(frameSize)+int64(sumSize) {
		return frameInfo{}, false
	}
	b := buf[off:]
	if [4]byte(b[:4]) != frameMagic || !validType(b[4]) {
		return frameInfo{}, false
	}
	f := frameInfo{
		off:     off,
		typ:     b[4],
		metaLen: binary.LittleEndian.Uint32(b[5:9]),
		bodyLen: binary.LittleEndian.Uint32(b[9:13]),
	}
	if f.metaLen > maxMetaLen {
		return frameInfo{}, false
	}
	if f.end() > int64(len(buf)) || f.end() < f.off {
		return frameInfo{}, false
	}
	sumAt := f.bodyOff() + int64(f.bodyLen)
	sum := sha256.Sum256(buf[f.off:sumAt])
	if [sumSize]byte(buf[sumAt:f.end()]) != sum {
		return frameInfo{}, false
	}
	return f, true
}
