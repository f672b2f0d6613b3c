package hll

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary format (little endian), version 1:
//
//	offset  size  field
//	0       4     magic "FCHL"
//	4       1     format version (1)
//	5       1     precision p
//	6       2     reserved (0)
//	8       8     hash seed
//	16      2^p   registers (one byte each)
//
// Registers are stored raw: at typical precisions the array is 4KB
// and compresses well at rest; a packed 6-bit encoding is not worth
// the decode cost here.
const (
	hserdeMagic   = "FCHL"
	hserdeVersion = 1
	hheaderSize   = 16
)

// Serialization errors.
var (
	ErrBadMagic   = errors.New("hll: bad magic bytes")
	ErrBadVersion = errors.New("hll: unsupported format version")
	ErrCorrupt    = errors.New("hll: corrupt sketch bytes")
	ErrBadReg     = errors.New("hll: register value exceeds maximum rank")
)

// MarshalBinary serializes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, hheaderSize+len(s.regs))
	copy(buf[0:4], hserdeMagic)
	buf[4] = hserdeVersion
	buf[5] = s.p
	binary.LittleEndian.PutUint64(buf[8:16], s.seed)
	copy(buf[hheaderSize:], s.regs)
	return buf, nil
}

// Unmarshal parses a sketch serialized by MarshalBinary, validating
// the precision, payload size and register ranges.
func Unmarshal(data []byte) (*Sketch, error) {
	if len(data) < hheaderSize {
		return nil, fmt.Errorf("%w: %d bytes < header", ErrCorrupt, len(data))
	}
	if string(data[0:4]) != hserdeMagic {
		return nil, ErrBadMagic
	}
	if data[4] != hserdeVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	if data[6] != 0 || data[7] != 0 {
		return nil, fmt.Errorf("%w: reserved bytes %#x %#x", ErrCorrupt, data[6], data[7])
	}
	p := data[5]
	if p < 4 || p > 18 {
		return nil, fmt.Errorf("%w: precision %d", ErrCorrupt, p)
	}
	m := 1 << p
	if len(data) != hheaderSize+m {
		return nil, fmt.Errorf("%w: payload size %d != %d", ErrCorrupt, len(data)-hheaderSize, m)
	}
	seed := binary.LittleEndian.Uint64(data[8:16])
	s := NewSeeded(p, seed)
	maxRank := uint8(64 - p + 1)
	for i, r := range data[hheaderSize:] {
		if r > maxRank {
			return nil, fmt.Errorf("%w: register %d = %d > %d", ErrBadReg, i, r, maxRank)
		}
		s.regs[i] = r
	}
	s.recalc()
	return s, nil
}
