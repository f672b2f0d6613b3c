package theta

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/fcds/fcds/internal/hash"
)

// Binary format (little endian), version 1:
//
//	offset  size  field
//	0       4     magic "FCTH"
//	4       1     format version (1)
//	5       1     flags (bit 0: empty)
//	6       2     reserved (0)
//	8       8     hash seed
//	16      8     theta
//	24      4     retained count
//	28      4     reserved (0)
//	32      8*n   retained hashes, ascending
const (
	serdeMagic   = "FCTH"
	serdeVersion = 1
	headerSize   = 32

	flagEmpty = 1 << 0
)

// Serialization errors.
var (
	ErrBadMagic    = errors.New("theta: bad magic bytes")
	ErrBadVersion  = errors.New("theta: unsupported format version")
	ErrCorrupt     = errors.New("theta: corrupt sketch bytes")
	ErrUnsorted    = errors.New("theta: retained hashes not strictly ascending")
	ErrAboveTheta  = errors.New("theta: retained hash not below theta")
	ErrZeroHash    = errors.New("theta: zero retained hash")
	ErrThetaRange  = errors.New("theta: threshold out of range")
	ErrCountBounds = errors.New("theta: retained count out of bounds")
)

// MarshalBinary serializes the compact sketch. The format is ascending,
// so this is an ordering call (see Compact): the first one on a compact
// sorts its samples, every later one only copies them.
func (c *Compact) MarshalBinary() ([]byte, error) {
	hashes := c.order()
	buf := make([]byte, headerSize+8*len(hashes))
	copy(buf[0:4], serdeMagic)
	buf[4] = serdeVersion
	if len(hashes) == 0 {
		buf[5] = flagEmpty
	}
	binary.LittleEndian.PutUint64(buf[8:16], c.seed)
	binary.LittleEndian.PutUint64(buf[16:24], c.theta)
	binary.LittleEndian.PutUint32(buf[24:28], uint32(len(hashes)))
	for i, h := range hashes {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], h)
	}
	return buf, nil
}

// UnmarshalCompact parses a compact sketch serialized by MarshalBinary,
// validating every structural invariant so corrupt input cannot
// produce a sketch that later panics or estimates garbage. The result
// is ordered: the format is strictly ascending and anything else is
// rejected.
func UnmarshalCompact(data []byte) (*Compact, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes < header", ErrCorrupt, len(data))
	}
	if string(data[0:4]) != serdeMagic {
		return nil, ErrBadMagic
	}
	if data[4] != serdeVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	seed := binary.LittleEndian.Uint64(data[8:16])
	theta := binary.LittleEndian.Uint64(data[16:24])
	count := int(binary.LittleEndian.Uint32(data[24:28]))
	if theta == 0 || theta > hash.MaxThetaValue {
		return nil, ErrThetaRange
	}
	if count < 0 || len(data) != headerSize+8*count {
		return nil, ErrCountBounds
	}
	// One encoding per sketch: the empty flag says exactly "no hashes",
	// no other flag exists and reserved bytes are zero, as MarshalBinary
	// writes them — so accepted bytes always marshal back to themselves.
	wantFlags := byte(0)
	if count == 0 {
		wantFlags = flagEmpty
	}
	if data[5] != wantFlags {
		return nil, fmt.Errorf("%w: flags %#x with %d hashes", ErrCorrupt, data[5], count)
	}
	if data[6]|data[7]|data[28]|data[29]|data[30]|data[31] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved bytes", ErrCorrupt)
	}
	hashes := make([]uint64, count)
	var prev uint64
	for i := 0; i < count; i++ {
		h := binary.LittleEndian.Uint64(data[headerSize+8*i:])
		if h == 0 {
			return nil, ErrZeroHash
		}
		if h >= theta {
			return nil, ErrAboveTheta
		}
		if i > 0 && h <= prev {
			return nil, ErrUnsorted
		}
		hashes[i] = h
		prev = h
	}
	return newCompactOrdered(hashes, theta, seed), nil
}
