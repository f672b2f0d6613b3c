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
	seed, theta, count, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	hashes := make([]uint64, count)
	if err := readHashes(hashes, data, theta); err != nil {
		return nil, err
	}
	return newCompactOrdered(hashes, theta, seed), nil
}

// UnmarshalCompacts parses many compacts serialized by MarshalBinary (a
// table snapshot's), each validated as UnmarshalCompact validates one.
// They share one samples array, sized from the bytes present, and one
// array of Compact structs: three allocations for the lot instead of
// two per compact. In exchange, one of them kept keeps every one's
// arrays alive; clone it to keep it alone.
func UnmarshalCompacts(blobs [][]byte) ([]*Compact, error) {
	total := 0
	for _, b := range blobs {
		if len(b) < headerSize {
			return nil, fmt.Errorf("%w: %d bytes < header", ErrCorrupt, len(b))
		}
		total += (len(b) - headerSize) / 8
	}
	slab := make([]uint64, total)
	cs := make([]Compact, len(blobs))
	out := make([]*Compact, len(blobs))
	for i, b := range blobs {
		seed, theta, count, err := parseHeader(b)
		if err != nil {
			return nil, err
		}
		c := &cs[i]
		if count > 0 {
			// A full slice expression: no compact can append into the
			// next one's samples.
			c.hashes, slab = slab[:count:count], slab[count:]
			if err := readHashes(c.hashes, b, theta); err != nil {
				return nil, err
			}
		}
		c.theta, c.seed = theta, seed
		c.ordered.Store(true)
		out[i] = c
	}
	return out, nil
}

// parseHeader validates a serialized compact's header against its
// length and returns the seed, Θ and retained count it declares.
func parseHeader(data []byte) (seed, theta uint64, count int, err error) {
	if len(data) < headerSize {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes < header", ErrCorrupt, len(data))
	}
	if string(data[0:4]) != serdeMagic {
		return 0, 0, 0, ErrBadMagic
	}
	if data[4] != serdeVersion {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	seed = binary.LittleEndian.Uint64(data[8:16])
	theta = binary.LittleEndian.Uint64(data[16:24])
	count = int(binary.LittleEndian.Uint32(data[24:28]))
	if theta == 0 || theta > hash.MaxThetaValue {
		return 0, 0, 0, ErrThetaRange
	}
	if count < 0 || len(data) != headerSize+8*count {
		return 0, 0, 0, ErrCountBounds
	}
	// One encoding per sketch: the empty flag says exactly "no hashes",
	// no other flag exists and reserved bytes are zero, as MarshalBinary
	// writes them — so accepted bytes always marshal back to themselves.
	wantFlags := byte(0)
	if count == 0 {
		wantFlags = flagEmpty
	}
	if data[5] != wantFlags {
		return 0, 0, 0, fmt.Errorf("%w: flags %#x with %d hashes", ErrCorrupt, data[5], count)
	}
	if data[6]|data[7]|data[28]|data[29]|data[30]|data[31] != 0 {
		return 0, 0, 0, fmt.Errorf("%w: nonzero reserved bytes", ErrCorrupt)
	}
	return seed, theta, count, nil
}

// readHashes fills hashes from a serialized compact whose header
// declared len(hashes) samples below theta. The samples must be
// nonzero, below theta and strictly ascending; ascending order lets one
// comparison per sample check all three (above the previous one, which
// starts at 0, and the last below theta), and only bytes that fail are
// walked again for the error the first bad sample earns.
func readHashes(hashes []uint64, data []byte, theta uint64) error {
	src := data[headerSize : headerSize+8*len(hashes)]
	var prev uint64
	for i := range hashes {
		h := binary.LittleEndian.Uint64(src[8*i:])
		if h <= prev {
			return sampleError(src, theta)
		}
		hashes[i], prev = h, h
	}
	if prev >= theta {
		return sampleError(src, theta)
	}
	return nil
}

// sampleError is the error of the first sample in src that is zero, at
// or above theta, or not above the sample before it.
func sampleError(src []byte, theta uint64) error {
	var prev uint64
	for i := 0; i+8 <= len(src); i += 8 {
		h := binary.LittleEndian.Uint64(src[i:])
		switch {
		case h == 0:
			return ErrZeroHash
		case h >= theta:
			return ErrAboveTheta
		case i > 0 && h <= prev:
			return ErrUnsorted
		}
		prev = h
	}
	return nil
}
