package quantiles

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/fcds/fcds/internal/oracle"
)

// Binary format (little endian), version 1:
//
//	offset  size  field
//	0       4     magic "FCQS"
//	4       1     format version (1)
//	5       1     flags (bit 0: empty)
//	6       2     k (uint16; k <= MaxSerialK)
//	8       8     n (total items)
//	16      8     min (float64 bits)
//	24      8     max (float64 bits)
//	32      4     base buffer length
//	36      4     number of levels
//	40      8     level occupancy bitmap
//	48      8*m   base buffer items, then each occupied level's k items
//
// Occupied levels are serialized lowest-first; each holds exactly k
// sorted items.
const (
	qserdeMagic   = "FCQS"
	qserdeVersion = 1
	qheaderSize   = 48

	qflagEmpty = 1 << 0

	// MaxSerialK is the largest k the format carries in its 16 bits.
	MaxSerialK = 1 << 15
)

// Serialization errors.
var (
	ErrBadMagic    = errors.New("quantiles: bad magic bytes")
	ErrBadVersion  = errors.New("quantiles: unsupported format version")
	ErrCorrupt     = errors.New("quantiles: corrupt sketch bytes")
	ErrBadK        = errors.New("quantiles: invalid k")
	ErrLevelSort   = errors.New("quantiles: level buffer not sorted")
	ErrBadN        = errors.New("quantiles: item count inconsistent with buffers")
	ErrBadMinMax   = errors.New("quantiles: min/max inconsistent with samples")
	ErrNaNPayload  = errors.New("quantiles: NaN sample")
	ErrTooManyLvls = errors.New("quantiles: more than 64 levels")
)

// MarshalBinary serializes the sketch. The result reconstructs an
// equivalent sketch: same k, n, min/max, base buffer and levels (and
// therefore identical query answers).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	if s.k > MaxSerialK {
		return nil, ErrBadK
	}
	if len(s.levels) > 64 {
		return nil, ErrTooManyLvls
	}
	items := len(s.base)
	var bitmap uint64
	for lvl, buf := range s.levels {
		if buf != nil {
			bitmap |= 1 << uint(lvl)
			items += len(buf)
		}
	}
	buf := make([]byte, qheaderSize+8*items)
	copy(buf[0:4], qserdeMagic)
	buf[4] = qserdeVersion
	if s.n == 0 {
		buf[5] = qflagEmpty
	}
	binary.LittleEndian.PutUint16(buf[6:8], uint16(s.k))
	binary.LittleEndian.PutUint64(buf[8:16], s.n)
	binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(s.min))
	binary.LittleEndian.PutUint64(buf[24:32], math.Float64bits(s.max))
	binary.LittleEndian.PutUint32(buf[32:36], uint32(len(s.base)))
	binary.LittleEndian.PutUint32(buf[36:40], uint32(len(s.levels)))
	binary.LittleEndian.PutUint64(buf[40:48], bitmap)
	off := qheaderSize
	for _, v := range s.base {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	for _, lv := range s.levels {
		for _, v := range lv {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf, nil
}

// Unmarshal parses a sketch serialized by MarshalBinary, validating
// structural invariants (level sizes, sortedness, weight accounting,
// min/max consistency). The restored sketch uses a fresh
// default-seeded oracle for future compactions.
func Unmarshal(data []byte) (*Sketch, error) {
	if len(data) < qheaderSize {
		return nil, fmt.Errorf("%w: %d bytes < header", ErrCorrupt, len(data))
	}
	if string(data[0:4]) != qserdeMagic {
		return nil, ErrBadMagic
	}
	if data[4] != qserdeVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	k := int(binary.LittleEndian.Uint16(data[6:8]))
	if k < 2 || k&(k-1) != 0 {
		return nil, ErrBadK
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	minV := math.Float64frombits(binary.LittleEndian.Uint64(data[16:24]))
	maxV := math.Float64frombits(binary.LittleEndian.Uint64(data[24:32]))
	baseLen := int(binary.LittleEndian.Uint32(data[32:36]))
	numLevels := int(binary.LittleEndian.Uint32(data[36:40]))
	bitmap := binary.LittleEndian.Uint64(data[40:48])
	if numLevels > 64 {
		return nil, ErrTooManyLvls
	}
	if baseLen < 0 || baseLen >= 2*k {
		return nil, fmt.Errorf("%w: base length %d", ErrCorrupt, baseLen)
	}
	occupied := 0
	var weight uint64 = uint64(baseLen)
	for lvl := 0; lvl < numLevels; lvl++ {
		if bitmap&(1<<uint(lvl)) != 0 {
			// Level weights are distinct powers of two, so their sum plus
			// the base (< 2k) fits whenever each weight does.
			if uint64(k) > math.MaxUint64>>uint(lvl+1) {
				return nil, fmt.Errorf("%w: level %d weight overflows", ErrBadN, lvl)
			}
			occupied++
			weight += uint64(k) << uint(lvl+1)
		}
	}
	if bitmap>>uint(numLevels) != 0 {
		return nil, fmt.Errorf("%w: bitmap beyond level count", ErrCorrupt)
	}
	items := baseLen + occupied*k
	if len(data) != qheaderSize+8*items {
		return nil, fmt.Errorf("%w: payload size", ErrCorrupt)
	}
	if weight != n {
		return nil, ErrBadN
	}
	// The flags byte is the empty bit, set exactly when n is 0, and
	// nothing else: accepted bytes must marshal back to themselves.
	if (n == 0) != (data[5] == qflagEmpty) || data[5]&^qflagEmpty != 0 {
		return nil, fmt.Errorf("%w: flags %#x for n = %d", ErrCorrupt, data[5], n)
	}

	// Sized by the payload, not by k: New(k) would reserve 2k base slots,
	// and 48 bytes claiming k = 32768 would allocate half a megabyte.
	s := &Sketch{k: k, n: n, min: minV, max: maxV, base: make([]float64, 0, baseLen), orc: oracle.New(0x5eed)}
	off := qheaderSize
	readF := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return v
	}
	var loSample, hiSample float64 = math.Inf(1), math.Inf(-1)
	for i := 0; i < baseLen; i++ {
		v := readF()
		if math.IsNaN(v) {
			return nil, ErrNaNPayload
		}
		s.base = append(s.base, v)
		loSample = math.Min(loSample, v)
		hiSample = math.Max(hiSample, v)
	}
	s.levels = make([][]float64, numLevels)
	for lvl := 0; lvl < numLevels; lvl++ {
		if bitmap&(1<<uint(lvl)) == 0 {
			continue
		}
		lv := make([]float64, k)
		for i := 0; i < k; i++ {
			v := readF()
			if math.IsNaN(v) {
				return nil, ErrNaNPayload
			}
			if i > 0 && v < lv[i-1] {
				return nil, ErrLevelSort
			}
			lv[i] = v
			loSample = math.Min(loSample, v)
			hiSample = math.Max(hiSample, v)
		}
		s.levels[lvl] = lv
	}
	if n > 0 && (loSample < minV || hiSample > maxV) {
		return nil, ErrBadMinMax
	}
	if n == 0 && (baseLen != 0 || occupied != 0) {
		return nil, fmt.Errorf("%w: empty sketch with samples", ErrCorrupt)
	}
	return s, nil
}
