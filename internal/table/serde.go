package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/quantiles"
)

// Binary table-snapshot format (little endian), version 1:
//
//	offset  size  field
//	0       4     magic "FCTB"
//	4       1     format version (1)
//	5       1     sketch kind (1 Θ, 2 quantiles, 3 HLL)
//	6       1     key type (1 string, 2 uint64)
//	7       1     reserved (0)
//	8       4     sketch parameter (k or precision)
//	12      4     key count
//	16      ...   count entries: key, then uvarint blob length + blob
//
// String keys are uvarint length + bytes; uint64 keys are 8 bytes LE.
// TableSnapshot.AppendBinary writes entries in key order (numeric for
// uint64 keys, bytewise for string keys), so a snapshot always encodes
// to the same bytes; Table.SnapshotAppend streams them in walk order.
// Decoders accept any order. Each blob is the per-key sketch's own
// serialization (validated by its own unmarshaller), so a corrupt
// snapshot cannot smuggle in an invalid sketch. The decoder frames
// every entry first and then hands all the blobs to the family's codec
// in one call (CompactCodec.UnmarshalCompacts), so an image's compacts
// may share arrays: Θ backs them with one samples slab and one array of
// compact structs, sized from the bytes present, never from a count
// the header or a blob claims.
const (
	snapMagic      = "FCTB"
	snapVersion    = 1
	snapHeaderSize = 16

	// Sketch kinds (the core wire registry).
	KindTheta     = core.KindTheta
	KindQuantiles = core.KindQuantiles
	KindHLL       = core.KindHLL
)

// Snapshot serialization errors.
var (
	ErrSnapBadMagic     = errors.New("table: bad snapshot magic")
	ErrSnapBadVersion   = errors.New("table: unsupported snapshot version")
	ErrSnapKindMismatch = errors.New("table: snapshot sketch kind mismatch")
	ErrSnapKeyMismatch  = errors.New("table: snapshot key type mismatch")
	ErrSnapCorrupt      = errors.New("table: corrupt snapshot bytes")
	ErrSnapIncompatible = errors.New("table: snapshots not mergeable (kind or parameter differ)")
)

// appendKey writes a key in its wire encoding.
func appendKey[K Key](dst []byte, k K) []byte {
	if s, ok := any(k).(string); ok {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	}
	return binary.LittleEndian.AppendUint64(dst, any(k).(uint64))
}

// nextEntry frames the i-th snapshot entry at the head of data: its
// key's bytes and its blob (both views of data), and what follows.
func nextEntry[K Key](data []byte, i int) (key, blob, rest []byte, err error) {
	if core.KeyType[K]() == core.KeyString {
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n {
			return nil, nil, nil, fmt.Errorf("%w: truncated string key", ErrSnapCorrupt)
		}
		key, data = data[sz:sz+int(n)], data[sz+int(n):]
	} else {
		if len(data) < 8 {
			return nil, nil, nil, fmt.Errorf("%w: truncated uint64 key", ErrSnapCorrupt)
		}
		key, data = data[:8], data[8:]
	}
	n, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < n {
		return nil, nil, nil, fmt.Errorf("%w: truncated sketch blob for entry %d", ErrSnapCorrupt, i)
	}
	return key, data[sz : sz+int(n)], data[sz+int(n):], nil
}

// parseKey converts a framed key's bytes to K, through a pointer so that
// the key is not boxed on its way.
func parseKey[K Key](b []byte) K {
	var k K
	switch p := any(&k).(type) {
	case *string:
		*p = string(b)
	case *uint64:
		*p = binary.LittleEndian.Uint64(b)
	}
	return k
}

// TableSnapshot is an immutable point-in-time capture of a keyed
// table: one compact sketch per key. Snapshots from different
// processes merge per key (the distributed-aggregation path: every
// node snapshots its table, one aggregator merges and queries), and
// serialize with MarshalBinary. The codec — the compact half of the
// family's engine — supplies kind, parameter, per-key merge and
// (de)serialization.
type TableSnapshot[K Key, C any] struct {
	codec   core.CompactCodec[C]
	entries map[K]C
}

// NewTableSnapshot returns an empty snapshot bound to a codec;
// populate it with Merge or by capturing a live table's Snapshot.
func NewTableSnapshot[K Key, C any](codec core.CompactCodec[C]) *TableSnapshot[K, C] {
	return &TableSnapshot[K, C]{codec: codec, entries: make(map[K]C)}
}

// Len returns the number of keys captured.
func (s *TableSnapshot[K, C]) Len() int { return len(s.entries) }

// Get returns the compact sketch captured for a key.
func (s *TableSnapshot[K, C]) Get(k K) (C, bool) {
	c, ok := s.entries[k]
	return c, ok
}

// ForEach visits every (key, compact sketch) pair in unspecified
// order.
func (s *TableSnapshot[K, C]) ForEach(fn func(k K, c C)) {
	for k, c := range s.entries {
		fn(k, c)
	}
}

// Set stores a compact for a key, replacing any previous one. The
// compact must come from the snapshot's own sketch family and
// parameter (composites building snapshots from engine aggregators use
// this; Merge is the checked path for foreign snapshots).
func (s *TableSnapshot[K, C]) Set(k K, c C) { s.entries[k] = c }

// Merge folds other into s: keys present in both are merged sketch-
// wise, keys only in other are adopted as they are — when other was
// decoded, still sharing its arrays (see UnmarshalSnapshot), so a
// holder that keeps s but not other keeps other's arrays alive. Both
// snapshots must come from tables with the same sketch kind and
// parameter (ErrSnapIncompatible otherwise).
func (s *TableSnapshot[K, C]) Merge(other *TableSnapshot[K, C]) error {
	if s.codec.Kind() != other.codec.Kind() || s.codec.Param() != other.codec.Param() {
		return fmt.Errorf("%w: kind %d/param %d vs kind %d/param %d",
			ErrSnapIncompatible, s.codec.Kind(), s.codec.Param(), other.codec.Kind(), other.codec.Param())
	}
	for k, oc := range other.entries {
		if mine, ok := s.entries[k]; ok {
			merged, err := s.codec.MergeCompact(mine, oc)
			if err != nil {
				return err
			}
			s.entries[k] = merged
		} else {
			s.entries[k] = oc
		}
	}
	return nil
}

// MarshalBinary serializes the snapshot.
func (s *TableSnapshot[K, C]) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, snapHeaderSize+32*len(s.entries)))
}

// AppendBinary serializes the snapshot into dst and returns the
// extended slice — the streaming hook for callers that ship snapshots
// over reusable buffers (the network server's per-connection write
// scratch) instead of allocating a fresh image per capture. Entries
// go in key order, so equal snapshots encode to equal bytes. On error,
// dst is returned unextended.
func (s *TableSnapshot[K, C]) AppendBinary(dst []byte) ([]byte, error) {
	buf := appendSnapHeader[K](dst, s.codec, len(s.entries))
	for _, k := range slices.Sorted(maps.Keys(s.entries)) {
		var err error
		if buf, err = appendSnapEntry(buf, s.codec, k, s.entries[k]); err != nil {
			return dst, err
		}
	}
	return buf, nil
}

// appendSnapHeader writes the header of a snapshot of count keys of
// codec's kind and parameter. It and appendSnapEntry are the only
// writers of the format; decoders accept the entries in any order.
func appendSnapHeader[K Key, C any](dst []byte, codec core.CompactCodec[C], count int) []byte {
	dst = append(dst, snapMagic...)
	dst = append(dst, snapVersion, codec.Kind(), core.KeyType[K](), 0)
	dst = binary.LittleEndian.AppendUint32(dst, codec.Param())
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// appendSnapEntry writes one snapshot entry: the key, then c's blob
// behind its uvarint length. On error dst is returned unextended.
func appendSnapEntry[K Key, C any](dst []byte, codec core.CompactCodec[C], k K, c C) ([]byte, error) {
	blob, err := codec.MarshalCompact(c)
	if err != nil {
		return dst, err
	}
	dst = appendKey(dst, k)
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...), nil
}

// snapHeader is the parsed fixed-size snapshot prefix.
type snapHeader struct {
	kind  byte
	param uint32
	count int
}

// parseSnapshotHeader validates the fixed prefix against the expected
// kind and key type and returns the entry bytes.
func parseSnapshotHeader[K Key](data []byte, wantKind byte) (snapHeader, []byte, error) {
	var h snapHeader
	if len(data) < snapHeaderSize {
		return h, nil, fmt.Errorf("%w: %d bytes < header", ErrSnapCorrupt, len(data))
	}
	if string(data[0:4]) != snapMagic {
		return h, nil, ErrSnapBadMagic
	}
	if data[4] != snapVersion {
		return h, nil, fmt.Errorf("%w: %d", ErrSnapBadVersion, data[4])
	}
	if data[5] != wantKind {
		return h, nil, fmt.Errorf("%w: snapshot kind %d, want %d", ErrSnapKindMismatch, data[5], wantKind)
	}
	if data[6] != core.KeyType[K]() {
		return h, nil, fmt.Errorf("%w: snapshot key type %d, want %d", ErrSnapKeyMismatch, data[6], core.KeyType[K]())
	}
	h.kind = data[5]
	h.param = binary.LittleEndian.Uint32(data[8:12])
	h.count = int(binary.LittleEndian.Uint32(data[12:16]))
	if !validParam(h.kind, int(h.param)) {
		return h, nil, fmt.Errorf("%w: parameter %d invalid for kind %d", ErrSnapCorrupt, h.param, h.kind)
	}
	return h, data[snapHeaderSize:], nil
}

// validParam checks a sketch parameter against the kind's constructor
// constraints and what its compacts can carry, so a corrupt snapshot
// fails Unmarshal with an error instead of panicking later inside
// Merge's union/merge constructors, and a table never takes a
// parameter its own snapshots could not hold.
func validParam(kind byte, param int) bool {
	switch kind {
	case KindTheta:
		return param >= 16 && param <= 1<<26 && param&(param-1) == 0
	case KindQuantiles:
		return param >= 2 && param <= quantiles.MaxSerialK && param&(param-1) == 0
	case KindHLL:
		return param >= 4 && param <= 18
	default:
		return false
	}
}

// UnmarshalSnapshot parses a serialized table snapshot with codec, the
// receiving table's own engine. The header must name codec's kind
// (ErrSnapKindMismatch otherwise) and parameter (ErrSnapIncompatible
// otherwise, as Merge would say), and every entry is decoded by codec,
// all in one UnmarshalCompacts call: the compacts of one snapshot may
// share their arrays, and one kept beyond the snapshot keeps them all
// alive unless it goes through codec.DetachCompact.
func UnmarshalSnapshot[K Key, C any](data []byte, codec core.CompactCodec[C]) (*TableSnapshot[K, C], error) {
	return unmarshalSnapshot[K](data, codec.Kind(), func(uint32) core.CompactCodec[C] { return codec })
}

// unmarshalSnapshot parses a serialized table snapshot: the header is
// validated against wantKind and K, then newCodec supplies the codec
// for the wire parameter and the entries are parsed through it. The
// per-family Unmarshal*Snapshot functions build one per parameter.
func unmarshalSnapshot[K Key, C any](data []byte, wantKind byte, newCodec func(param uint32) core.CompactCodec[C]) (*TableSnapshot[K, C], error) {
	h, body, err := parseSnapshotHeader[K](data, wantKind)
	if err != nil {
		return nil, err
	}
	codec := newCodec(h.param)
	if h.param != codec.Param() {
		return nil, fmt.Errorf("%w: snapshot parameter %d, want %d", ErrSnapIncompatible, h.param, codec.Param())
	}
	// Frame every entry, then decode every blob in one codec call (Θ
	// backs the whole image with one slab). Nothing is sized beyond what
	// the body can hold: the count is the sender's claim, the body length
	// a fact, and an entry is at least its key plus one blob-length byte.
	minEntry := 8 + 1
	if core.KeyType[K]() == core.KeyString {
		minEntry = 1 + 1
	}
	entries := body
	blobs := make([][]byte, 0, min(h.count, len(body)/minEntry))
	for i := 0; i < h.count; i++ {
		_, blob, rest, err := nextEntry[K](body, i)
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, blob)
		body = rest
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapCorrupt, len(body))
	}
	cs, err := codec.UnmarshalCompacts(blobs)
	if err != nil {
		return nil, err
	}
	s := &TableSnapshot[K, C]{codec: codec, entries: make(map[K]C, len(cs))}
	for i, c := range cs {
		key, _, rest, _ := nextEntry[K](entries, i)
		s.entries[parseKey[K](key)] = c
		entries = rest
	}
	return s, nil
}
