package core

import "sync/atomic"

// This file defines the mergeable-sketch engine abstraction: the one
// place the sketch lifecycle — create, hashed batch ingest, wait-free
// query, compact snapshot, serialize, merge, reset — is described, so
// generic composites (keyed tables, epoch-ring windows) are written
// once and instantiated per family. The lifecycle itself is written
// once too, as FamilySketch (family.go): each sketch family (Θ,
// quantiles, HLL) implements Engine and Family once, in its own
// package, and its NewSketch returns a FamilySketch.
//
// Type parameters, shared by every interface here:
//
//	V — the raw value type writers ingest (uint64 items, float64
//	    samples, ...), and the type of its HashValue, which is what a
//	    live sketch takes;
//	S — the wait-free query snapshot type (an estimate, an immutable
//	    quantiles snapshot, ...);
//	C — the compact type: an immutable point-in-time copy that can be
//	    serialized, merged and persisted independently of the live
//	    sketch.

// Wire identifiers of the sketch families. core is the root of the
// dependency graph, so the registry lives here; the binary snapshot
// formats (table, window) embed these bytes in their headers.
const (
	KindTheta     byte = 1
	KindQuantiles byte = 2
	KindHLL       byte = 3
)

// Key is the set of key types keyed composites support.
type Key interface {
	string | uint64
}

// Wire identifiers of the key types, for the same reason as the kinds:
// the FCTB snapshot header and the server's keyed frames and journal
// records embed these bytes.
const (
	KeyString byte = 1
	KeyUint64 byte = 2
)

// KeyType reports K's wire identifier.
func KeyType[K Key]() byte {
	if _, ok := any(*new(K)).(string); ok {
		return KeyString
	}
	return KeyUint64
}

// CompactCodec is the compact-sketch half of an Engine: everything
// needed to identify, merge and (de)serialize compacts without touching
// a live concurrent sketch. Snapshot containers hold a CompactCodec so
// they need no live-sketch type parameters.
type CompactCodec[C any] interface {
	// Kind is the family's wire identifier (KindTheta, ...).
	Kind() byte
	// Param is the family's accuracy parameter (k or precision) —
	// compacts only merge across equal (Kind, Param).
	Param() uint32
	// MergeCompact merges two compacts into a new one; neither input is
	// mutated.
	MergeCompact(a, b C) (C, error)
	// MarshalCompact serializes one compact.
	MarshalCompact(c C) ([]byte, error)
	// UnmarshalCompact parses a compact serialized by MarshalCompact,
	// validating the bytes.
	UnmarshalCompact(data []byte) (C, error)
	// UnmarshalCompacts parses many compacts at once (a snapshot
	// image's), each validated as UnmarshalCompact validates one. The
	// compacts may share arrays (Θ decodes an image into one slab), so
	// one kept beyond the others keeps all of them alive unless it goes
	// through DetachCompact first.
	UnmarshalCompacts(blobs [][]byte) ([]C, error)
	// DetachCompact returns c, or a copy of it that shares no array with
	// the compacts UnmarshalCompacts decoded beside it.
	DetachCompact(c C) C
}

// UnmarshalEach is UnmarshalCompacts for a family whose compacts share
// nothing: each blob decoded on its own by unmarshal.
func UnmarshalEach[C any](blobs [][]byte, unmarshal func([]byte) (C, error)) ([]C, error) {
	out := make([]C, len(blobs))
	for i, b := range blobs {
		c, err := unmarshal(b)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// Aggregator folds many compacts into one — the rollup/window-merge
// primitive. Unlike pairwise MergeCompact it reuses one accumulator, so
// merging n compacts is one pass, not n allocations. A live sketch
// folds in without a compact at all, through EngineSketch.AddTo. Not
// safe for concurrent use; Result finalizes the aggregator (do not Add
// after).
type Aggregator[C any] interface {
	// Add folds one compact into the accumulator. It fails only on
	// incompatible inputs (foreign seed or precision).
	Add(c C) error
	// Result returns the merged compact; with no Adds, the family's
	// empty compact.
	Result() C
}

// EngineSketch is one live concurrent sketch as generic composites see
// it: N writer slots, a wait-free query, and a serializable compact
// view. The writer-slot contract is the framework's: slot i may be
// driven by at most one goroutine at a time (its writer, or an owner
// holding exclusive access, e.g. a table evictor).
type EngineSketch[V, S, C any] interface {
	// UpdateHashed ingests one value through writer slot i. h is
	// already mapped by the engine's HashValue (or its string twin): a
	// live sketch takes hashed values only, and the composite's writer
	// (a table's, a window's) is the one place a raw value becomes one.
	UpdateHashed(writer int, h V)
	// UpdateHashedBatch is UpdateHashed for a run: the family's batch
	// pre-filter drops what the writer's hint rules out, and the rest
	// enters the framework in bulk.
	UpdateHashedBatch(writer int, hs []V)
	// Flush hands off writer slot i's buffered updates and waits until
	// they are folded into the global sketch.
	Flush(writer int)
	// Query returns the wait-free snapshot (a single atomic read).
	Query() S
	// Compact returns an immutable serializable point-in-time copy. It
	// briefly synchronises with the propagator (with a writer only while
	// a Θ sketch is still flat) for the length of one copy — never for a
	// sort: a Θ compact is ordered later, by whoever first serializes it
	// — and may miss up to the relaxation bound of recent updates.
	Compact() C
	// AddTo folds the sketch's current state into agg exactly as
	// agg.Add(Compact()) would, without building the compact: an
	// all-keys read (a table rollup) needs the merge, not a copy it
	// drops after one Add. FamilySketch reads the sketch in place into
	// an InPlaceAggregator (Θ's union), under the lock Compact takes,
	// and releases that lock before the aggregator does any merge work;
	// into any other aggregator it adds the compact.
	AddTo(agg Aggregator[C]) error
	// Reset restores the empty state. The caller must hold the same
	// exclusivity as for Close: no concurrent writer-slot use.
	Reset()
	// Close detaches the sketch from propagation after draining every
	// handed-off buffer.
	Close()
}

// Engine describes one mergeable-sketch family bound to a fixed
// configuration (accuracy parameter, writer count, buffer size, seed).
// It is the single seam between the generic composites and the three
// families: keyed tables instantiate one sketch per key through it, and
// windowed sketches one per epoch.
type Engine[V, S, C any] interface {
	CompactCodec[C]
	// NewSketch creates one live concurrent sketch attached to the given
	// propagation executor.
	NewSketch(pool *PropagatorPool) EngineSketch[V, S, C]
	// HashValue maps a raw value to the form a live sketch ingests
	// (EngineSketch.UpdateHashed and UpdateHashedBatch): the identity
	// for families whose values are not hashed (quantiles). Every
	// composite's writer maps each raw value this way before any sketch
	// sees it, so a value has one meaning whatever entry point it came
	// through.
	HashValue(v V) V
	// AppendHashValues is the batch form of HashValue: it appends
	// HashValue of each element of vs to dst, in order, and returns the
	// extended slice — bit-identical to a HashValue loop, but one call
	// per run, through the family's batch hash kernel. A keyed table's
	// batch pass hashes its values a block at a time through it.
	AppendHashValues(dst, vs []V) []V
	// NewAggregator returns a fresh many-compact merger.
	NewAggregator() Aggregator[C]
	// QueryCompact answers the family's query from a compact alone —
	// how merged (rolled-up, windowed) compacts are queried.
	QueryCompact(c C) S
	// NumWriters is N, the writer-slot count each NewSketch sketch has.
	NumWriters() int
	// Relaxation is the per-sketch bound r = 2·N·b on updates a query
	// of one NewSketch sketch may miss (Theorem 1).
	Relaxation() int
}

// StringEngine is an optional Engine capability: hashing a string item
// into the form a live sketch ingests, as HashValue does a raw
// value. It is what lets a composite take string items — a keyed
// table's string batches, the server's string-item frames. Θ and HLL
// implement it; quantiles, whose values are samples rather than items,
// does not.
type StringEngine[V any] interface {
	HashString(s string) V
}

// FilterEngine and FilterSketch are one optional capability in two
// halves: Algorithm 1's calcHint (line 24) and shouldAdd (line 26),
// offered to a composite's writer instead of only to the sketch's own.
// The paper's writer tests shouldAdd(hint, u) before it buffers u —
// §5.2 calls that filter instrumental for performance — and a
// composite that routes items to many sketches (a keyed table) has
// more to skip than a buffer slot: grouping, the entry lock and the
// sketch call itself. A composite that finds FilterEngine on its
// engine may remember each sketch's last CalcHint and drop an item
// whose HashValue fails ShouldAdd against it without going near the
// sketch.
//
// That is sound because the implementer guarantees that a hint never
// goes stale the wrong way: an item ShouldAdd rejects against a hint a
// sketch once returned would change nothing if that sketch ingested it
// at any later time. Θ only falls and HLL's register floor only rises —
// up to a Reset, which the composite that calls it must make its
// writers forget first, as a table's Sweep does. A dropped item is an
// update that took effect at once and changed nothing; it never
// occupies a buffer, so r = 2·N·b is untouched.
//
// Θ and HLL implement both halves; quantiles neither (any sample can
// move a quantile).
type FilterEngine[V any] interface {
	// ShouldAdd reports whether the hashed value h can still affect a
	// sketch whose CalcHint returned hint (Algorithm 1 line 26).
	ShouldAdd(hint, h V) bool
}

// FilterSketch is the EngineSketch half of the FilterEngine capability.
type FilterSketch[V any] interface {
	// CalcHint returns the sketch's current pre-filtering hint
	// (Algorithm 1 line 24); ok=false while it has none to give — a Θ
	// sketch that is flat, in exact mode or built with filtering
	// disabled, an HLL sketch with a register still 0. Wait-free, like
	// Query.
	CalcHint() (hint V, ok bool)
}

// FloorSketch and FloorAggregator are one optional capability in two
// halves: they let a composite that holds many sketches (a keyed table)
// leave unread every sketch that cannot change an aggregate. A floor is
// a value no larger than anything in the sketch that an aggregator
// could still take; an aggregator's bound is the value a floor must be
// below for the sketch to matter to it. A composite that groups its
// sketches (a table's shards) hands every sketch of a group one cell:
// the sketches keep it at or below each of their floors, so a group
// whose cell is at or above an aggregator's bound holds nothing that
// aggregator can take, now or later — the bound only falls.
//
// The cell is lowered, never raised, and before the state that lowered
// it becomes readable: a reader that saw a cell at or above its bound
// and skipped the group read it before that state existed. Nothing
// raises a cell when a sketch shrinks (a reset, an eviction), which
// only makes a reader read more than it needs.
//
// Θ implements both halves: a sketch's floor is min(low, Θ), low being
// the smallest hash ever offered to it, and a union's bound is its
// running Θ (see theta's Union.bound for why a sketch with a floor at
// or above it cannot change the union). A composite treats a sketch
// without FloorSketch as floor 0 (always read), and an aggregator
// without FloorAggregator as bound MaxUint64: only groups with no
// sketch at all, whose cells still hold MaxUint64, are skipped.
type FloorSketch interface {
	// SetFloor hands the sketch its group's cell. The sketch lowers it
	// at once to its current floor, then as its floor falls.
	SetFloor(cell *atomic.Uint64)
}

// FloorAggregator is the Aggregator half of the floor capability.
type FloorAggregator interface {
	// Bound returns the aggregator's current bound: a sketch whose floor
	// is at or above it cannot change what Result returns. It only falls
	// as the aggregator takes input.
	Bound() uint64
}
