package server

import (
	"runtime"
	"testing"

	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/table"
)

// fuzzThetaConfig is the Θ table both fuzzed tables and their
// references use: small K and the default eager limit (~120 updates),
// so a long enough run takes a key past its flat phase.
func fuzzThetaConfig[K table.Key]() table.ThetaConfig[K] {
	return table.ThetaConfig[K]{Table: table.Config[K]{Writers: 1, Shards: 4}, K: 64}
}

// keyedBatch is a keyed-batch payload decoded by a reference decoder
// that shares nothing with decodeInto: the table name, then the key
// type, the count, the whole key run and the whole item run.
type keyedBatch struct {
	name    string
	kt      byte
	u64Keys []uint64
	strKeys []string
	vals    []uint64
	items   []string
}

// decodeKeyedBatch reports ok only for a payload that holds exactly
// count keys of its key type, then count items (8-byte values or, for
// a string batch, uvarint-length-prefixed strings), and nothing more.
func decodeKeyedBatch(payload []byte, stringItems bool) (kb keyedBatch, count int, ok bool) {
	r := wire.Reader{Buf: payload}
	kb.name = r.String()
	kb.kt = r.Byte()
	n := r.Uvarint()
	if r.Err != nil || n > uint64(r.Remaining()) {
		return kb, 0, false
	}
	count = int(n)
	for i := 0; i < count; i++ {
		switch kb.kt {
		case wire.KeyTypeUint64:
			kb.u64Keys = append(kb.u64Keys, r.Uint64())
		case wire.KeyTypeString:
			kb.strKeys = append(kb.strKeys, r.String())
		default:
			return kb, count, false
		}
	}
	for i := 0; i < count; i++ {
		if stringItems {
			kb.items = append(kb.items, r.String())
		} else {
			kb.vals = append(kb.vals, r.Uint64())
		}
	}
	return kb, count, r.Err == nil && r.Remaining() == 0
}

// sameTheta reports whether two drained Θ tables hold the same keys with
// the same answers.
func sameTheta[K table.Key](t *testing.T, got, want *table.ThetaTable[K], keys []K) {
	t.Helper()
	if got.Keys() != want.Keys() {
		t.Fatalf("table holds %d keys, the reference %d", got.Keys(), want.Keys())
	}
	for _, k := range keys {
		g, gok := got.Estimate(k)
		w, wok := want.Estimate(k)
		if g != w || gok != wok {
			t.Fatalf("key %v: estimate %v (%v), reference %v (%v)", k, g, gok, w, wok)
		}
	}
}

// FuzzKeyedBatch feeds arbitrary KEYED_BATCH and KEYED_STRING_BATCH
// payloads through the server's frame handler into two Θ tables, one
// keyed by uint64 ("u") and one by string ("s"), so all three shapes of
// decodeInto run: uint64 keys with either item kind, string keys with
// 8-byte values, string keys with string items. The input's first byte
// picks the frame type; the rest is the payload, table name included.
// The committed corpus (testdata/fuzz/FuzzKeyedBatch) holds a valid
// frame of each shape, a truncated body, trailing bytes, a count of
// 2^63 and a key type the table does not take. Whatever the input: no
// panic, and never more than a small multiple of its size allocated.
// A payload the reference decoder rejects is rejected with nothing
// committed to either table, then or by the next frame; one it accepts is acknowledged with the
// header's count, and leaves the table exactly as the decoded pairs fed
// through the table's own keyed-batch path leave a reference table.
func FuzzKeyedBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ, payload := wire.FrameKeyedBatch, data[1:]
		stringItems := data[0]&1 == 1
		if stringItems {
			typ = wire.FrameKeyedStringBatch
		}
		tabU := table.NewTheta(fuzzThetaConfig[uint64]())
		defer tabU.Close()
		tabS := table.NewTheta(fuzzThetaConfig[string]())
		defer tabS.Close()
		s := New(Config{})
		if err := Register(s, "u", tabU.Table); err != nil {
			t.Fatal(err)
		}
		if err := Register(s, "s", tabS.Table); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, _, _, err := s.handle(&connState{}, typ, payload)
		runtime.ReadMemStats(&after)
		// Each key a payload names costs an entry, a flat sketch and a
		// copy of the key; each item at most a staged hash.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(256*len(payload))+1<<16 {
			t.Fatalf("a %d-byte payload made the handler allocate %d", len(payload), grew)
		}
		tabU.Drain()
		tabS.Drain()

		kb, count, ok := decodeKeyedBatch(payload, stringItems)
		ok = ok && (kb.name == "u" && kb.kt == wire.KeyTypeUint64 || kb.name == "s" && kb.kt == wire.KeyTypeString)
		if !ok {
			if err == nil {
				t.Fatalf("a payload the reference rejects was acknowledged (%#x)", resp)
			}
			if n := tabU.Keys() + tabS.Keys(); n != 0 || s.items.Load() != 0 {
				t.Fatalf("a rejected payload (%v) committed %d keys, %d items", err, n, s.items.Load())
			}
			// Nor may it leak into the next frame that borrows the
			// tables' one writer handle.
			probe := func(name string, kt byte, key []byte) {
				p := append(wire.AppendString(nil, name), kt)
				p = append(wire.AppendUvarint(p, 1), key...)
				if _, _, _, err := s.handle(&connState{}, wire.FrameKeyedBatch, wire.AppendUint64(p, 1)); err != nil {
					t.Fatalf("probe frame after a rejected payload: %v", err)
				}
			}
			probe("u", wire.KeyTypeUint64, wire.AppendUint64(nil, 1<<63))
			probe("s", wire.KeyTypeString, wire.AppendString(nil, "probe"))
			tabU.Drain()
			tabS.Drain()
			if tabU.Keys() != 1 || tabS.Keys() != 1 {
				t.Fatalf("after a rejected payload (%v), one probe frame per table left %d and %d keys", err, tabU.Keys(), tabS.Keys())
			}
			return
		}
		if err != nil {
			t.Fatalf("a valid payload of %d pairs was rejected: %v", count, err)
		}
		if resp != wire.FrameOK || s.items.Load() != int64(count) {
			t.Fatalf("response %#x, %d items accepted, want OK and %d", resp, s.items.Load(), count)
		}
		switch kb.name {
		case "u":
			ref := table.NewTheta(fuzzThetaConfig[uint64]())
			defer ref.Close()
			if stringItems {
				ref.Writer(0).UpdateKeyedStringBatch(kb.u64Keys, kb.items)
			} else {
				ref.Writer(0).UpdateKeyedBatch(kb.u64Keys, kb.vals)
			}
			ref.Drain()
			sameTheta(t, tabU, ref, kb.u64Keys)
		case "s":
			ref := table.NewTheta(fuzzThetaConfig[string]())
			defer ref.Close()
			if stringItems {
				ref.Writer(0).UpdateKeyedStringBatch(kb.strKeys, kb.items)
			} else {
				ref.Writer(0).UpdateKeyedBatch(kb.strKeys, kb.vals)
			}
			ref.Drain()
			sameTheta(t, tabS, ref, kb.strKeys)
		}
	})
}
