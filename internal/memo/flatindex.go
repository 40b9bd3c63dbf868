package memo

import (
	"encoding/binary"

	"snip/internal/trace"
	"snip/internal/units"
)

// The flat table's probe path: two open-addressing (linear-probe) slot
// arrays over the arena. The first hashes Combine(type hash, event key)
// to the bucket record; the second hashes Combine(bucket hash, state
// key) to the exact entry, so hits and misses both resolve in O(1)
// regardless of bucket size — the same property the map backend gets
// from its ByKey map. The charged costs stay the paper's: the modeled
// hardware scans the bucket's state keys linearly, so a hit is charged
// its scan position (the builder stores entries in scan order) and a
// miss the full bucket length, both read from the records, never from
// the probe chain. A combined-hash collision between distinct keys just
// lengthens a walk — every slot's target is verified against the full
// key (and, for entries, the bucket's range) before use, so the wrong
// bucket or entry can never be returned. Every read is against the
// arena; nothing on this path allocates (gated by ci.sh).

// probeIndex walks the slot array for the bucket keyed by (th, ek),
// whose probe chain starts at h = Combine(th, ek), and returns its
// bucket index.
func (t *FlatTable) probeIndex(h, th, ek uint64) (bucket uint64, ok bool) {
	arena := t.arena
	slot := h & t.slotMask
	for {
		sv := binary.LittleEndian.Uint32(arena[t.slotsOff+4*int(slot):])
		if sv == 0 {
			return 0, false
		}
		bi := uint64(sv - 1)
		rec := arena[t.bucketsOff+flatBucketRecLen*int(bi):]
		if binary.LittleEndian.Uint64(rec) == th && binary.LittleEndian.Uint64(rec[8:]) == ek {
			return bi, true
		}
		slot = (slot + 1) & t.slotMask
	}
}

// probeEntry walks the entry slot array for the entry keyed by sk inside
// the bucket [first, first+count), whose probe chain starts at h =
// Combine(bucket hash, sk). The range check disambiguates equal state
// keys living in different buckets.
func (t *FlatTable) probeEntry(h, sk uint64, first, count uint32) (idx uint32, ok bool) {
	arena := t.arena
	lo, hi := uint64(first), uint64(first)+uint64(count)
	slot := h & t.eSlotMask
	for {
		sv := binary.LittleEndian.Uint32(arena[t.eSlotsOff+4*int(slot):])
		if sv == 0 {
			return 0, false
		}
		ei := uint64(sv - 1)
		if ei >= lo && ei < hi && binary.LittleEndian.Uint64(arena[t.keysOff+8*int(ei):]) == sk {
			return uint32(ei), true
		}
		slot = (slot + 1) & t.eSlotMask
	}
}

// lookup is the uninstrumented probe Lookup wraps. The branch structure
// and cost accounting mirror SnipTable.lookup exactly: unknown type →
// (nil, 0, 0); known type, absent bucket → one charged probe; hit at
// scan position i → i+1 probes; miss in a populated bucket → one probe
// per candidate. The equivalence property tests compare the two
// backends call by call.
func (t *FlatTable) lookup(eventType string, resolve Resolver) (entry *SnipEntry, probes int64, comparedBytes units.Size, ok bool) {
	ft, known := t.types[eventType]
	if !known {
		return nil, 0, 0, false
	}
	ek, sk := keys(ft.fields, ft.steps, resolve)
	bh := trace.Combine(ft.hash, ek)
	bi, found := t.probeIndex(bh, ft.hash, ek)
	if !found {
		return nil, 1, ft.width, false
	}
	rec := t.arena[t.bucketsOff+flatBucketRecLen*int(bi):]
	first := binary.LittleEndian.Uint32(rec[16:])
	count := binary.LittleEndian.Uint32(rec[20:])
	idx, hit := t.probeEntry(trace.Combine(bh, sk), sk, first, count)
	if hit {
		probes = int64(idx-first) + 1
	} else {
		probes = int64(count)
		if probes == 0 {
			probes = 1
		}
	}
	comparedBytes = units.Size(probes) * ft.width
	if !hit {
		return nil, probes, comparedBytes, false
	}
	return &t.entries[idx], probes, comparedBytes, true
}
