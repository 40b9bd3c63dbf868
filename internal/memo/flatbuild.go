package memo

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"snip/internal/trace"
)

// BuildFlat builds the flat table of a profile under a selection
// straight from the profile's columns. Its image is byte-identical to
// FlatImage of BuildSnip's table (pinned by the oracle tests), but no
// map table is built: each row is keyed in place, the first-profiled row
// of each (type, event key, state key) becomes the entry, and the
// entry's outputs are written from that row's cells, their names pooled
// once per dictionary field. Like BuildSnip, it canonicalizes sel.
func BuildFlat(d *trace.Dataset, sel Selection) (*FlatTable, error) {
	sel.Canonicalize()
	keyers := make([]*rowKeyer, d.NumTypes())
	// buckets pairs (type id, event key) and entries (bucket id, state
	// key), each in first-profiled order; row[e] is entry e's row.
	var buckets, entries pairIndex
	var row []int32
	fields := 0
	for i := 0; i < d.Len(); i++ {
		r := d.Row(i)
		k := keyers[r.Type]
		if k == nil {
			fs := sel[d.TypeName(r.Type)]
			k = newRowKeyer(d, fs, fieldSteps(fs))
			keyers[r.Type] = k
		}
		ek, sk := k.keys(r.Inputs)
		b, _ := buckets.id(r.Type, ek)
		if _, added := entries.id(uint32(b), sk); added {
			row = append(row, int32(i))
			fields += len(r.Outputs)
		}
	}

	// Canonical order: owning types by name, then event keys. The
	// entries of a bucket keep their first-profiled order.
	var owning []uint32
	for t, k := range keyers {
		if k != nil {
			owning = append(owning, uint32(t))
		}
	}
	slices.SortFunc(owning, func(a, b uint32) int { return strings.Compare(d.TypeName(a), d.TypeName(b)) })
	types := make([]string, len(owning))
	typeRank := make([]int, d.NumTypes())
	for rank, t := range owning {
		types[rank], typeRank[t] = d.TypeName(t), rank
	}
	order := make([]int32, len(buckets.key))
	for b := range order {
		order[b] = int32(b)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(typeRank[buckets.owner[a]], typeRank[buckets.owner[b]]),
			cmp.Compare(buckets.key[a], buckets.key[b]))
	})
	// Counting sort of the entries into bucket order.
	count := make([]int32, len(order))
	for _, b := range entries.owner {
		count[b]++
	}
	pos := make([]int32, len(order))
	next := int32(0)
	for _, b := range order {
		pos[b] = next
		next += count[b]
	}
	sorted := make([]int32, len(row))
	for e, b := range entries.owner {
		sorted[pos[b]] = int32(e)
		pos[b]++
	}

	w, err := newImageWriter(sel, types, len(order), len(row), fields)
	if err != nil {
		return nil, err
	}
	typeHashes := d.TypeHashes()
	nameRef := make([]uint32, d.NumFields()) // 1 + pool index, 0 = not pooled yet
	for _, b := range order {
		n := int(count[b])
		w.bucket(typeHashes[buckets.owner[b]], buckets.key[b], n)
		for _, e := range sorted[pos[b]-count[b] : pos[b]] {
			r := d.Row(int(row[e]))
			w.entry(entries.key[e], r.Instr, len(r.Outputs))
			for _, c := range r.Outputs {
				f := d.Field(c.ID)
				if nameRef[c.ID] == 0 {
					nameRef[c.ID] = w.name(f.Name) + 1
				}
				w.field(nameRef[c.ID]-1, f.Category, f.Size, c.Value)
			}
		}
	}
	img, err := w.image()
	if err != nil {
		return nil, err
	}
	return LoadFlatTable(img)
}

// pairIndex assigns dense ids, in first-seen order, to (owner, key)
// pairs: an open-addressing table over owner[id] and key[id].
type pairIndex struct {
	owner []uint32
	key   []uint64
	slots []int32 // 1 + id, 0 = empty; at most half full
	shift uint    // slot of a pair = its mixed hash >> shift
}

// id returns the pair's id, adding the pair if it is new.
func (x *pairIndex) id(owner uint32, key uint64) (id int, added bool) {
	if 2*(len(x.key)+1) > len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	for s := int(pairHash(owner, key) >> x.shift); ; s = (s + 1) & mask {
		v := x.slots[s]
		if v == 0 {
			x.owner = append(x.owner, owner)
			x.key = append(x.key, key)
			x.slots[s] = int32(len(x.key))
			return len(x.key) - 1, true
		}
		if x.key[v-1] == key && x.owner[v-1] == owner {
			return int(v - 1), false
		}
	}
}

// grow doubles the slot array (to 1024 at first) and re-slots every
// pair.
func (x *pairIndex) grow() {
	n := max(1024, 2*len(x.slots))
	x.slots = make([]int32, n)
	x.shift = uint(64 - bits.Len(uint(n-1)))
	mask := n - 1
	for i := range x.key {
		s := int(pairHash(x.owner[i], x.key[i]) >> x.shift)
		for x.slots[s] != 0 {
			s = (s + 1) & mask
		}
		x.slots[s] = int32(i + 1)
	}
}

func pairHash(owner uint32, key uint64) uint64 {
	return (key ^ uint64(owner)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
}
