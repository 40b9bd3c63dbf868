package games

import (
	"math/rand"
	"slices"
	"testing"

	"snip/internal/units"
)

// storeOpNames and storeOpPrefixes are the name and prefix pools the
// differential test draws from: nested and sibling prefixes, names
// that are prefixes of other names, the empty name, and prefixes that
// match nothing.
var (
	storeOpNames = []string{
		"", "a", "a.b", "a.c", "ab", "b.0", "b.1", "b.10", "b.2",
		"cell.00", "cell.01", "cell.10", "rngstate", "score", "z",
	}
	storeOpPrefixes = []string{
		"", "a", "a.", "b.", "b.1", "cell.", "cell.0", "r", "score", "zz", "~",
	}
)

// Get returns the value at name, zero if undeclared. Handlers read by
// handle; tests read by name.
func (s *Store) Get(name string) int64 {
	if v, ok := s.index[name]; ok {
		return s.vals[v]
	}
	return 0
}

// Size returns the modeled size of the location at name, 8 if
// undeclared.
func (s *Store) Size(name string) units.Size {
	if v, ok := s.index[name]; ok {
		return s.sizes[v]
	}
	return 8
}

// storePair is one Store under test and its oracle, kept in lockstep,
// with the handles Declare returned on the Store and the names they
// were declared under.
type storePair struct {
	got     *Store
	want    *refStore
	handles []storeHandle
}

type storeHandle struct {
	v    Var
	name string
}

// runStoreOps interprets ops as a sequence of store calls, four bytes
// per call, applied to both the Store and the reference store; every
// call's results must agree. Clone adds a pair, so later calls mutate
// sources and clones independently. A handle Declare returned must read
// and write the location the oracle reaches by name, through every
// later insert, redeclare and clone.
func runStoreOps(t *testing.T, ops []byte) {
	t.Helper()
	pairs := []*storePair{{got: NewStore(), want: newRefStore()}}
	for i := 0; i+4 <= len(ops); i += 4 {
		op, b1, b2, b3 := ops[i], ops[i+1], ops[i+2], ops[i+3]
		p := pairs[int(b1)%len(pairs)]
		name := storeOpNames[int(b2)%len(storeOpNames)]
		val := int64(b3%4) - 1
		if b3&0x80 != 0 {
			val = int64(uint64(b3) * 0x9e3779b97f4a7c15)
		}
		switch op % 10 {
		case 0:
			size := units.Size(b3 % 5 * 8)
			v := p.got.Declare(name, size, val)
			p.want.Declare(name, size, val)
			p.handles = append(p.handles, storeHandle{v, name})
		case 1:
			if g, w := p.got.Set(name, val), p.want.Set(name, val); g != w {
				t.Fatalf("op %d: Set(%q, %d) changed=%v, want %v", i/4, name, val, g, w)
			}
		case 2:
			if g, w := p.got.Get(name), p.want.Get(name); g != w {
				t.Fatalf("op %d: Get(%q) = %d, want %d", i/4, name, g, w)
			}
		case 3:
			if g, w := p.got.Size(name), p.want.Size(name); g != w {
				t.Fatalf("op %d: Size(%q) = %v, want %v", i/4, name, g, w)
			}
		case 4:
			prefix := storeOpPrefixes[int(b2)%len(storeOpPrefixes)]
			gh, gs := p.got.HashPrefix(prefix)
			wh, ws := p.want.HashPrefix(prefix)
			if gh != wh || gs != ws {
				t.Fatalf("op %d: HashPrefix(%q) = %#x/%v, want %#x/%v", i/4, prefix, gh, gs, wh, ws)
			}
		case 5:
			if g, w := p.got.Hash(), p.want.Hash(); g != w {
				t.Fatalf("op %d: Hash() = %#x, want %#x", i/4, g, w)
			}
		case 6:
			c := &storePair{p.got.Clone(), p.want.Clone(), slices.Clone(p.handles)}
			if len(pairs) < 4 {
				pairs = append(pairs, c)
			} else {
				pairs[int(b2)%len(pairs)] = c
			}
		case 7:
			if g, w := p.got.Len(), p.want.Len(); g != w {
				t.Fatalf("op %d: Len() = %d, want %d", i/4, g, w)
			}
		case 8:
			if len(p.handles) == 0 {
				continue
			}
			h := p.handles[int(b2)%len(p.handles)]
			if g, w := p.got.At(h.v), p.want.Get(h.name); g != w {
				t.Fatalf("op %d: At(%d) = %d, want %q's %d", i/4, h.v, g, h.name, w)
			}
		case 9:
			if len(p.handles) == 0 {
				continue
			}
			h := p.handles[int(b2)%len(p.handles)]
			if g, w := p.got.SetAt(h.v, val), p.want.Set(h.name, val); g != w {
				t.Fatalf("op %d: SetAt(%d, %d) changed=%v, want %q's %v", i/4, h.v, val, g, h.name, w)
			}
		}
	}
	// Every surviving store must still agree on its full digest and on
	// every pooled prefix.
	for _, p := range pairs {
		for _, h := range p.handles {
			if g, w := p.got.At(h.v), p.want.Get(h.name); g != w {
				t.Fatalf("final At(%d) = %d, want %q's %d", h.v, g, h.name, w)
			}
		}
		for _, prefix := range storeOpPrefixes {
			gh, gs := p.got.HashPrefix(prefix)
			wh, ws := p.want.HashPrefix(prefix)
			if gh != wh || gs != ws {
				t.Fatalf("final HashPrefix(%q) = %#x/%v, want %#x/%v", prefix, gh, gs, wh, ws)
			}
		}
	}
}

// storeOps encodes calls for runStoreOps.
func storeOps(calls ...[4]byte) []byte {
	var ops []byte
	for _, c := range calls {
		ops = append(ops, c[:]...)
	}
	return ops
}

// Op codes and name/prefix indexes used by the hand-written sequences.
const (
	opDeclare, opSet, opGet, opSize, opPrefix, opHash, opClone, opLen = 0, 1, 2, 3, 4, 5, 6, 7
	opAt, opSetAt                                                     = 8, 9
	nA, nAB, nAC, nB1, nB10, nCell00, nCell01, nZ                     = 1, 2, 3, 6, 7, 9, 10, 14
	pAll, pA, pB, pCell, pNone                                        = 0, 2, 3, 5, 9
)

// TestStoreMatchesReference drives hand-written edge cases and seeded
// random sequences through the Store and the reference store.
func TestStoreMatchesReference(t *testing.T) {
	cases := map[string][]byte{
		"redeclare with a new size": storeOps(
			[4]byte{opDeclare, 0, nCell00, 1}, [4]byte{opDeclare, 0, nCell01, 2},
			[4]byte{opPrefix, 0, pCell, 0}, [4]byte{opDeclare, 0, nCell01, 4},
			[4]byte{opPrefix, 0, pCell, 0}, [4]byte{opSize, 0, nCell01, 0}, [4]byte{opHash, 0, 0, 0}),
		"set same then new value": storeOps(
			[4]byte{opDeclare, 0, nA, 1}, [4]byte{opHash, 0, 0, 0},
			[4]byte{opSet, 0, nA, 1}, [4]byte{opSet, 0, nA, 2}, [4]byte{opHash, 0, 0, 0}),
		"set undeclared after hash": storeOps(
			[4]byte{opDeclare, 0, nB1, 1}, [4]byte{opDeclare, 0, nZ, 1}, [4]byte{opHash, 0, 0, 0},
			[4]byte{opPrefix, 0, pB, 0}, [4]byte{opSet, 0, nB10, 3}, [4]byte{opPrefix, 0, pB, 0},
			[4]byte{opSize, 0, nB10, 0}, [4]byte{opLen, 0, 0, 0}, [4]byte{opHash, 0, 0, 0}),
		"empty and unmatched prefixes": storeOps(
			[4]byte{opPrefix, 0, pAll, 0}, [4]byte{opPrefix, 0, pNone, 0},
			[4]byte{opDeclare, 0, nA, 2}, [4]byte{opPrefix, 0, pNone, 0}, [4]byte{opPrefix, 0, pAll, 0}),
		"mutate source then clone": storeOps(
			[4]byte{opDeclare, 0, nAB, 1}, [4]byte{opDeclare, 0, nAC, 1}, [4]byte{opPrefix, 0, pA, 0},
			[4]byte{opClone, 0, 0, 0}, [4]byte{opSet, 0, nAB, 2}, [4]byte{opSet, 0, nCell00, 2},
			[4]byte{opPrefix, 1, pA, 0}, [4]byte{opHash, 1, 0, 0}, [4]byte{opSet, 1, nA, 3},
			[4]byte{opDeclare, 1, nAC, 3}, [4]byte{opPrefix, 0, pA, 0}, [4]byte{opPrefix, 1, pA, 0},
			[4]byte{opLen, 0, 0, 0}, [4]byte{opLen, 1, 0, 0}),
		"handle across inserts, redeclares and clones": storeOps(
			[4]byte{opDeclare, 0, nZ, 1}, [4]byte{opDeclare, 0, nCell01, 2}, [4]byte{opPrefix, 0, pCell, 0},
			[4]byte{opSet, 0, nA, 3}, [4]byte{opDeclare, 0, nCell00, 0}, [4]byte{opAt, 0, 0, 0},
			[4]byte{opSetAt, 0, 1, 0x81}, [4]byte{opPrefix, 0, pCell, 0}, [4]byte{opDeclare, 0, nCell01, 12},
			[4]byte{opAt, 0, 1, 0}, [4]byte{opClone, 0, 0, 0}, [4]byte{opSetAt, 1, 0, 2},
			[4]byte{opDeclare, 1, nAB, 1}, [4]byte{opAt, 1, 0, 0}, [4]byte{opAt, 0, 0, 0},
			[4]byte{opSetAt, 0, 3, 0x90}, [4]byte{opPrefix, 1, pCell, 0}, [4]byte{opHash, 0, 0, 0}),
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { runStoreOps(t, ops) })
	}
	rnd := rand.New(rand.NewSource(1))
	for seq := 0; seq < 300; seq++ {
		ops := make([]byte, 4*(1+rnd.Intn(200)))
		rnd.Read(ops)
		runStoreOps(t, ops)
	}
}

// FuzzStoreOps checks the Store against the reference store on
// arbitrary call sequences.
func FuzzStoreOps(f *testing.F) {
	f.Add(storeOps([4]byte{opDeclare, 0, nA, 1}, [4]byte{opHash, 0, 0, 0}))
	f.Add(storeOps(
		[4]byte{opDeclare, 0, nCell00, 1}, [4]byte{opClone, 0, 0, 0}, [4]byte{opSet, 1, nCell01, 2},
		[4]byte{opPrefix, 0, pCell, 0}, [4]byte{opPrefix, 1, pCell, 0}, [4]byte{opDeclare, 0, nCell00, 4}))
	f.Add(storeOps(
		[4]byte{opDeclare, 0, nB10, 1}, [4]byte{opHash, 0, 0, 0}, [4]byte{opSet, 0, nA, 2},
		[4]byte{opClone, 0, 0, 0}, [4]byte{opSetAt, 1, 0, 3}, [4]byte{opAt, 0, 0, 0}, [4]byte{opAt, 1, 0, 0}))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runStoreOps(t, ops)
	})
}
