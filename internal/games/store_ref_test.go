package games

import (
	"sort"
	"strings"

	"snip/internal/trace"
	"snip/internal/units"
)

// refStore is the original map-backed state store, kept verbatim (only
// renamed) as the oracle the slot-indexed Store is checked against:
// every location in a pair of string-keyed maps, digests folded over a
// freshly sorted key list on every call.
type refStore struct {
	vals  map[string]int64
	sizes map[string]units.Size
	// sorted is the cached key ordering for HashPrefix; nil when a key
	// was added since the last hash.
	sorted []string
}

// newRefStore returns an empty store.
func newRefStore() *refStore {
	return &refStore{vals: make(map[string]int64), sizes: make(map[string]units.Size)}
}

// Declare registers a location with its modeled size and initial value.
func (s *refStore) Declare(name string, size units.Size, init int64) {
	if _, ok := s.vals[name]; !ok {
		s.sorted = nil
	}
	s.vals[name] = init
	s.sizes[name] = size
}

// Get returns the value at name (zero if undeclared).
func (s *refStore) Get(name string) int64 { return s.vals[name] }

// Set stores a value, reporting whether it changed. Setting an undeclared
// location declares it with size 8.
func (s *refStore) Set(name string, v int64) (changed bool) {
	old, ok := s.vals[name]
	if !ok {
		s.sizes[name] = 8
		s.sorted = nil
	}
	s.vals[name] = v
	return !ok || old != v
}

// Size returns the modeled size of a location.
func (s *refStore) Size(name string) units.Size {
	if sz, ok := s.sizes[name]; ok {
		return sz
	}
	return 8
}

// HashPrefix digests all locations whose name starts with prefix, in
// sorted key order, together with their summed size. Games use it to read
// composite state blobs (a whole board, a scene mesh) as one In.History
// field.
func (s *refStore) HashPrefix(prefix string) (hash uint64, size units.Size) {
	if s.sorted == nil {
		s.sorted = make([]string, 0, len(s.vals))
		for k := range s.vals {
			s.sorted = append(s.sorted, k)
		}
		sort.Strings(s.sorted)
	}
	hash = 1469598103934665603
	for _, k := range s.sorted {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		hash = trace.Combine(hash, trace.HashString(k))
		hash = trace.Combine(hash, uint64(s.vals[k]))
		size += s.Size(k)
	}
	return hash, size
}

// Hash digests the entire store.
func (s *refStore) Hash() uint64 {
	h, _ := s.HashPrefix("")
	return h
}

// Clone deep-copies the store.
func (s *refStore) Clone() *refStore {
	c := newRefStore()
	c.sorted = s.sorted
	for k, v := range s.vals {
		c.vals[k] = v
	}
	for k, v := range s.sizes {
		c.sizes[k] = v
	}
	return c
}

// Len returns the number of declared locations.
func (s *refStore) Len() int { return len(s.vals) }
