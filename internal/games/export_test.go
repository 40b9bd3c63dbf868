package games

import "slices"

// Handles returns the name of every location g's store declares,
// indexed by handle, and the store's layout.
func Handles(g Game) (names []string, layout uint64) {
	s := g.(interface{ stateStore() *Store }).stateStore()
	return slices.Clone(s.names), s.layout
}

func (b *base) stateStore() *Store { return b.store }
