package games

import (
	"fmt"
	"sort"
	"sync"
)

// Factory constructs a fresh game instance.
type Factory func() Game

var catalog = map[string]Factory{
	"Colorphun":    NewColorphun,
	"MemoryGame":   NewMemoryGame,
	"CandyCrush":   NewCandyCrush,
	"Greenwall":    NewGreenwall,
	"ABEvolution":  NewABEvolution,
	"ChaseWhisply": NewChaseWhisply,
	"RaceKings":    NewRaceKings,
}

// paperOrder is the x-axis ordering the paper uses in Figs. 2–4: sorted by
// complexity of game play, lightest first.
var paperOrder = []string{
	"Colorphun",
	"MemoryGame",
	"CandyCrush",
	"Greenwall",
	"ABEvolution",
	"ChaseWhisply",
	"RaceKings",
}

// Names returns all game names in the paper's complexity order.
func Names() []string { return append([]string(nil), paperOrder...) }

// New builds a game by name.
func New(name string) (Game, error) {
	f, ok := catalog[name]
	if !ok {
		known := make([]string, 0, len(catalog))
		for k := range catalog {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("games: unknown game %q (known: %v)", name, known)
	}
	return f(), nil
}

// MustNew builds a game by name and panics on an unknown name.
func MustNew(name string) Game {
	g, err := New(name)
	if err != nil {
		panic(err)
	}
	return g
}

// kept holds, per game name, the games handed back with Return.
var kept = func() map[string]*sync.Pool {
	m := make(map[string]*sync.Pool, len(catalog))
	for name, f := range catalog {
		m[name] = &sync.Pool{New: func() any { return f() }}
	}
	return m
}()

// Borrow returns a game by name, Reset to seed: one handed back with
// Return if there is one, else a new one. A game Reset to a seed plays
// as a new one does, so the caller cannot tell which it got. An unknown
// name gets New's error.
func Borrow(name string, seed uint64) (Game, error) {
	p, ok := kept[name]
	if !ok {
		return New(name)
	}
	g := p.Get().(Game)
	g.Reset(seed)
	return g, nil
}

// Return hands back a game from Borrow for a later Borrow of its name.
// The caller must not use the game, or an Execution it returned, again.
func Return(g Game) { kept[g.Name()].Put(g) }

// All returns fresh instances of every game in paper order.
func All() []Game {
	out := make([]Game, 0, len(paperOrder))
	for _, n := range paperOrder {
		out = append(out, MustNew(n))
	}
	return out
}

// ForceInclude returns the PFI ForceInclude set for a named game: the
// fields in base plus the fields the game's developer marked as
// necessary (Game.Overrides). base is never modified; it comes back
// unchanged when the game is unknown or marks no fields.
func ForceInclude(name string, base map[string]bool) map[string]bool {
	g, err := New(name)
	if err != nil || len(g.Overrides()) == 0 {
		return base
	}
	merged := make(map[string]bool, len(base)+len(g.Overrides()))
	for k, v := range base {
		merged[k] = v
	}
	for _, f := range g.Overrides() {
		merged[f] = true
	}
	return merged
}
