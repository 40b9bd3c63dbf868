// Package games implements the seven game workloads the paper
// characterizes (Colorphun, Memory Game, Candy Crush, Greenwall,
// AB Evolution, Chase Whisply, Race Kings) on top of a small event-driven
// game engine. Each game is a deterministic state machine whose handlers:
//
//   - read In.Event fields from the event object, In.History fields from
//     the game's state store, and In.Extern fields from outside sources;
//   - burn CPU work (as named functions, so the Max CPU baseline can
//     memoize them individually) and invoke accelerator IPs;
//   - write Out.Temp, Out.History and Out.Extern fields.
//
// Every write is captured in a trace.Record. A caller that passes a
// profile gets the whole execution, reads included, logged as a row of
// it: the cloud's replay and the figures' baseline profile, which PFI
// trains on. Devices upload events-only logs (§VI) and pass none.
// Redundant and useless events are not injected — they emerge from game
// mechanics, e.g. dragging AB Evolution's catapult past max stretch
// changes nothing.
package games

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"snip/internal/energy"
	"snip/internal/events"
	"snip/internal/rng"
	"snip/internal/soc"
	"snip/internal/trace"
	"snip/internal/units"
)

// CPUFunc is one named CPU computation inside an event handler. The Max
// CPU baseline memoizes at this granularity: a repeated (Name, InputHash)
// pair lets prior-work techniques skip the function body.
type CPUFunc struct {
	Name      string
	InputHash uint64
	Instr     int64
	MemBytes  units.Size
	// Pure marks register-level computations whose inputs prior-work
	// memoization can locate statically (paper Fig. 5a). Functions that
	// chase dynamic heap structures (scene graphs, cascades, UI trees —
	// Fig. 5b) are not memoizable by the Max CPU baseline.
	Pure bool
}

// Execution is the result of processing one event: the trace record and
// the hardware work, split so that schemes can run all, part, or none of
// it.
type Execution struct {
	Record   *trace.Record
	CPUFuncs []CPUFunc
	IPCalls  []soc.IPCall
}

// Work assembles the full work unit (baseline execution).
func (x *Execution) Work() soc.Work {
	var w soc.Work
	for _, f := range x.CPUFuncs {
		w.CPUInstr += f.Instr
		w.MemBytes += f.MemBytes
	}
	w.IPCalls = append(w.IPCalls, x.IPCalls...)
	return w
}

// CPUWork assembles only the CPU segments whose (Name, InputHash) has not
// been seen by the provided memo map; seen Pure segments are skipped
// (impure segments always run — their inputs cannot be located apriori).
// Passing nil runs everything. Used by the Max CPU scheme.
func (x *Execution) CPUWork(seen map[string]map[uint64]bool) (w soc.Work, skippedInstr int64) {
	for _, f := range x.CPUFuncs {
		if seen != nil && f.Pure {
			byHash := seen[f.Name]
			if byHash != nil && byHash[f.InputHash] {
				skippedInstr += f.Instr
				continue
			}
			if byHash == nil {
				byHash = make(map[uint64]bool)
				seen[f.Name] = byHash
			}
			byHash[f.InputHash] = true
		}
		w.CPUInstr += f.Instr
		w.MemBytes += f.MemBytes
	}
	return w, skippedInstr
}

// Game is one simulated game workload.
type Game interface {
	// Name returns the game's display name as used in the paper's figures.
	Name() string
	// Reset reinitializes all state deterministically from a seed.
	Reset(seed uint64)
	// Types returns the event types the game registers handlers for.
	Types() []events.Type
	// Process executes one event against current state, mutating it and
	// returning the traced execution. With a nil profile the record
	// carries the outputs. A non-nil profile gets a row instead, holding
	// the event hash, the pre-state hash, every input and the outputs,
	// and the record carries no outputs. StateChanged, Instr, the work
	// and every state mutation are the same either way. Only callers
	// that read inputs pass a profile. Process does not retain e.
	Process(e *events.Event, profile *trace.Dataset) *Execution
	// Clone returns an independent deep copy (for shadow execution when
	// checking short-circuit correctness).
	Clone() Game
	// ApplyOutputs applies memoized Out.History outputs to the state
	// without executing — the short-circuit path.
	ApplyOutputs(fields []trace.Field)
	// Overrides returns the developer-marked necessary input fields
	// (§V-B Option 1): locations the developer knows the handlers branch
	// on, fed to PFI as ForceInclude so rare-but-critical fields survive
	// elimination even when the profile under-samples them.
	Overrides() []string
	// PeekField reads the live value of a traced input field by its
	// record name ("state.foo", "state.bar.*") WITHOUT executing — what
	// the SNIP runtime does when comparing necessary inputs before
	// deciding to short-circuit. Returns ok=false for fields that cannot
	// be read ahead of execution (e.g. "extern.*" network data).
	PeekField(name string) (uint64, bool)
	// StateHash digests all persistent state.
	StateHash() uint64
}

// Store holds a game's mutable state as named int64 locations, each with
// a modeled byte size (the size a real implementation's data would occupy
// — what lookup-table records are charged for). Keeping ALL mutable state
// here makes cloning and short-circuit output application generic.
//
// Locations live in slots in sorted-name order, so a prefix's locations
// are one contiguous slot range. A digest caches the Combine chain state
// after each slot of its range; a write marks chains stale from its slot
// on, and the next digest refolds only from there.
type Store struct {
	// The name side: slot by name, and per slot the name, the key-chain
	// step of its hash and its record name. Clones share it until one
	// adds a location.
	slot   map[string]int32
	names  []string
	step   []trace.Step
	qual   []string
	shared bool

	vals  []int64
	sizes []units.Size
	// digests caches HashPrefix results; digest d's chain states are
	// chains[d.off : d.off+d.hi-d.lo].
	digests []digest
	chains  []uint64
}

// digest is one cached HashPrefix result: the slot range [lo, hi) of a
// prefix, its summed size, its blob record name, and how many leading
// chain states are current.
type digest struct {
	prefix, blob      string
	lo, hi, off, done int32
	size              units.Size
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{slot: make(map[string]int32)} }

// Declare registers a location with its modeled size and initial value.
func (s *Store) Declare(name string, size units.Size, init int64) {
	i, ok := s.slot[name]
	if !ok {
		s.insert(name, size, init)
		return
	}
	s.setSlot(i, init)
	if s.sizes[i] != size {
		// Digests carry their range's summed size: rebuild them.
		s.sizes[i] = size
		s.digests, s.chains = s.digests[:0], s.chains[:0]
	}
}

// Get returns the value at name (zero if undeclared).
func (s *Store) Get(name string) int64 {
	if i, ok := s.slot[name]; ok {
		return s.vals[i]
	}
	return 0
}

// Set stores a value, reporting whether it changed. Setting an undeclared
// location declares it with size 8.
func (s *Store) Set(name string, v int64) (changed bool) {
	_, changed = s.write(name, v)
	return changed
}

// Size returns the modeled size of a location.
func (s *Store) Size(name string) units.Size {
	if i, ok := s.slot[name]; ok {
		return s.sizes[i]
	}
	return 8
}

// HashPrefix digests all locations whose name starts with prefix, in
// sorted key order, together with their summed size. Games use it to read
// composite state blobs (a whole board, a scene mesh) as one In.History
// field.
func (s *Store) HashPrefix(prefix string) (hash uint64, size units.Size) {
	d := s.digest(prefix)
	return s.fold(d), d.size
}

// Hash digests the entire store.
func (s *Store) Hash() uint64 {
	h, _ := s.HashPrefix("")
	return h
}

// Clone copies the store's values, sizes and digests; the name side is
// shared copy-on-write.
func (s *Store) Clone() *Store {
	c := *s
	c.vals, c.sizes = slices.Clone(s.vals), slices.Clone(s.sizes)
	c.digests, c.chains = slices.Clone(s.digests), slices.Clone(s.chains)
	s.shared, c.shared = true, true
	return &c
}

// Len returns the number of declared locations.
func (s *Store) Len() int { return len(s.vals) }

// write stores a value like Set, returning the location's slot.
func (s *Store) write(name string, v int64) (int32, bool) {
	if i, ok := s.slot[name]; ok {
		return i, s.setSlot(i, v)
	}
	return s.insert(name, 8, v), true
}

// setSlot stores a value and marks the chains covering the slot stale
// from it on.
func (s *Store) setSlot(i int32, v int64) bool {
	if s.vals[i] == v {
		return false
	}
	s.vals[i] = v
	for k := range s.digests {
		if d := &s.digests[k]; d.lo <= i && i-d.lo < d.done {
			d.done = i - d.lo
		}
	}
	return true
}

// insert adds a location at its sorted slot. Later slots shift, so every
// digest is dropped.
func (s *Store) insert(name string, size units.Size, v int64) int32 {
	if s.shared {
		s.slot, s.shared = maps.Clone(s.slot), false
		s.names, s.step, s.qual = slices.Clone(s.names), slices.Clone(s.step), slices.Clone(s.qual)
	}
	i, _ := slices.BinarySearch(s.names, name)
	s.names = slices.Insert(s.names, i, name)
	s.step = slices.Insert(s.step, i, trace.StepOf(trace.HashString(name)))
	s.qual = slices.Insert(s.qual, i, "state."+name)
	s.vals = slices.Insert(s.vals, i, v)
	s.sizes = slices.Insert(s.sizes, i, size)
	for j := i; j < len(s.names); j++ {
		s.slot[s.names[j]] = int32(j)
	}
	s.digests, s.chains = s.digests[:0], s.chains[:0]
	return int32(i)
}

// digest returns prefix's cached digest, adding it if absent.
func (s *Store) digest(prefix string) *digest {
	for k := range s.digests {
		if s.digests[k].prefix == prefix {
			return &s.digests[k]
		}
	}
	lo, _ := slices.BinarySearch(s.names, prefix)
	d := digest{prefix: prefix, blob: "state." + prefix + "*", lo: int32(lo), hi: int32(lo), off: int32(len(s.chains))}
	for ; int(d.hi) < len(s.names) && strings.HasPrefix(s.names[d.hi], prefix); d.hi++ {
		d.size += s.sizes[d.hi]
	}
	s.chains = append(s.chains, make([]uint64, d.hi-d.lo)...)
	s.digests = append(s.digests, d)
	return &s.digests[len(s.digests)-1]
}

// fold brings d's chain up to date and returns the digest: trace.KeySeed,
// then each location's name hash and value Combined in slot order.
func (s *Store) fold(d *digest) uint64 {
	chain := s.chains[d.off : d.off+d.hi-d.lo]
	h := trace.KeySeed
	if d.done > 0 {
		h = chain[d.done-1]
	}
	for ; d.done < d.hi-d.lo; d.done++ {
		i := d.lo + d.done
		h = s.step[i].Fold(h, uint64(s.vals[i]))
		chain[d.done] = h
	}
	return h
}

// Ctx is the execution context a handler records into. It implements the
// tracer: every state read/write flows through it. The execution and its
// record live inside it, so a handler call allocates all three at once.
type Ctx struct {
	store *Store
	prof  *trace.Dataset // non-nil: the execution is logged as a row of it
	rec   trace.Record
	exec  Execution
}

func newCtx(store *Store, e *events.Event, profile *trace.Dataset) *Ctx {
	c := &Ctx{store: store, prof: profile}
	c.rec.EventSeq, c.rec.EventType, c.rec.Time = e.Seq, e.Type.String(), e.Time
	c.exec.Record = &c.rec
	if profile != nil {
		profile.BeginRow(e.Seq, c.rec.EventType, e.Time, e.Hash(), store.Hash())
	}
	return c
}

// eventFieldNames holds the record name of every event field,
// "event.<type>.<field>", indexed by type and schema position.
var eventFieldNames = func() (names [events.NumTypes][]string) {
	for t := events.Type(0); int(t) < events.NumTypes; t++ {
		for _, f := range events.Schema(t) {
			names[t] = append(names[t], "event."+t.String()+"."+f.Name)
		}
	}
	return names
}()

// Event reads a field of the event object, logging an In.Event input.
func (c *Ctx) Event(e *events.Event, name string) int64 {
	i := events.FieldIndex(e.Type, name)
	if i < 0 {
		e.MustField(name) // panics with the missing field's name
	}
	v := e.Values[i]
	if c.prof != nil {
		c.prof.LogInput("", eventFieldNames[e.Type][i], trace.InEvent, events.Schema(e.Type)[i].Size, uint64(v))
	}
	return v
}

// Read reads a state location, logging an In.History input.
func (c *Ctx) Read(name string) int64 {
	if c.prof == nil {
		return c.store.Get(name)
	}
	i, ok := c.store.slot[name]
	if !ok {
		c.prof.LogInput("state.", name, trace.InHistory, 8, 0)
		return 0
	}
	v := c.store.vals[i]
	c.prof.LogInput("", c.store.qual[i], trace.InHistory, c.store.sizes[i], uint64(v))
	return v
}

// ReadBlob reads a composite state region (all locations under prefix) as
// one large In.History field, logging its combined hash and size.
func (c *Ctx) ReadBlob(prefix string) uint64 {
	d := c.store.digest(prefix)
	h := c.store.fold(d)
	if c.prof != nil {
		c.prof.LogInput("", d.blob, trace.InHistory, d.size, h)
	}
	return h
}

// Extern reads data from outside the app (network, asset pack), logging
// an In.Extern input of the given size.
func (c *Ctx) Extern(name string, size units.Size, value int64) int64 {
	if c.prof != nil {
		c.prof.LogInput("extern.", name, trace.InExtern, size, uint64(value))
	}
	return value
}

// output logs an output field named prefix+name: into the profile's row
// when there is one, else into the record.
func (c *Ctx) output(prefix, name string, cat trace.Category, size units.Size, value uint64) {
	if c.prof != nil {
		c.prof.LogOutput(prefix, name, cat, size, value)
		return
	}
	c.rec.Outputs = append(c.rec.Outputs, trace.Field{Name: prefix + name, Category: cat, Size: size, Value: value})
}

// Write stores a value, logging an Out.History output. It marks the
// record state-changed iff the value differs from the previous one.
func (c *Ctx) Write(name string, v int64) {
	i, changed := c.store.write(name, v)
	c.output("", c.store.qual[i], trace.OutHistory, c.store.sizes[i], uint64(v))
	if changed {
		c.rec.StateChanged = true
	}
}

// Temp emits a transient user-facing output (frame tile, haptic buzz),
// logging an Out.Temp output. Temp outputs never mark state changed.
func (c *Ctx) Temp(name string, size units.Size, value uint64) {
	c.output("temp.", name, trace.OutTemp, size, value)
}

// Send emits data leaving the device (score upload, multiplayer sync),
// logging an Out.Extern output. Extern sends always count as a state
// change: the outside world observed them.
func (c *Ctx) Send(name string, size units.Size, value uint64) {
	c.output("extern.", name, trace.OutExtern, size, value)
	c.rec.StateChanged = true
}

// Rand draws a pseudo-random value in [0, mod) from the game's OWN traced
// PRNG state. Randomness lives in the store ("rngstate") so that it is an
// honest In.History input: outputs that depend on fresh randomness are
// only memoizable when the PRNG state itself matches, exactly as in a
// real game whose RNG lives in memory.
func (c *Ctx) Rand(mod int64) int64 {
	s := c.Read("rngstate")
	s = s*6364136223846793005 + 1442695040888963407
	c.Write("rngstate", s)
	v := (s >> 17) % mod
	if v < 0 {
		v += mod
	}
	return v
}

// CPU records a named CPU computation that traverses dynamic memory
// (not memoizable by prior-work CPU techniques).
func (c *Ctx) CPU(name string, inputHash uint64, instr int64, mem units.Size) {
	c.exec.CPUFuncs = append(c.exec.CPUFuncs, CPUFunc{
		Name: name, InputHash: inputHash, Instr: instr, MemBytes: mem,
	})
}

// CPUPure records a register-level CPU computation with statically
// locatable inputs — the kind prior-work memoization (Max CPU) can reuse.
func (c *Ctx) CPUPure(name string, inputHash uint64, instr int64, mem units.Size) {
	c.exec.CPUFuncs = append(c.exec.CPUFuncs, CPUFunc{
		Name: name, InputHash: inputHash, Instr: instr, MemBytes: mem, Pure: true,
	})
}

// IP records an accelerator invocation.
func (c *Ctx) IP(ip energy.Component, op string, inputHash uint64, dur units.Time, mem units.Size) {
	c.exec.IPCalls = append(c.exec.IPCalls, soc.IPCall{
		IP: ip, Op: op, InputHash: inputHash, Duration: dur, MemBytes: mem,
	})
}

// finish computes the record's instruction weight: CPU instructions plus
// an instruction-equivalent for IP busy time, so heavy-GPU events carry
// the execution weight the paper's coverage metric gives them. A logged
// execution's row closes here.
func (c *Ctx) finish() *Execution {
	var instr int64
	for _, f := range c.exec.CPUFuncs {
		instr += f.Instr
	}
	for _, ip := range c.exec.IPCalls {
		instr += int64(ip.Duration) * 1200 // ≈ instructions a core would burn in that time
	}
	c.rec.Instr = instr
	if c.prof != nil {
		c.prof.EndRow(instr, c.rec.StateChanged)
	}
	return &c.exec
}

// base provides the shared Game plumbing: the store, deterministic
// content RNG, and generic Clone/ApplyOutputs/StateHash.
type base struct {
	name  string
	store *Store
	rnd   *rng.Source
	types []events.Type
}

func newBase(name string, types []events.Type) base {
	return base{name: name, store: NewStore(), rnd: rng.New(1), types: types}
}

// Name implements Game.
func (b *base) Name() string { return b.name }

// Types implements Game.
func (b *base) Types() []events.Type { return append([]events.Type(nil), b.types...) }

// StateHash implements Game.
func (b *base) StateHash() uint64 { return b.store.Hash() }

// Overrides implements Game; games with developer annotations shadow it.
func (b *base) Overrides() []string { return nil }

// ApplyOutputs implements Game: Out.History fields are written straight
// into the store (the short-circuit path).
func (b *base) ApplyOutputs(fields []trace.Field) {
	for _, f := range fields {
		if f.Category != trace.OutHistory {
			continue
		}
		name := strings.TrimPrefix(f.Name, "state.")
		b.store.Set(name, int64(f.Value))
	}
}

// PeekField implements Game: state fields resolve against the store
// (including "prefix.*" blob digests); everything else is unreadable
// before execution.
func (b *base) PeekField(name string) (uint64, bool) {
	n, ok := strings.CutPrefix(name, "state.")
	if !ok {
		return 0, false
	}
	if prefix, isBlob := strings.CutSuffix(n, "*"); isBlob {
		h, _ := b.store.HashPrefix(prefix)
		return h, true
	}
	return uint64(b.store.Get(n)), true
}

func (b *base) resetBase(seed uint64) {
	b.store = NewStore()
	b.rnd = rng.New(seed)
}

func (b *base) cloneBase() base {
	c := *b
	c.store = b.store.Clone()
	// The RNG is part of game state (content generation order matters).
	rc := *b.rnd
	c.rnd = &rc
	return c
}

func (b *base) ctx(e *events.Event, profile *trace.Dataset) *Ctx { return newCtx(b.store, e, profile) }

// errUnhandled panics for event types the game did not register.
func (b *base) errUnhandled(e *events.Event) {
	panic(fmt.Sprintf("games: %s does not handle %v", b.name, e.Type))
}
