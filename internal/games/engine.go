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
// it. A game reuses one Execution, its Record and their slices for every
// event it processes (see Game.Process).
type Execution struct {
	Record   *trace.Record
	CPUFuncs []CPUFunc
	IPCalls  []soc.IPCall
}

// Work assembles the full work unit (baseline execution). Its IPCalls
// is a view of the execution's, capped at its length, so appending to it
// copies rather than writes into the game's reused buffer.
func (x *Execution) Work() soc.Work {
	var w soc.Work
	for _, f := range x.CPUFuncs {
		w.CPUInstr += f.Instr
		w.MemBytes += f.MemBytes
	}
	n := len(x.IPCalls)
	w.IPCalls = x.IPCalls[:n:n]
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
	//
	// The game reuses one Execution for every event: the one Process
	// returns, its Record and their slices are valid until the game's
	// next Process or Reset. A caller that keeps any of it longer copies
	// it first. A clone has its own.
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
	// Locator returns the game's pre-execution read side: what the SNIP
	// runtime reads, without executing, when it compares necessary inputs
	// before deciding to short-circuit. Take it again after Reset.
	Locator() Locator
	// StateHash digests all persistent state.
	StateHash() uint64
}

// Store holds a game's mutable state as named int64 locations, each with
// a modeled byte size (the size a real implementation's data would occupy
// — what lookup-table records are charged for). Keeping ALL mutable state
// here makes cloning and short-circuit output application generic.
//
// A location is addressed by its Var, the ordinal of its declaration:
// handlers read and write by handle, and only declarations, the Locator
// and ApplyOutputs resolve a name. Digests fold locations in sorted-name
// order, so a prefix's locations are one contiguous range of that
// order. A digest caches the Combine chain state after each location of
// its range; a write marks chains stale from its rank on, and the next
// digest refolds only from there.
type Store struct {
	// The name side: handle by name, and per handle the name, the
	// key-chain step of its hash and its record name. order lists the
	// handles in sorted-name order and rank inverts it; both are built
	// when a digest first needs them after an insert. Clones share the
	// name side until one adds a location.
	index  map[string]Var
	names  []string
	step   []trace.Step
	qual   []string
	order  []Var
	rank   []int32
	sorted bool
	shared bool

	vals  []int64
	sizes []units.Size
	// digests caches HashPrefix results; digest d's chain states are
	// chains[d.off : d.off+d.hi-d.lo].
	digests []digest
	chains  []uint64
	// layout counts the inserts and the size changes that dropped
	// digests: a Loc stays valid while it is unchanged.
	layout uint64
}

// Var is a handle to a store location: the ordinal of its declaration.
// Every game declares its locations in one fixed order on Reset, so a
// game's handles are constants, the same across Reset, Clone and seeds.
type Var int32

// rngState is the handle of "rngstate", the traced PRNG state every
// game declares first.
const rngState Var = 0

// digest is one cached HashPrefix result: the range [lo, hi) of sorted
// ranks under a prefix, its summed size, its blob record name, and how
// many leading chain states are current.
type digest struct {
	prefix, blob      string
	lo, hi, off, done int32
	size              units.Size
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{index: make(map[string]Var), sorted: true} }

// Declare registers a location with its modeled size and initial value,
// returning its handle. Redeclaring a location keeps its handle.
func (s *Store) Declare(name string, size units.Size, init int64) Var {
	v, ok := s.index[name]
	if !ok {
		return s.insert(name, size, init)
	}
	s.SetAt(v, init)
	if s.sizes[v] != size {
		// Digests carry their range's summed size: rebuild them.
		s.sizes[v] = size
		s.digests, s.chains = s.digests[:0], s.chains[:0]
		s.layout++
	}
	return v
}

// At returns the value of a declared location.
func (s *Store) At(v Var) int64 { return s.vals[v] }

// SetAt stores a value at a declared location, reporting whether it
// changed, and marks the chains covering it stale from its rank on.
func (s *Store) SetAt(v Var, x int64) bool {
	if s.vals[v] == x {
		return false
	}
	s.vals[v] = x
	if len(s.digests) > 0 {
		// Digests exist only while the order is current.
		r := s.rank[v]
		for k := range s.digests {
			if d := &s.digests[k]; d.lo <= r && r-d.lo < d.done {
				d.done = r - d.lo
			}
		}
	}
	return true
}

// Set stores a value by name, reporting whether it changed. Setting an
// undeclared location declares it with size 8.
func (s *Store) Set(name string, x int64) (changed bool) {
	if v, ok := s.index[name]; ok {
		return s.SetAt(v, x)
	}
	s.insert(name, 8, x)
	return true
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

// insert appends a location as the next handle. Every digest is
// dropped: its range may now hold the new name.
func (s *Store) insert(name string, size units.Size, x int64) Var {
	if s.shared {
		s.index, s.shared = maps.Clone(s.index), false
		s.names, s.step, s.qual = slices.Clone(s.names), slices.Clone(s.step), slices.Clone(s.qual)
		s.order, s.rank = nil, nil
	}
	v := Var(len(s.names))
	s.index[name] = v
	s.names = append(s.names, name)
	s.step = append(s.step, trace.StepOf(trace.HashString(name)))
	s.qual = append(s.qual, "state."+name)
	s.vals = append(s.vals, x)
	s.sizes = append(s.sizes, size)
	s.sorted = false
	s.digests, s.chains = s.digests[:0], s.chains[:0]
	s.layout++
	return v
}

// sortNames brings order and rank up to date with the declared names.
func (s *Store) sortNames() {
	if s.sorted {
		return
	}
	if s.shared {
		// A sharer may be reading them.
		s.order, s.rank = nil, nil
	}
	n := len(s.names)
	s.order, s.rank = slices.Grow(s.order[:0], n)[:n], slices.Grow(s.rank[:0], n)[:n]
	for v := range s.order {
		s.order[v] = Var(v)
	}
	slices.SortFunc(s.order, func(a, b Var) int { return strings.Compare(s.names[a], s.names[b]) })
	for r, v := range s.order {
		s.rank[v] = int32(r)
	}
	s.sorted = true
}

// digest returns prefix's cached digest, adding it if absent.
func (s *Store) digest(prefix string) *digest { return &s.digests[s.digestIndex(prefix)] }

// digestIndex returns the index of prefix's cached digest, adding it if
// absent. Digests are only appended until a layout change drops them
// all, so an index stays valid while the layout does.
func (s *Store) digestIndex(prefix string) int32 {
	for k := range s.digests {
		if s.digests[k].prefix == prefix {
			return int32(k)
		}
	}
	s.sortNames()
	lo, _ := slices.BinarySearchFunc(s.order, prefix, func(v Var, p string) int { return strings.Compare(s.names[v], p) })
	d := digest{prefix: prefix, blob: "state." + prefix + "*", lo: int32(lo), hi: int32(lo), off: int32(len(s.chains))}
	for ; int(d.hi) < len(s.order) && strings.HasPrefix(s.names[s.order[d.hi]], prefix); d.hi++ {
		d.size += s.sizes[s.order[d.hi]]
	}
	s.chains = append(s.chains, make([]uint64, d.hi-d.lo)...)
	s.digests = append(s.digests, d)
	return int32(len(s.digests) - 1)
}

// fold brings d's chain up to date and returns the digest: trace.KeySeed,
// then each location's name hash and value Combined in sorted-name
// order.
func (s *Store) fold(d *digest) uint64 {
	chain := s.chains[d.off : d.off+d.hi-d.lo]
	h := trace.KeySeed
	if d.done > 0 {
		h = chain[d.done-1]
	}
	for ; d.done < d.hi-d.lo; d.done++ {
		v := s.order[d.lo+d.done]
		h = s.step[v].Fold(h, uint64(s.vals[v]))
		chain[d.done] = h
	}
	return h
}

// Ctx is the execution context a handler records into. It implements the
// tracer: every state read/write flows through it. Each game keeps one,
// holding the execution and its record, and begins it afresh for every
// event, so a handler call allocates nothing once the buffers have grown.
type Ctx struct {
	store *Store
	prof  *trace.Dataset // non-nil: the execution is logged as a row of it
	rec   trace.Record
	exec  Execution
	// The buffers behind exec.CPUFuncs, exec.IPCalls and rec.Outputs,
	// which point at them only once the handler has appended, so an
	// execution that records none of them keeps them nil.
	cpu []CPUFunc
	ips []soc.IPCall
	out []trace.Field
}

// begin starts c for one handler call on e, keeping its buffers'
// capacity.
func (c *Ctx) begin(store *Store, e *events.Event, profile *trace.Dataset) *Ctx {
	c.store, c.prof = store, profile
	c.rec = trace.Record{EventSeq: e.Seq, EventType: e.Type.String(), Time: e.Time}
	c.exec = Execution{Record: &c.rec}
	c.cpu, c.ips, c.out = c.cpu[:0], c.ips[:0], c.out[:0]
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
func (c *Ctx) Read(v Var) int64 {
	x := c.store.vals[v]
	if c.prof != nil {
		c.prof.LogInput("", c.store.qual[v], trace.InHistory, c.store.sizes[v], uint64(x))
	}
	return x
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

// output logs an output field by its record name: into the profile's
// row when there is one, else into the record.
func (c *Ctx) output(name string, cat trace.Category, size units.Size, value uint64) {
	if c.prof != nil {
		c.prof.LogOutput("", name, cat, size, value)
		return
	}
	c.out = append(c.out, trace.Field{Name: name, Category: cat, Size: size, Value: value})
	c.rec.Outputs = c.out
}

// Write stores a value, logging an Out.History output. It marks the
// record state-changed iff the value differs from the previous one.
func (c *Ctx) Write(v Var, x int64) {
	if c.store.SetAt(v, x) {
		c.rec.StateChanged = true
	}
	c.output(c.store.qual[v], trace.OutHistory, c.store.sizes[v], uint64(x))
}

// Temp emits a transient user-facing output (frame tile, haptic buzz),
// logging an Out.Temp output. name is the output's record name, with
// its "temp." prefix, so no call builds one. Temp outputs never mark
// state changed.
func (c *Ctx) Temp(name string, size units.Size, value uint64) {
	c.output(name, trace.OutTemp, size, value)
}

// Send emits data leaving the device (score upload, multiplayer sync),
// logging an Out.Extern output. name is the output's record name, with
// its "extern." prefix. Extern sends always count as a state change:
// the outside world observed them.
func (c *Ctx) Send(name string, size units.Size, value uint64) {
	c.output(name, trace.OutExtern, size, value)
	c.rec.StateChanged = true
}

// Rand draws a pseudo-random value in [0, mod) from the game's OWN traced
// PRNG state. Randomness lives in the store ("rngstate") so that it is an
// honest In.History input: outputs that depend on fresh randomness are
// only memoizable when the PRNG state itself matches, exactly as in a
// real game whose RNG lives in memory.
func (c *Ctx) Rand(mod int64) int64 {
	s := c.Read(rngState)
	s = s*6364136223846793005 + 1442695040888963407
	c.Write(rngState, s)
	v := (s >> 17) % mod
	if v < 0 {
		v += mod
	}
	return v
}

// CPU records a named CPU computation that traverses dynamic memory
// (not memoizable by prior-work CPU techniques).
func (c *Ctx) CPU(name string, inputHash uint64, instr int64, mem units.Size) {
	c.cpu = append(c.cpu, CPUFunc{Name: name, InputHash: inputHash, Instr: instr, MemBytes: mem})
	c.exec.CPUFuncs = c.cpu
}

// CPUPure records a register-level CPU computation with statically
// locatable inputs — the kind prior-work memoization (Max CPU) can reuse.
func (c *Ctx) CPUPure(name string, inputHash uint64, instr int64, mem units.Size) {
	c.cpu = append(c.cpu, CPUFunc{Name: name, InputHash: inputHash, Instr: instr, MemBytes: mem, Pure: true})
	c.exec.CPUFuncs = c.cpu
}

// IP records an accelerator invocation.
func (c *Ctx) IP(ip energy.Component, op string, inputHash uint64, dur units.Time, mem units.Size) {
	c.ips = append(c.ips, soc.IPCall{IP: ip, Op: op, InputHash: inputHash, Duration: dur, MemBytes: mem})
	c.exec.IPCalls = c.ips
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
// content RNG, the reused execution context, and generic
// Clone/ApplyOutputs/StateHash.
type base struct {
	name  string
	store *Store
	rnd   *rng.Source
	types []events.Type
	cx    Ctx
	// declared counts the locations the latest Reset declared.
	declared int
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

// Locator implements Game.
func (b *base) Locator() Locator { return Locator{b.store} }

// resetBase readies the store for Reset's declarations and declares the
// traced PRNG state, the first location every game declares. Reset
// declares the same locations in the same order every time, so a store
// that holds exactly the latest Reset's locations is kept: declaring
// each again sets its initial value and size. A store that gained a
// location since is replaced. Every game's constructor Resets once, so
// the Reset that starts a session always finds a filled store;
// TestResetMatchesFresh pins that a kept store reads as a fresh one.
func (b *base) resetBase(seed uint64) {
	if b.store.Len() != b.declared {
		b.store = NewStore()
	}
	b.declared = 0
	b.rnd = rng.New(seed)
	b.declare(rngState, "rngstate", 8, int64(seed|1))
}

// declare declares a location that Reset gives the handle v. Reset
// declares its game's locations in handle order, so each lands on its
// constant; declare panics on one that does not.
func (b *base) declare(v Var, name string, size units.Size, init int64) {
	if got := b.store.Declare(name, size, init); got != v {
		panic(fmt.Sprintf("games: %s declares %q as handle %d, want %d", b.name, name, got, v))
	}
	b.declared++
}

func (b *base) cloneBase() base {
	c := *b
	c.store = b.store.Clone()
	// The RNG is part of game state (content generation order matters).
	rc := *b.rnd
	c.rnd = &rc
	// The clone's context shares no buffer with the original's; its
	// buffers start at the original's capacity, so its first handler
	// call does not grow them.
	c.cx = Ctx{
		cpu: make([]CPUFunc, 0, cap(b.cx.cpu)),
		ips: make([]soc.IPCall, 0, cap(b.cx.ips)),
		out: make([]trace.Field, 0, cap(b.cx.out)),
	}
	return c
}

func (b *base) ctx(e *events.Event, profile *trace.Dataset) *Ctx {
	return b.cx.begin(b.store, e, profile)
}

// errUnhandled panics for event types the game did not register.
func (b *base) errUnhandled(e *events.Event) {
	panic(fmt.Sprintf("games: %s does not handle %v", b.name, e.Type))
}
