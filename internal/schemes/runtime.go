package schemes

import (
	"cmp"
	"slices"
	"time"

	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/rng"
	"snip/internal/sensors"
	"snip/internal/trace"
	"snip/internal/units"
	"snip/internal/workload"
)

// The device runtime is the one event loop that both Run (the paper's
// figures) and the fleet's devices play sessions through. SNIP takes
// each event after the OS delivers it and makes one decision (§V-B):
// probe the deployed table, then either short-circuit — apply the
// memoized outputs — or run the handler. The runtime owns that decision
// and everything both callers must do identically: the event stream,
// its delivery order, the event log, the probe and the key plan behind
// it, and the sampled shadow verify. What a decision costs — simulated
// energy on one phone, or a fleet device's ledger, telemetry and guard
// — is each caller's own, booked through a Sink.

// Sink books one session's per-event decisions. For every handled event
// the runtime calls Deliver, then Executed when Deliver returned no
// table, else Probed followed by Hit or Executed.
type Sink interface {
	// Deliver is called for every handled event in delivery order. It
	// returns the table to probe, or nil to run the handler in full.
	Deliver(e *events.Event) memo.Table
	// Probed reports one table probe: its modeled cost and wall time.
	Probed(probes int64, cmpBytes units.Size, hit bool, wallNS int64)
	// Hit reports a short-circuit of a handler whose profiled run
	// weighed instr instructions. served is the entry's outputs, in a
	// buffer the runtime reuses on its next hit. truth is the handler run
	// on a clone of the game when this hit was shadow-verified, else nil.
	// Hit returns the outputs to apply to the live game.
	Hit(instr int64, served []trace.Field, truth *games.Execution) []trace.Field
	// Executed reports a handler run in full: a miss, or no table. The
	// game reuses exec for its next event (see games.Game.Process), so
	// Executed keeps nothing of it.
	Executed(exec *games.Execution)
}

// Session describes one session a Device plays.
type Session struct {
	Gen      workload.Generator
	Seed     uint64
	Duration units.Time
	// Perturb, when non-nil, rewrites the sensor stream before event
	// synthesis, where a flaky sensor hub would corrupt a real device's
	// input.
	Perturb func(seed uint64, s *sensors.Stream) *sensors.Stream
	// Log, when non-nil, receives every handled event: the events-only
	// log the device uploads.
	Log *trace.EventLog
	// Profile, when non-nil, receives a row for every handler run in
	// full (see games.Game.Process).
	Profile *trace.Dataset
	// ShadowRate is the fraction of hits shadow-verified. The sampling
	// stream is split off the session seed, so it perturbs no other
	// stream; at zero no randomness is drawn.
	ShadowRate float64
	// VerifyAll shadow-verifies every hit and draws no samples.
	VerifyAll bool
}

// Played is what the runtime itself counts over one session.
type Played struct {
	Events    int64 // handled events delivered to the game
	Unhandled int64 // events of types the game registers no handler for
	Lookup    memo.LookupStats
	End       units.Time // the sensor stream's end
}

// Device is one game instance with the runtime state that outlives a
// session, so a caller can play many sessions on it.
type Device struct {
	game    games.Game
	handled [events.NumTypes]bool
	// plan keys every probe of the table it was compiled for.
	plan keyPlan
	// served holds the outputs of the latest hit, decoded from the
	// table's entry view.
	served []trace.Field
	// synth synthesizes each session's events into buffers it keeps
	// across sessions.
	synth events.Synthesizer
}

// NewDevice wraps a game instance.
func NewDevice(game games.Game) *Device {
	d := &Device{game: game}
	for _, t := range game.Types() {
		d.handled[t] = true
	}
	return d
}

// keyPlan is a table's selection compiled against the live game: for
// each event type, where each selected field's value is read
// and how it folds into the table's two-level key. It is compiled once
// per table and store layout, so a probe resolves no name: it reads
// values by index, folds them, and probes the table with the keys.
type keyPlan struct {
	tab    memo.Table
	loc    games.Locator
	layout uint64
	types  [events.NumTypes]typePlan
}

// typePlan is one event type's part of a keyPlan.
type typePlan struct {
	name   string // the table's name for the type
	fields []planField
}

// planField is one selected field: where its value is read, and the
// key-chain step that folds it into the event key (an In.Event field)
// or the state key (any other), as the table keys its rows. A field the
// game cannot read ahead of execution reads trace.Absent.
type planField struct {
	loc   games.Loc
	step  trace.Step
	event bool
}

// stale reports whether the plan was compiled for another table, store
// or store layout.
func (p *keyPlan) stale(tab memo.Table, loc games.Locator) bool {
	return tab != p.tab || loc != p.loc || loc.Layout() != p.layout
}

// compile compiles tab's selection against loc's current layout,
// reusing the plan's slices.
func (p *keyPlan) compile(tab memo.Table, loc games.Locator) {
	p.tab, p.loc, p.layout = tab, loc, loc.Layout()
	sel := tab.Selection()
	for t := range p.types {
		tp := &p.types[t]
		tp.name, tp.fields = events.Type(t).String(), tp.fields[:0]
		for _, f := range sel[tp.name] {
			l, _ := loc.Locate(events.Type(t), f.Name)
			tp.fields = append(tp.fields, planField{loc: l, step: trace.StepOf(f.NameHash), event: f.Category == trace.InEvent})
		}
	}
}

// keys computes the pending event's two-level key.
func (tp *typePlan) keys(loc games.Locator, e *events.Event) (eventKey, stateKey uint64) {
	eventKey, stateKey = trace.KeySeed, trace.KeySeed
	for i := range tp.fields {
		f := &tp.fields[i]
		if v := loc.Peek(f.loc, e); f.event {
			eventKey = f.step.Fold(eventKey, v)
		} else {
			stateKey = f.step.Fold(stateKey, v)
		}
	}
	return eventKey, stateKey
}

// Play resets the game to the session seed and delivers the session's
// events in (Time, Seq) order, booking each decision into sink.
func (d *Device) Play(s Session, sink Sink) Played {
	game := d.game
	game.Reset(s.Seed)
	loc := game.Locator()
	stream := s.Gen.Generate(s.Seed, s.Duration)
	if s.Perturb != nil {
		stream = s.Perturb(s.Seed, stream)
	}
	synthCfg := events.DefaultSynthesizerConfig()
	// Frame counters count from device boot: no two sessions share them.
	synthCfg.FrameBase = int64(s.Seed%1_000_000) * 10_000_000
	d.synth.Reset(synthCfg)
	evs := d.synth.SynthesizeAll(stream)
	if !inDeliveryOrder(evs) {
		// Synthesis emits in delivery order from a time-ordered stream
		// (TestSynthesizedSessionsInDeliveryOrder), so this never runs
		// on a stream the sensors package built.
		slices.SortStableFunc(evs, deliveryOrder)
	}
	var shadow *rng.Source
	if s.ShadowRate > 0 {
		shadow = rng.New(s.Seed ^ 0x5348414457475244) // "SHADWGRD"
	}

	// The log's events share one values array, sized for every handled
	// event; the synthesizer's own buffers are reused next session.
	var logVals []int64
	if s.Log != nil {
		n, m := 0, 0
		for i := range evs {
			if d.handled[evs[i].Type] {
				n, m = n+1, m+len(evs[i].Values)
			}
		}
		s.Log.Events = slices.Grow(s.Log.Events, n)
		logVals = make([]int64, 0, m)
	}

	p := Played{End: stream.End()}
	// Each probe's wall time is the difference of two monotonic reads
	// against one clock base per session.
	base := time.Now()
	for i := range evs {
		e := &evs[i]
		if !d.handled[e.Type] {
			p.Unhandled++
			continue
		}
		p.Events++
		if s.Log != nil {
			k := len(logVals)
			logVals = append(logVals, e.Values...)
			s.Log.Events = append(s.Log.Events, trace.LoggedEvent{
				Type: e.Type.String(), Seq: e.Seq, Time: e.Time,
				Values: logVals[k:len(logVals):len(logVals)],
			})
		}
		tab := sink.Deliver(e)
		if tab == nil {
			sink.Executed(game.Process(e, s.Profile))
			continue
		}
		if d.plan.stale(tab, loc) {
			d.plan.compile(tab, loc)
		}
		start := time.Since(base)
		tp := &d.plan.types[e.Type]
		ek, sk := tp.keys(loc, e)
		entry, probes, cmpBytes, hit := tab.Probe(tp.name, ek, sk)
		wall := (time.Since(base) - start).Nanoseconds()
		p.Lookup.Observe(probes, cmpBytes, hit)
		sink.Probed(probes, cmpBytes, hit, wall)
		if !hit {
			sink.Executed(game.Process(e, s.Profile))
			continue
		}
		var truth *games.Execution
		if s.VerifyAll || (shadow != nil && shadow.Bool(s.ShadowRate)) {
			// Shadow verify: run the real handler on a clone, before
			// the short-circuit mutates the live game.
			truth = game.Clone().Process(e, nil)
		}
		d.served = entry.AppendOutputs(d.served[:0])
		game.ApplyOutputs(sink.Hit(entry.Instr(), d.served, truth))
	}
	return p
}

// inDeliveryOrder reports whether evs is ordered by deliveryOrder.
func inDeliveryOrder(evs []events.Event) bool {
	for i := 1; i < len(evs); i++ {
		if a, b := &evs[i-1], &evs[i]; a.Time > b.Time || a.Time == b.Time && a.Seq > b.Seq {
			return false
		}
	}
	return true
}

// deliveryOrder orders events by time, then by sequence number.
func deliveryOrder(a, b events.Event) int {
	if a.Time != b.Time {
		return cmp.Compare(a.Time, b.Time)
	}
	return cmp.Compare(a.Seq, b.Seq)
}
