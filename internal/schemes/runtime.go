package schemes

import (
	"sort"
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
// its delivery order, the event log, the probe and its resolver, and
// the sampled shadow verify. What a decision costs — simulated energy
// on one phone, or a fleet device's ledger, telemetry and guard — is
// each caller's own, booked through a Sink.

// Sink books one session's per-event decisions. For every handled event
// the runtime calls Deliver, then Executed when Deliver returned no
// table, else Probed followed by Hit or Executed.
type Sink interface {
	// Deliver is called for every handled event in delivery order. It
	// returns the table to probe, or nil to run the handler in full.
	Deliver(e *events.Event) memo.Table
	// Probed reports one table probe: its modeled cost and wall time.
	Probed(probes int64, cmpBytes units.Size, hit bool, wallNS int64)
	// Hit reports a short-circuit. truth is the handler run on a clone
	// of the game when this hit was shadow-verified, else nil. Hit
	// returns the outputs to apply to the live game.
	Hit(entry *memo.SnipEntry, truth *games.Execution) []trace.Field
	// Executed reports a handler run in full: a miss, or no table.
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
	// cur is the event being probed; resolve reads it, and is bound once
	// so a probe allocates no closure.
	cur     *events.Event
	resolve memo.Resolver
}

// NewDevice wraps a game instance.
func NewDevice(game games.Game) *Device {
	d := &Device{game: game}
	for _, t := range game.Types() {
		d.handled[t] = true
	}
	d.resolve = d.field
	return d
}

// Play resets the game to the session seed and delivers the session's
// events in (Time, Seq) order, booking each decision into sink.
func (d *Device) Play(s Session, sink Sink) Played {
	game := d.game
	game.Reset(s.Seed)
	stream := s.Gen.Generate(s.Seed, s.Duration)
	if s.Perturb != nil {
		stream = s.Perturb(s.Seed, stream)
	}
	synthCfg := events.DefaultSynthesizerConfig()
	// Frame counters count from device boot: no two sessions share them.
	synthCfg.FrameBase = int64(s.Seed%1_000_000) * 10_000_000
	evs := events.NewSynthesizer(synthCfg).SynthesizeAll(stream)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Seq < evs[j].Seq
	})
	var shadow *rng.Source
	if s.ShadowRate > 0 {
		shadow = rng.New(s.Seed ^ 0x5348414457475244) // "SHADWGRD"
	}

	p := Played{End: stream.End()}
	for _, e := range evs {
		if !d.handled[e.Type] {
			p.Unhandled++
			continue
		}
		p.Events++
		if s.Log != nil {
			s.Log.Events = append(s.Log.Events, trace.LoggedEvent{
				Type: e.Type.String(), Seq: e.Seq, Time: e.Time,
				Values: append([]int64(nil), e.Values...),
			})
		}
		tab := sink.Deliver(e)
		if tab == nil {
			sink.Executed(game.Process(e, s.Profile))
			continue
		}
		d.cur = e
		start := time.Now()
		entry, probes, cmpBytes, hit := tab.Lookup(e.Type.String(), d.resolve)
		wall := time.Since(start).Nanoseconds()
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
		game.ApplyOutputs(sink.Hit(entry, truth))
	}
	d.cur = nil
	return p
}

// field is the SNIP runtime resolver: a state field's live value
// (Game.PeekField), else an "event.<type>.<field>" name read from the
// pending event object.
func (d *Device) field(name string) (uint64, bool) {
	if v, ok := d.game.PeekField(name); ok {
		return v, true
	}
	e := d.cur
	prefix := "event." + e.Type.String() + "."
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	v, ok := e.Field(name[len(prefix):])
	if !ok {
		return 0, false
	}
	return uint64(v), true
}
