// Package schemes runs complete game sessions under the execution
// schemes the paper compares (§VII):
//
//   - Baseline: every event is processed in full.
//   - Max CPU: an oracle upper bound on CPU-side memoization (prior work
//     [3, 14, 42]): any repeated (function, inputs) CPU computation is
//     skipped for free, but accelerator/IP calls still execute.
//   - Max IP: prior work [43]: idle IPs are power-collapsed and repeated
//     IP invocations (same op, same inputs) are skipped, but the CPU
//     portion still executes.
//   - SNIP: whole-event short-circuiting through the PFI lookup table,
//     paying the per-event lookup/compare overhead.
//   - No Overheads: SNIP with free lookups — the paper's headroom probe.
//
// A session is: generate the user's sensor stream, synthesize events,
// and deliver them in time order to the game on the simulated SoC,
// charging every component's active and idle energy.
package schemes

import (
	"fmt"

	"snip/internal/energy"
	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/soc"
	"snip/internal/trace"
	"snip/internal/units"
	"snip/internal/workload"
)

// Kind selects the execution scheme.
type Kind int

// The compared schemes.
const (
	Baseline Kind = iota
	MaxCPU
	MaxIP
	SNIP
	NoOverheads
	numKinds
)

// NumKinds is the number of schemes.
const NumKinds = int(numKinds)

// String returns the paper's name for the scheme.
func (k Kind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case MaxCPU:
		return "Max CPU"
	case MaxIP:
		return "Max IP"
	case SNIP:
		return "SNIP"
	case NoOverheads:
		return "No Overheads"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds returns all schemes in comparison order.
func Kinds() []Kind { return []Kind{Baseline, MaxCPU, MaxIP, SNIP, NoOverheads} }

// Config describes one session run.
type Config struct {
	Game     string
	Seed     uint64
	Duration units.Time
	Scheme   Kind
	// Table is the deployed SNIP lookup table (required for SNIP and
	// NoOverheads): the flat image the cloud serves and the figures
	// build. The map table tests pass returns bit-identical results and
	// costs, so the choice never shows up in a Result.
	Table memo.Table
	// CollectTrace captures the full per-event profile, inputs included
	// (the cloud-side instrumentation; adds memory, not simulated
	// energy). Only Baseline runs record it; under any other scheme
	// Dataset stays empty.
	CollectTrace bool
	// CollectEventLog captures the reduced events-only log the device
	// actually uploads.
	CollectEventLog bool
	// EvalCorrectness shadow-executes every short-circuited event to
	// count erroneous output fields (ground truth; evaluation only).
	EvalCorrectness bool
	// ShadowSampleRate is the production mispredict guard: the fraction
	// of memo hits that also run the real handler on a cloned game and
	// compare outputs. Unlike EvalCorrectness (which checks every hit,
	// for evaluation), this is the always-on defense a deployed fleet can
	// afford — sampled, cheap, and feeding the per-generation mispredict
	// tally that trips the circuit breaker. Zero disables it; a zero rate
	// draws no randomness, so unguarded runs are byte-identical.
	ShadowSampleRate float64
	// Obs, when non-nil, receives runtime counters: events delivered by
	// type, executed vs. short-circuited, shadow-check errors. Strictly
	// write-only — a Result is byte-identical with Obs set or nil
	// (pinned by the determinism regression tests).
	Obs *obs.Registry
	// Spans, when non-nil, records distributed-tracing spans: a session
	// root span plus, per delivered event, an event.deliver span (what
	// the event cost: probe, handler or snipped instructions, IP calls,
	// shadow check, energy charged) and, for SNIP probes, a memo.lookup
	// child carrying the probe's wall time. Span IDs are deterministic
	// functions of (game, scheme, seed, seq), so the same session always
	// produces the same trace — see obs.NewTraceID.
	Spans *obs.SpanBuffer
}

// sessionMetrics tallies one session's counts in plain fields — the
// per-event path pays no atomic operations — and flushes them to the
// registry once at session end (the instrumentation-overhead budget in
// EXPERIMENTS.md depends on this batching).
type sessionMetrics struct {
	reg *obs.Registry

	delivered      [events.NumTypes]int64
	executed       int64
	shortCircuited int64
	useless        int64
	shadowChecks   int64
	shadowErrors   int64
	guardChecks    int64
	guardMisses    int64
}

func newSessionMetrics(reg *obs.Registry) *sessionMetrics {
	if reg == nil {
		return nil
	}
	return &sessionMetrics{reg: reg}
}

// flush publishes the session's counts, with the events the runtime
// dropped for want of a handler.
func (m *sessionMetrics) flush(unhandled int64) {
	if m == nil {
		return
	}
	reg := m.reg
	for t := events.Type(0); int(t) < events.NumTypes; t++ {
		if m.delivered[t] > 0 {
			reg.Counter(`snip_events_delivered_total{type="`+t.String()+`"}`,
				"events delivered to the game").Add(m.delivered[t])
		}
	}
	reg.Counter("snip_events_executed_total", "events whose handler ran in full").Add(m.executed)
	reg.Counter("snip_events_short_circuited_total", "events served from the SNIP table").Add(m.shortCircuited)
	reg.Counter("snip_events_useless_total", "baseline events that changed no state").Add(m.useless)
	reg.Counter("snip_shadow_checks_total", "short-circuits verified against ground truth").Add(m.shadowChecks)
	reg.Counter("snip_shadow_error_fields_total", "erroneous output fields caught by shadow execution").Add(m.shadowErrors)
	reg.Counter("snip_guard_shadow_checks_total", "sampled memo hits verified by the mispredict guard").Add(m.guardChecks)
	reg.Counter("snip_guard_mispredicts_total", "sampled memo hits whose outputs mismatched ground truth").Add(m.guardMisses)
	reg.Counter("snip_dispatch_unhandled_total", "events with no registered handler").Add(unhandled)
}

// GuardStats tallies the sampled mispredict guard for one session.
type GuardStats struct {
	ShadowChecks int64 // memo hits sampled for shadow verification
	Mispredicts  int64 // sampled hits whose served outputs were wrong
}

// Merge folds another session's guard tally into this one.
func (g *GuardStats) Merge(o GuardStats) {
	g.ShadowChecks += o.ShadowChecks
	g.Mispredicts += o.Mispredicts
}

// MispredictRatio returns mispredicts per sampled check (0 when none).
func (g GuardStats) MispredictRatio() float64 {
	if g.ShadowChecks == 0 {
		return 0
	}
	return float64(g.Mispredicts) / float64(g.ShadowChecks)
}

// ErrorStats counts short-circuit prediction errors by output category.
type ErrorStats struct {
	ShadowedEvents  int64 // short-circuits that were ground-truth checked
	PredictedFields int64 // output fields served from the table
	ErrTemp         int64
	ErrHistory      int64
	ErrExtern       int64
	// ByField tallies mismatches per output-field name — the debugging
	// view developers use to decide on §V-B Option 1 overrides.
	ByField map[string]int64
}

// ErrFields returns total erroneous fields.
func (e ErrorStats) ErrFields() int64 { return e.ErrTemp + e.ErrHistory + e.ErrExtern }

// FieldErrorRate returns erroneous fields per predicted field.
func (e ErrorStats) FieldErrorRate() float64 {
	if e.PredictedFields == 0 {
		return 0
	}
	return float64(e.ErrFields()) / float64(e.PredictedFields)
}

// Result is the outcome of one session.
type Result struct {
	Game   string
	Scheme Kind

	Events    int // events delivered to the game
	Elapsed   units.Time
	Energy    units.Energy
	Meter     *energy.Meter
	ByGroup   [energy.NumGroups]units.Energy
	Breakdown [energy.NumGroups]float64

	// TotalWeight is the dynamic-instruction weight of all events
	// (executed + short-circuited); SnippedWeight the weight avoided.
	TotalWeight   int64
	SnippedWeight int64
	SnippedEvents int

	// UselessEvents/UselessEnergy: baseline-only ground truth for Fig. 4.
	UselessEvents int
	UselessEnergy units.Energy

	// LookupEnergy is the SNIP lookup/compare overhead (Fig. 11c).
	LookupEnergy  units.Energy
	ComparedBytes int64

	// Lookup accumulates the per-probe costs for this session. The table
	// itself is read-only at probe time (it may be shared with other
	// concurrent sessions), so the tally lives here, with the caller.
	Lookup memo.LookupStats

	Errors ErrorStats

	// Guard tallies the sampled shadow-verification guard (only non-zero
	// when Config.ShadowSampleRate > 0 and the scheme short-circuits).
	Guard GuardStats

	// TraceID is the session's distributed-trace identifier, set on
	// every run (it is a pure function of game/scheme/seed, so setting
	// it unconditionally keeps instrumented and bare results identical).
	// Callers propagate it when uploading the session's EventLog.
	TraceID obs.ID

	Dataset  *trace.Dataset  // when CollectTrace; filled on Baseline only
	EventLog *trace.EventLog // when CollectEventLog
}

// CoverageFraction returns the instruction-weighted fraction of execution
// short-circuited (Fig. 11b).
func (r *Result) CoverageFraction() float64 {
	if r.TotalWeight == 0 {
		return 0
	}
	return float64(r.SnippedWeight) / float64(r.TotalWeight)
}

// UselessFraction returns the fraction of delivered events that changed
// nothing (Fig. 4), meaningful on Baseline runs with CollectTrace.
func (r *Result) UselessFraction() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.UselessEvents) / float64(r.Events)
}

// BatteryHours extrapolates the session's average power draw to a full
// battery drain (Fig. 3's methodology).
func (r *Result) BatteryHours() float64 {
	return energy.DefaultBattery().HoursToDrain(r.Energy, r.Elapsed)
}

// Run executes one session.
func Run(cfg Config) (*Result, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("schemes: duration must be positive")
	}
	if (cfg.Scheme == SNIP || cfg.Scheme == NoOverheads) && cfg.Table == nil {
		return nil, fmt.Errorf("schemes: %v requires a SNIP table", cfg.Scheme)
	}
	game, err := games.New(cfg.Game)
	if err != nil {
		return nil, err
	}
	gen, err := workload.ForGame(cfg.Game)
	if err != nil {
		return nil, err
	}

	meter := energy.NewMeter()
	var policy soc.IdlePolicy = soc.DefaultIdlePolicy{}
	if cfg.Scheme == MaxIP {
		policy = soc.SleepIdleIPs{}
	}
	chip := soc.New(soc.DefaultConfig(), meter, policy)

	res := &Result{Game: cfg.Game, Scheme: cfg.Scheme, Meter: meter}
	s := Session{Gen: gen, Seed: cfg.Seed, Duration: cfg.Duration,
		ShadowRate: cfg.ShadowSampleRate, VerifyAll: cfg.EvalCorrectness}
	if cfg.CollectTrace {
		res.Dataset = &trace.Dataset{Game: cfg.Game}
		if cfg.Scheme == Baseline {
			s.Profile = res.Dataset
		}
	}
	if cfg.CollectEventLog {
		res.EventLog = &trace.EventLog{Game: cfg.Game}
		s.Log = res.EventLog
	}
	sink := &runSink{
		cfg: cfg, res: res, chip: chip, meter: meter,
		met:     newSessionMetrics(cfg.Obs),
		cpuSeen: make(map[string]map[uint64]bool),
		ipLast:  make(map[energy.Component]uint64),
		// The session's trace root is a pure function of (game, scheme,
		// seed): rerunning the session reproduces every ID, and computing
		// it unconditionally keeps traced and bare results identical.
		root: obs.Root(obs.NewTraceID(cfg.Seed, obs.HashName(cfg.Game+"/"+cfg.Scheme.String()))),
	}
	res.TraceID = sink.root.Trace

	p := NewDevice(game).Play(s, sink)
	chip.AdvanceTo(p.End)
	res.Events = int(p.Events)
	res.Lookup = p.Lookup
	sink.met.flush(p.Unhandled)
	if cfg.Spans != nil {
		session := obs.StartSpan(sink.root, 0, "session", 0)
		session.Service = "device"
		cfg.Spans.Finish(&session, int64(chip.Now()))
	}

	res.Elapsed = chip.Now()
	res.Energy = meter.Total()
	res.ByGroup = meter.GroupTotals()
	res.Breakdown = meter.Breakdown()
	return res, nil
}

// runSink books a Run session on the simulated SoC: every component's
// energy, the scheme's own memo state, the Report's tallies and, when
// tracing, one event.deliver span per event.
type runSink struct {
	cfg   Config
	res   *Result
	chip  *soc.SoC
	meter *energy.Meter
	met   *sessionMetrics
	root  obs.SpanContext

	cpuSeen map[string]map[uint64]bool  // Max CPU: func -> input hashes
	ipLast  map[energy.Component]uint64 // Max IP: last invocation latch per IP

	// The event being delivered and, when tracing, its span.
	e        *events.Event
	eventCtx obs.SpanContext
	ev       obs.Span
	evBefore units.Energy
}

func (k *runSink) Deliver(e *events.Event) memo.Table {
	k.e = e
	k.chip.AdvanceTo(e.Time)
	if k.cfg.Spans != nil {
		k.eventCtx = k.root.Child(uint64(e.Seq))
		k.ev = obs.StartSpan(k.eventCtx, k.root.Span, "event.deliver", int64(e.Time))
		k.ev.Service = "device"
		k.ev.EventType = e.Type.String()
		k.ev.Seq = e.Seq
		k.evBefore = k.meter.Total()
	}
	// The OS delivery path runs for every event under every scheme.
	k.chip.Execute(events.DeliveryCost(e))
	if k.met != nil {
		k.met.delivered[e.Type]++
	}
	if k.cfg.Scheme == SNIP || k.cfg.Scheme == NoOverheads {
		return k.cfg.Table
	}
	return nil
}

// spansPerProbe implements probeSpans: a traced session records a
// memo.lookup span with the wall time of every probe.
func (k *runSink) spansPerProbe() bool { return k.cfg.Spans != nil }

func (k *runSink) Probed(probes int64, cmpBytes units.Size, hit bool, wallNS int64) {
	if k.cfg.Spans != nil {
		k.ev.Probes = probes
		k.ev.ComparedBytes = int64(cmpBytes)
		lk := obs.StartSpan(k.eventCtx.Child(1), k.eventCtx.Span, "memo.lookup", int64(k.e.Time))
		lk.Service = "device"
		lk.Hit = hit
		k.cfg.Spans.FinishWall(&lk, wallNS)
	}
	if k.cfg.Scheme == SNIP {
		k.res.LookupEnergy += k.chip.LookupOverhead(probes, cmpBytes)
		k.res.ComparedBytes += int64(cmpBytes)
	}
}

func (k *runSink) Hit(instr int64, served []trace.Field, truth *games.Execution) []trace.Field {
	res, met := k.res, k.met
	res.SnippedEvents++
	if met != nil {
		met.shortCircuited++
	}
	weight := instr
	switch {
	case truth == nil:
	case k.cfg.EvalCorrectness:
		weight = truth.Record.Instr
		res.Errors.ShadowedEvents++
		errBefore := res.Errors.ErrFields()
		countErrors(&res.Errors, served, truth.Record.Outputs)
		if met != nil {
			met.shadowChecks++
			met.shadowErrors += res.Errors.ErrFields() - errBefore
		}
		k.ev.ShadowChecked = true
		k.ev.ShadowErrFields = res.Errors.ErrFields() - errBefore
	default:
		// Sampled production guard: compare what the table served
		// against ground truth. It only observes; the served outputs
		// are applied either way.
		match := trace.OutputsMatch(served, truth.Record.Outputs)
		res.Guard.ShadowChecks++
		if !match {
			res.Guard.Mispredicts++
		}
		if met != nil {
			met.guardChecks++
			if !match {
				met.guardMisses++
			}
		}
		k.ev.ShadowChecked = true
	}
	res.SnippedWeight += weight
	res.TotalWeight += weight
	k.ev.Hit = true
	k.ev.Instr = weight
	k.finish()
	return served
}

func (k *runSink) Executed(exec *games.Execution) {
	res := k.res
	res.TotalWeight += exec.Record.Instr
	k.ev.Instr = exec.Record.Instr
	k.ev.IPCalls = len(exec.IPCalls)
	switch k.cfg.Scheme {
	case MaxCPU:
		w, skipped := exec.CPUWork(k.cpuSeen)
		w.IPCalls = exec.IPCalls
		k.chip.Execute(w)
		res.SnippedWeight += skipped
		if skipped > 0 {
			res.SnippedEvents++
		}

	case MaxIP:
		w := soc.Work{}
		cw, _ := exec.CPUWork(nil)
		w.CPUInstr, w.MemBytes = cw.CPUInstr, cw.MemBytes
		for _, call := range exec.IPCalls {
			digest := trace.Combine(trace.HashString(call.Op), call.InputHash)
			if k.ipLast[call.IP] == digest {
				// The IP would recompute exactly its previous
				// invocation: serve the latched result ([43]-style).
				res.SnippedWeight += int64(call.Duration) * 1200
				continue
			}
			k.ipLast[call.IP] = digest
			w.IPCalls = append(w.IPCalls, call)
		}
		if len(w.IPCalls) < len(exec.IPCalls) {
			res.SnippedEvents++
		}
		k.chip.Execute(w)
		k.ev.IPCalls = len(w.IPCalls)

	default: // Baseline, and SNIP's misses
		before := k.meter.Total()
		k.chip.Execute(exec.Work())
		if k.cfg.Scheme == Baseline && !exec.Record.StateChanged {
			delta := k.meter.Total() - before
			res.UselessEvents++
			res.UselessEnergy += delta
			if k.met != nil {
				k.met.useless++
			}
		}
	}
	if k.met != nil {
		k.met.executed++
	}
	k.finish()
}

// finish closes the event's span, when tracing.
func (k *runSink) finish() {
	if k.cfg.Spans == nil {
		return
	}
	k.ev.Energy = int64(k.meter.Total() - k.evBefore)
	k.cfg.Spans.Finish(&k.ev, int64(k.chip.Now()))
}

// countErrors compares served outputs against ground truth field-wise.
// A truth field is right when the last served field of its name carries
// its value: the scan runs from the end, so a repeated name is judged by
// its last occurrence.
func countErrors(st *ErrorStats, served, truth []trace.Field) {
	for _, f := range truth {
		st.PredictedFields++
		i := len(served) - 1
		for i >= 0 && served[i].Name != f.Name {
			i--
		}
		if i >= 0 && served[i].Value == f.Value {
			continue
		}
		if st.ByField == nil {
			st.ByField = make(map[string]int64)
		}
		st.ByField[f.Name]++
		switch f.Category {
		case trace.OutTemp:
			st.ErrTemp++
		case trace.OutHistory:
			st.ErrHistory++
		case trace.OutExtern:
			st.ErrExtern++
		}
	}
}

// Profile runs a Baseline session with full trace collection — the
// emulator-replay step of the cloud profiler.
func Profile(gameName string, seed uint64, duration units.Time) (*Result, error) {
	return Run(Config{
		Game: gameName, Seed: seed, Duration: duration,
		Scheme: Baseline, CollectTrace: true, CollectEventLog: true,
	})
}

// IdlePhoneHours returns the battery life of an idle phone under the
// default power model: every component in its idle state (Fig. 3's ≈20 h
// reference line).
func IdlePhoneHours() float64 {
	pm := energy.DefaultPowerModel()
	var total units.Power
	for _, c := range energy.Components() {
		total += pm.Draw(c, energy.Idle)
	}
	consumed := units.EnergyOf(total, units.Hour)
	return energy.DefaultBattery().HoursToDrain(consumed, units.Hour)
}
