package fleet

import (
	"snip/internal/cloud"
	"snip/internal/energy"
	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/trace"
	"snip/internal/units"
)

// genAccum is one table generation's tally over the current session:
// what its TelemetryRecord reports and, when the ledger runs, the energy
// it charged.
type genAccum struct {
	events      int64
	lookups     int64
	hits        int64
	shadow      int64
	mispredicts int64
	savedInstr  int64
	led         *energy.Ledger // nil when the ledger is off
}

// deviceTally is one device's side of the runtime: the schemes.Sink its
// sessions play into. Each event is booked against the generation of
// the table snapshot that served it (0 while none is published); at the
// session boundary fold turns those tallies into the device's energy
// breakdown and its TelemetryRecords.
type deviceTally struct {
	co     *coordinator
	device int
	ctl    *cloud.CallControl // the device's overload control (nil without a client)
	res    *DeviceResult
	hist   *latHist // the device's (or worker's) probe latencies; only its worker touches it
	trace  obs.ID   // the session's trace, for latency exemplars

	// gens holds the session's per-generation tallies; order is their
	// first-touch order, which is deterministic because the event
	// stream is, so fold output never depends on map iteration.
	gens  map[int64]*genAccum
	order []int64
	// gen and cur are the generation serving the event being delivered
	// and its tally.
	gen int64
	cur *genAccum
	// devTotalUJ is the device's cumulative charged energy, monotone by
	// construction.
	devTotalUJ float64

	// Telemetry shipping state (pending stays empty without a client):
	// folded records awaiting a flush, and the retry counter at the last
	// fold, so each fold ships only the interval's delta.
	pending     []trace.TelemetryRecord
	lastRetries int
}

func newDeviceTally(co *coordinator, device int, res *DeviceResult, hist *latHist) *deviceTally {
	return &deviceTally{
		co: co, device: device, res: res, hist: hist,
		ctl:  co.callControl(device),
		gens: make(map[int64]*genAccum),
	}
}

func (t *deviceTally) Deliver(e *events.Event) memo.Table {
	tab, gen := t.co.cfg.Table.LoadGen()
	if t.cur == nil || t.gen != gen {
		a, ok := t.gens[gen]
		if !ok {
			a = &genAccum{}
			if t.co.cfg.Energy != nil {
				a.led = energy.NewLedger(t.co.rates)
			}
			t.gens[gen] = a
			t.order = append(t.order, gen)
		}
		t.gen, t.cur = gen, a
	}
	t.cur.events++
	chargeDelivery(t.cur.led, e)
	if tab == nil || t.co.guard.isOpen() {
		// No table yet, or the breaker judged the current one unsafe:
		// execute the handler in full. Always correct, never efficient
		// — the fail-safe side of the trade.
		return nil
	}
	return tab
}

func (t *deviceTally) Probed(probes int64, cmpBytes units.Size, hit bool, wallNS int64) {
	a := t.cur
	a.lookups++
	if hit {
		a.hits++
	}
	if wallNS >= 0 {
		// A timed probe, 1 in 16 (see schemes.Sink.Probed). Exemplar,
		// not a span: two atomic adds plus one atomic store keep the
		// probe loop lock-free while still linking the latency
		// histogram back to a concrete trace ID.
		t.co.met.lookupNS.ObserveExemplar(wallNS, t.trace)
		t.hist.observe(wallNS)
	}
	chargeLookup(a.led, probes, cmpBytes)
}

func (t *deviceTally) Hit(instr int64, served []trace.Field, truth *games.Execution) []trace.Field {
	a := t.cur
	if truth != nil {
		// A sampled shadow verify: tell the guard whether the table's
		// outputs were truth.
		chargeShadow(a.led, truth)
		mispredict := !trace.OutputsMatch(served, truth.Record.Outputs)
		t.co.guard.observe(t.gen, mispredict)
		a.shadow++
		if mispredict {
			a.mispredicts++
			// The shadow clone already computed the correct outputs;
			// applying the table's wrong ones anyway would corrupt the
			// device's state — and every later lookup keyed on it — for
			// the price of nothing. No SavedInstr credit either: the
			// handler ran in full, and the ledger books no short-circuit
			// credit.
			return truth.Record.Outputs
		}
	}
	t.res.SavedInstr += instr
	a.savedInstr += instr
	creditSaved(a.led, instr)
	return served
}

func (t *deviceTally) Executed(exec *games.Execution) {
	chargeExec(t.cur.led, exec)
}

// fold closes the session: each generation's tally, in first-touch
// order, is added to the device's energy breakdown (ledger on) and
// becomes one TelemetryRecord stamped with the session's deterministic
// simulated end time (with a client). Session time is attributed to
// generations by event share, with the remainder on the last one, so
// the slices sum exactly to the session duration. queueDepth is the
// device's pending upload-batch occupancy at fold time.
func (t *deviceTally) fold(session int, queueDepth, queueCap int) {
	if len(t.order) == 0 {
		return
	}
	cfg, res := t.co.cfg, t.res
	ships := cfg.Client != nil
	if cfg.Energy != nil && res.Energy == nil {
		res.Energy = &EnergyBreakdown{}
	}
	var totalEvents int64
	for _, g := range t.order {
		totalEvents += t.gens[g].events
	}
	dur := int64(cfg.SessionDuration)
	retries := int64(res.Retries - t.lastRetries)
	t.lastRetries = res.Retries
	var assigned int64
	for i, g := range t.order {
		a := t.gens[g]
		var rec trace.TelemetryRecord
		if a.led != nil {
			elapsed := dur - assigned
			if i < len(t.order)-1 && totalEvents > 0 {
				elapsed = dur * a.events / totalEvents
				assigned += elapsed
			}
			b := ledgerBreakdown(a.led)
			res.Energy.add(&b)
			t.devTotalUJ += b.TotalUJ
			rec.EnergyUJ, rec.SensorsUJ, rec.MemoryUJ = b.TotalUJ, b.SensorsUJ, b.MemoryUJ
			rec.CPUUJ, rec.IPsUJ = b.CPUUJ, b.IPsUJ
			rec.LookupOverheadUJ, rec.ShadowVerifyUJ = b.LookupOverheadUJ, b.ShadowVerifyUJ
			rec.SavedUJ, rec.WastedUJ = b.SavedUJ, b.WastedUJ
			rec.ElapsedUS = elapsed
			rec.DeviceTotalUJ = t.devTotalUJ
		}
		delete(t.gens, g)
		if !ships {
			continue
		}
		rec.Device = t.device
		rec.SimTimeUS = int64(session+1) * dur
		rec.Generation = g
		rec.Sessions = 1
		rec.Events, rec.Lookups, rec.Hits = a.events, a.lookups, a.hits
		rec.ShadowChecks, rec.Mispredicts = a.shadow, a.mispredicts
		rec.SavedInstr = a.savedInstr
		rec.Retries = retries
		retries = 0 // the interval's delta rides the first record only
		rec.QueueDepth, rec.QueueCap = int64(queueDepth), int64(queueCap)
		rec.TelemetryPending, rec.TelemetryCap = int64(len(t.pending)), telemetryFlushRecords
		t.pending = append(t.pending, rec)
		res.TelemetryRecords++
		t.co.met.telRecords.Inc()
	}
	t.order = t.order[:0]
	t.cur = nil
}
