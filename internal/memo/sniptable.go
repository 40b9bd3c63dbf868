package memo

import (
	"fmt"
	"sort"
	"time"

	"snip/internal/trace"
	"snip/internal/units"
)

// SelectedField is one necessary input chosen by PFI.
type SelectedField struct {
	Name     string
	Category trace.Category
	Size     units.Size
	// NameHash caches trace.HashString(Name). keys folds every selected
	// field's name hash into the lookup key on EVERY event, through a
	// step the tables build from NameHash once per event type, so no
	// lookup walks a name string. Canonicalize fills it; zero means
	// "not yet computed".
	NameHash uint64
}

// Selection maps each event type to its necessary input fields, in a
// canonical (sorted) order. This is what PFI produces and what the cloud
// ships to the device in an OTA update.
type Selection map[string][]SelectedField

// Canonicalize sorts each type's fields by name so key hashing is stable
// and precomputes each field's NameHash for the lookup hot path.
func (s Selection) Canonicalize() {
	for _, fs := range s {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
		for i := range fs {
			fs[i].NameHash = trace.HashString(fs[i].Name)
		}
	}
}

// Width returns the summed byte size of the selected fields for an event
// type.
func (s Selection) Width(eventType string) units.Size {
	var w units.Size
	for _, f := range s[eventType] {
		w += f.Size
	}
	return w
}

// StateWidth returns the byte size of the selected NON-In.Event fields —
// the necessary inputs that must be loaded and compared per candidate
// entry at lookup time (the Fig. 11c "PFI Input Size"). In.Event fields
// are folded into the first-level hash index, mirroring the paper's
// "indexed with the event hash-code" design.
func (s Selection) StateWidth(eventType string) units.Size {
	var w units.Size
	for _, f := range s[eventType] {
		if f.Category != trace.InEvent {
			w += f.Size
		}
	}
	return w
}

// TotalWidth sums the selected width across all event types.
func (s Selection) TotalWidth() units.Size {
	var w units.Size
	for t := range s {
		w += s.Width(t)
	}
	return w
}

// CategoryBytes returns the selected bytes per input category across all
// event types (the Fig. 9 color coding).
func (s Selection) CategoryBytes() map[trace.Category]units.Size {
	out := make(map[trace.Category]units.Size)
	for _, fs := range s {
		for _, f := range fs {
			out[f.Category] += f.Size
		}
	}
	return out
}

// String summarizes the selection.
func (s Selection) String() string {
	types := make([]string, 0, len(s))
	for t := range s {
		types = append(types, t)
	}
	sort.Strings(types)
	out := ""
	for _, t := range types {
		out += fmt.Sprintf("%s[%d fields, %v] ", t, len(s[t]), s.Width(t))
	}
	return out
}

// Resolver supplies live values for selected fields at lookup time:
// "event.<type>.<field>" names resolve from the pending event object,
// "state.*" names from the game's memory. It returns ok=false for fields
// that cannot be read before execution (e.g. In.Extern data not yet
// fetched).
type Resolver func(name string) (uint64, bool)

// fieldSteps returns the key-chain step of each field's NameHash; the
// selection must be canonical.
func fieldSteps(fields []SelectedField) []trace.Step {
	steps := make([]trace.Step, len(fields))
	for i, f := range fields {
		steps[i] = trace.StepOf(f.NameHash)
	}
	return steps
}

// keys computes the two-level key of a record under one event type's
// selected fields: the hash of the selected In.Event fields (the bucket
// index) and the hash of the selected state/extern fields (compared
// linearly within the bucket). Each field folds its name hash and value
// into one of the two through its step, steps[i] for fields[i].
func keys(fields []SelectedField, steps []trace.Step, value func(name string) (uint64, bool)) (eventKey, stateKey uint64) {
	eventKey, stateKey = trace.KeySeed, trace.KeySeed
	for i := range fields {
		sf := &fields[i]
		v := trace.Absent
		if rv, ok := value(sf.Name); ok {
			v = rv
		}
		if sf.Category == trace.InEvent {
			eventKey = steps[i].Fold(eventKey, v)
		} else {
			stateKey = steps[i].Fold(stateKey, v)
		}
	}
	return eventKey, stateKey
}

// SnipEntry is one row of the deployed table: the outputs to apply when
// the necessary inputs match. Entries are immutable after the build so a
// deployed table can be probed from any number of goroutines at once.
type SnipEntry struct {
	StateKey uint64
	Outputs  []trace.Field
	Instr    int64 // dynamic-instruction weight of the profiled execution
}

// Bucket is the candidate list behind one event hash-code, scanned
// linearly at lookup time exactly as the paper describes ("all the other
// necessary inputs are loaded and compared against the corresponding
// important input entries").
type Bucket struct {
	Order []*SnipEntry // insertion order, the scan order
	ByKey map[uint64]*SnipEntry
}

// SnipTable is the map-of-structs lookup table: first indexed by event
// type and the hash of the selected In.Event fields (the "event
// hash-code"), then resolved by comparing the necessary state inputs
// against each candidate entry in the bucket. Nothing deploys it any
// more: every table the program builds or serves is a FlatTable (see
// BuildFlat). It stays as the oracle the flat table's tests compare
// against, as the benchmark's staged build (BuildSnip, then Flatten) and
// as the map baseline of the lookup sweeps.
//
// Lookup is strictly read-only: probing never mutates the table, so one
// built table can serve any number of concurrent device sessions (the
// fleet serving layer in internal/fleet does exactly that through a
// Shared snapshot). Per-lookup costs come back as return values and are
// aggregated by the caller into a LookupStats — the table itself keeps no
// runtime counters. Insert is a build-time operation and must finish
// before the table is shared; Freeze enforces that boundary.
type SnipTable struct {
	sel     Selection
	buckets map[string]map[uint64]*Bucket
	// types caches what Lookup needs per event type on every event; the
	// selection is immutable once deployed.
	types map[string]snipType

	conflictedRows int64 // build-time only

	// frozen marks the table immutable: Insert panics. Shared.Swap and
	// Freeze set it; read-only methods ignore it.
	frozen bool

	// metrics, when attached, receives hit/miss counters and the
	// wall-clock lookup-latency histogram. Nil means uninstrumented; the
	// lookup path then pays exactly one pointer check. The counters are
	// atomic, so an attached table may be probed concurrently — but
	// attach (SetMetrics) before the table is shared.
	metrics *TableMetrics
}

// LookupStats is the caller-owned accumulator for lookup costs. The
// tables themselves are read-only at probe time (a shared table cannot
// carry unsynchronized tallies), so each session, device or test owns
// one of these and feeds it the per-call return values of Lookup.
type LookupStats struct {
	Lookups       int64
	Hits          int64
	Probes        int64 // candidate entries compared
	ComparedBytes int64 // Σ probes × state width (Fig. 11c)
}

// Observe folds one Lookup outcome into the stats. Nil-safe, so callers
// that don't track costs pass a nil accumulator.
func (s *LookupStats) Observe(probes int64, comparedBytes units.Size, hit bool) {
	if s == nil {
		return
	}
	s.Lookups++
	s.Probes += probes
	s.ComparedBytes += int64(comparedBytes)
	if hit {
		s.Hits++
	}
}

// Merge adds another accumulator (e.g. a per-device tally into the fleet
// aggregate).
func (s *LookupStats) Merge(o LookupStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Probes += o.Probes
	s.ComparedBytes += o.ComparedBytes
}

// HitRate returns hits per lookup (0 when empty).
func (s LookupStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// BuildSnip constructs the table from a profile under a selection. It
// keys the rows in place, as Insert keys a record, and builds an entry's
// outputs only for the rows that insert one.
func BuildSnip(d *trace.Dataset, sel Selection) *SnipTable {
	t := NewSnipTable(sel)
	keyers := make([]*rowKeyer, d.NumTypes())
	byEvent := make([]map[uint64]*Bucket, d.NumTypes())
	for i := 0; i < d.Len(); i++ {
		r := d.Row(i)
		k := keyers[r.Type]
		if k == nil {
			et := d.TypeName(r.Type)
			st := t.types[et]
			k = newRowKeyer(d, st.fields, st.steps)
			keyers[r.Type], byEvent[r.Type] = k, t.byEvent(et)
		}
		ek, sk := k.keys(r.Inputs)
		t.insert(byEvent[r.Type], ek, sk, r.Instr, func() []trace.Field { return d.Fields(r.Outputs) },
			func(out []trace.Field) bool { return sameRowOutputs(d, out, r.Outputs) })
	}
	return t
}

// rowKeyer computes one event type's row keys under its selected fields,
// with the same result as keys on the row's Record.
type rowKeyer struct {
	fields []SelectedField
	steps  []trace.Step // steps[j] is the key-chain step of fields[j]
	// slot[id] is 1 + the first selected field named like dictionary
	// field id, or 0; first[j] is the first selected field named like j.
	slot, first []int32
	vals        []uint64
}

func newRowKeyer(d *trace.Dataset, fields []SelectedField, steps []trace.Step) *rowKeyer {
	k := &rowKeyer{fields: fields, steps: steps, slot: make([]int32, d.NumFields()),
		first: make([]int32, len(fields)), vals: make([]uint64, len(fields))}
	at := make(map[string]int32, len(fields))
	for j, f := range fields {
		if _, ok := at[f.Name]; !ok {
			at[f.Name] = int32(j)
		}
		k.first[j] = at[f.Name]
	}
	for id := range k.slot {
		if j, ok := at[d.Field(uint32(id)).Name]; ok {
			k.slot[id] = j + 1
		}
	}
	return k
}

// keys returns the two-level key of a row with the given inputs. A
// field's value is its first occurrence, so the inputs are walked
// backwards and earlier cells overwrite later ones.
func (k *rowKeyer) keys(inputs []trace.Cell) (eventKey, stateKey uint64) {
	for j := range k.vals {
		k.vals[j] = trace.Absent
	}
	for i := len(inputs) - 1; i >= 0; i-- {
		if j := k.slot[inputs[i].ID]; j > 0 {
			k.vals[j-1] = inputs[i].Value
		}
	}
	eventKey, stateKey = trace.KeySeed, trace.KeySeed
	for j, sf := range k.fields {
		v := k.vals[k.first[j]]
		if sf.Category == trace.InEvent {
			eventKey = k.steps[j].Fold(eventKey, v)
		} else {
			stateKey = k.steps[j].Fold(stateKey, v)
		}
	}
	return eventKey, stateKey
}

// sameRowOutputs is sameOutputs against a row's output cells.
func sameRowOutputs(d *trace.Dataset, a []trace.Field, b []trace.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i, c := range b {
		if a[i].Name != d.Field(c.ID).Name || a[i].Value != c.Value {
			return false
		}
	}
	return true
}

// NewSnipTable returns an empty table under a selection.
func NewSnipTable(sel Selection) *SnipTable {
	sel.Canonicalize()
	t := &SnipTable{sel: sel, buckets: make(map[string]map[uint64]*Bucket)}
	t.cacheTypes()
	return t
}

// snipType is the per-event-type lookup context: the selected fields,
// the key-chain step of each, and the state width Lookup charges per
// probe.
type snipType struct {
	fields []SelectedField
	steps  []trace.Step
	width  units.Size
}

// cacheTypes precomputes each event type's lookup context.
func (t *SnipTable) cacheTypes() {
	t.types = make(map[string]snipType, len(t.sel))
	for et, fs := range t.sel {
		t.types[et] = snipType{fields: fs, steps: fieldSteps(fs), width: t.sel.StateWidth(et)}
	}
}

// Selection returns the table's field selection.
func (t *SnipTable) Selection() Selection { return t.sel }

// SetMetrics attaches (or, with nil, detaches) observability counters.
// Attach before the table is shared across goroutines: the field itself
// is not synchronized, only the counters behind it are.
func (t *SnipTable) SetMetrics(m *TableMetrics) { t.metrics = m }

// Freeze marks the table immutable. Any later Insert panics — the guard
// that keeps a table safe to share across goroutines: once frozen, every
// remaining operation is read-only.
func (t *SnipTable) Freeze() { t.frozen = true }

// Frozen reports whether the table has been sealed against inserts.
func (t *SnipTable) Frozen() bool { return t.frozen }

// Insert adds one profiled record. Records whose keys collide with a
// different output record keep the first-profiled outputs; the conflict
// count predicts the runtime error rate when PFI under-selects.
// Inserting into a frozen (shared) table is a programming error and
// panics.
func (t *SnipTable) Insert(r *trace.Record) {
	byEvent := t.byEvent(r.EventType)
	st := t.types[r.EventType]
	ek, sk := keys(st.fields, st.steps, func(name string) (uint64, bool) {
		f, ok := r.Input(name)
		return f.Value, ok
	})
	t.insert(byEvent, ek, sk, r.Instr, func() []trace.Field { return r.Outputs },
		func(out []trace.Field) bool { return sameOutputs(out, r.Outputs) })
}

// byEvent returns an event type's bucket map, adding it if absent.
// Inserting into a frozen table panics here.
func (t *SnipTable) byEvent(eventType string) map[uint64]*Bucket {
	if t.frozen {
		panic("memo: Insert on a frozen SnipTable")
	}
	byEvent := t.buckets[eventType]
	if byEvent == nil {
		byEvent = make(map[uint64]*Bucket)
		t.buckets[eventType] = byEvent
	}
	return byEvent
}

// insert adds an entry keyed (ek, sk) to a type's buckets, with the
// outputs it asks for, unless the key is taken; then same says whether
// the taken entry's outputs match.
func (t *SnipTable) insert(byEvent map[uint64]*Bucket, ek, sk uint64, instr int64,
	outputs func() []trace.Field, same func([]trace.Field) bool) {
	b := byEvent[ek]
	if b == nil {
		b = &Bucket{ByKey: make(map[uint64]*SnipEntry)}
		byEvent[ek] = b
	}
	if e, ok := b.ByKey[sk]; ok {
		if !same(e.Outputs) {
			t.conflictedRows++
			if t.metrics != nil {
				t.metrics.Conflicts.Inc()
			}
		}
		return
	}
	e := &SnipEntry{StateKey: sk, Outputs: outputs(), Instr: instr}
	b.ByKey[sk] = e
	b.Order = append(b.Order, e)
	if t.metrics != nil {
		t.metrics.Inserts.Inc()
	}
}

func sameOutputs(a, b []trace.Field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}

// Lookup probes the table for a pending event. On a hit it returns the
// entry; either way it returns the lookup cost: how many candidate
// entries were compared (probes) and the total necessary-input bytes
// loaded and compared (probes × per-entry state width).
//
// Lookup never mutates the table (data-race-free on a shared table;
// pinned by the -race tests in shared_test.go). Callers that want
// aggregate counts fold the return values into a LookupStats.
func (t *SnipTable) Lookup(eventType string, resolve Resolver) (entry *SnipEntry, probes int64, comparedBytes units.Size, ok bool) {
	if t.metrics == nil {
		return t.lookup(eventType, resolve)
	}
	start := time.Now()
	entry, probes, comparedBytes, ok = t.lookup(eventType, resolve)
	t.metrics.observe(ok, time.Since(start).Nanoseconds())
	return entry, probes, comparedBytes, ok
}

// lookup is the uninstrumented probe Lookup wraps.
func (t *SnipTable) lookup(eventType string, resolve Resolver) (entry *SnipEntry, probes int64, comparedBytes units.Size, ok bool) {
	byEvent := t.buckets[eventType]
	st := t.types[eventType]
	width := st.width
	if byEvent == nil {
		return nil, 0, 0, false
	}
	ek, sk := keys(st.fields, st.steps, resolve)
	b := byEvent[ek]
	if b == nil {
		return nil, 1, width, false
	}
	// The real implementation scans the bucket comparing necessary
	// inputs entry by entry; the map gives us the answer, the Order
	// index gives us the honest cost.
	e, hit := b.ByKey[sk]
	if !hit {
		probes = int64(len(b.Order))
	} else {
		for i, cand := range b.Order {
			if cand == e {
				probes = int64(i + 1)
				break
			}
		}
	}
	if probes == 0 {
		probes = 1
	}
	comparedBytes = units.Size(probes) * width
	if !hit {
		return nil, probes, comparedBytes, false
	}
	return e, probes, comparedBytes, true
}

// Rows returns the total number of entries.
func (t *SnipTable) Rows() int {
	n := 0
	for _, byEvent := range t.buckets {
		for _, b := range byEvent {
			n += len(b.Order)
		}
	}
	return n
}

// Buckets returns the number of first-level (event hash-code) buckets.
func (t *SnipTable) Buckets() int {
	n := 0
	for _, byEvent := range t.buckets {
		n += len(byEvent)
	}
	return n
}

// MaxBucket returns the largest bucket's entry count — the worst-case
// comparison chain.
func (t *SnipTable) MaxBucket() int {
	max := 0
	for _, byEvent := range t.buckets {
		for _, b := range byEvent {
			if len(b.Order) > max {
				max = len(b.Order)
			}
		}
	}
	return max
}

// Size returns the deployed table size: per entry, the selected input
// width of its type plus its stored output record.
func (t *SnipTable) Size() units.Size {
	var total units.Size
	for et, byEvent := range t.buckets {
		w := t.sel.Width(et)
		for _, b := range byEvent {
			for _, e := range b.Order {
				rowOut := units.Size(0)
				for _, f := range e.Outputs {
					rowOut += f.Size
				}
				total += w + rowOut + 16 // key hash + bookkeeping
			}
		}
	}
	return total
}

// Fingerprint returns a deterministic digest of the table's contents:
// every entry's event type, keys, instruction weight and output fields,
// folded in a canonical order. Two tables with identical rows produce
// identical fingerprints regardless of map iteration order — the cheap
// way to verify a rollback restored exactly the table that was displaced,
// or that a poisoned copy really differs from its source.
func (t *SnipTable) Fingerprint() uint64 {
	h := trace.HashString("snip-table-v1")
	types := make([]string, 0, len(t.buckets))
	for et := range t.buckets {
		types = append(types, et)
	}
	sort.Strings(types)
	for _, et := range types {
		byEvent := t.buckets[et]
		eks := make([]uint64, 0, len(byEvent))
		for ek := range byEvent {
			eks = append(eks, ek)
		}
		sort.Slice(eks, func(i, j int) bool { return eks[i] < eks[j] })
		h = trace.Combine(h, trace.HashString(et))
		for _, ek := range eks {
			h = trace.Combine(h, ek)
			for _, e := range byEvent[ek].Order {
				h = trace.Combine(h, e.StateKey)
				h = trace.Combine(h, uint64(e.Instr))
				for _, f := range e.Outputs {
					h = trace.Combine(h, trace.HashString(f.Name))
					h = trace.Combine(h, f.Value)
				}
			}
		}
	}
	return h
}

// Conflicts returns how many profile rows disagreed with an existing
// entry during the build.
func (t *SnipTable) Conflicts() int64 { return t.conflictedRows }
