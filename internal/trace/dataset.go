package trace

import (
	"sort"

	"snip/internal/stats"
	"snip/internal/units"
)

// Dataset is an ordered collection of profiled event executions from one
// or more sessions — the profile SNIP ships to the cloud.
//
// It is stored column-major and pointer-free. A field dictionary holds
// each distinct (Name, Category, Size) triple once under a dense id, and
// an event-type dictionary each type name. One column per row holds each
// scalar record attribute, and each row's inputs and outputs are a run
// of (id, value) cells in logged order, duplicates kept. Handlers log
// into it a row at a time (BeginRow, LogInput, LogOutput, EndRow);
// readers walk the rows in place (Row, Field) or rebuild a Record
// (Record, All). A Dataset with only Game set is empty and ready for use.
type Dataset struct {
	Game string

	fields    []FieldKey
	fieldHash []uint64 // HashString of each field's name
	fieldDirs []uint8  // bit dir is set once the field is logged to that stream
	fieldID   map[FieldKey]uint32
	types     []string
	typeID    map[string]uint32

	seq     []int64
	typ     []uint32
	time    []units.Time
	instr   []int64
	pre     []uint64
	ehash   []uint64
	changed []bool
	// cells[dir] is the stream of input (dirIn) or output (dirOut) cells;
	// row i's run ends at ends[dir][i] and starts where row i-1's ends.
	cells [2][]Cell
	ends  [2][]uint32

	open openRow
	// guess[dir][t][k] is the field id logged last at position k of dir's
	// run in a row of type t: the id the next such row most likely logs
	// there, checked before the dictionary map is consulted.
	guess [2][][]uint32
}

// The two cell streams of a Dataset.
const (
	dirIn  = 0
	dirOut = 1
)

// FieldKey is one entry of a Dataset's field dictionary.
type FieldKey struct {
	Name     string
	Category Category
	Size     units.Size
}

// Cell is one logged field value: the field's dictionary id and value.
type Cell struct {
	ID    uint32
	Value uint64
}

// openRow is the row between BeginRow and EndRow: its scalars and where
// its runs start.
type openRow struct {
	seq        int64
	typ        uint32
	time       units.Time
	ehash, pre uint64
	at         [2]int
}

// Row is a view of one row. Inputs and Outputs share the dataset's
// storage and must not be modified.
type Row struct {
	EventSeq     int64
	Type         uint32 // event-type id; TypeName resolves it
	Time         units.Time
	Instr        int64
	PreStateHash uint64
	EventHash    uint64
	StateChanged bool
	Inputs       []Cell
	Outputs      []Cell
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.seq) }

// Grow makes room for n more rows. Once the dataset has rows, it also
// makes room for their cells, at the mean run length so far.
func (d *Dataset) Grow(n int) {
	var cells [2]int
	if rows := d.Len(); rows > 0 {
		for dir := range cells {
			cells[dir] = n*d.runEnd(dir, rows-1)/rows + 1
		}
	}
	d.reserve(n, cells)
}

// reserve makes room for rows more rows holding cells[dir] more cells.
func (d *Dataset) reserve(rows int, cells [2]int) {
	d.seq, d.typ, d.time = grow(d.seq, rows), grow(d.typ, rows), grow(d.time, rows)
	d.instr, d.pre, d.ehash = grow(d.instr, rows), grow(d.pre, rows), grow(d.ehash, rows)
	d.changed = grow(d.changed, rows)
	for dir := range d.cells {
		d.ends[dir], d.cells[dir] = grow(d.ends[dir], rows), grow(d.cells[dir], cells[dir])
	}
}

// grow returns s with room for n more elements. It at least doubles the
// capacity when it must grow: a profile grows by whole sessions, and
// append's smaller steps for large slices would recopy it many times.
func grow[E any](s []E, n int) []E {
	if n <= cap(s)-len(s) {
		return s
	}
	t := make([]E, len(s), max(2*cap(s), len(s)+n))
	copy(t, s)
	return t
}

// BeginRow opens a row for one event execution; LogInput and LogOutput
// add its fields and EndRow closes it. A row left open is discarded by
// the next BeginRow.
func (d *Dataset) BeginRow(seq int64, eventType string, t units.Time, eventHash, preStateHash uint64) {
	typ, ok := d.typeID[eventType]
	if !ok {
		typ = d.addType(eventType)
	}
	d.open = openRow{seq: seq, typ: typ, time: t, ehash: eventHash, pre: preStateHash}
	d.dropOpen()
	for dir := range d.cells {
		d.open.at[dir] = len(d.cells[dir])
	}
}

// dropOpen discards the cells of a row left open.
func (d *Dataset) dropOpen() {
	for dir := range d.cells {
		d.cells[dir] = d.cells[dir][:d.runEnd(dir, d.Len()-1)]
	}
}

// LogInput adds an input field named prefix+name to the open row.
// Passing the name in two parts lets a caller that builds names from a
// fixed prefix log without building the string.
func (d *Dataset) LogInput(prefix, name string, cat Category, size units.Size, value uint64) {
	d.log(dirIn, prefix, name, cat, size, value)
}

// LogOutput adds an output field named prefix+name to the open row.
func (d *Dataset) LogOutput(prefix, name string, cat Category, size units.Size, value uint64) {
	d.log(dirOut, prefix, name, cat, size, value)
}

// EndRow closes the open row.
func (d *Dataset) EndRow(instr int64, stateChanged bool) {
	o := &d.open
	d.seq = append(d.seq, o.seq)
	d.typ = append(d.typ, o.typ)
	d.time = append(d.time, o.time)
	d.instr = append(d.instr, instr)
	d.pre = append(d.pre, o.pre)
	d.ehash = append(d.ehash, o.ehash)
	d.changed = append(d.changed, stateChanged)
	for dir := range d.ends {
		d.ends[dir] = append(d.ends[dir], uint32(len(d.cells[dir])))
	}
}

// log appends one cell to the open row's dir run. The field's id is
// guessed from the last row of the same type at the same position; the
// dictionary map resolves it only when the guess misses.
func (d *Dataset) log(dir int, prefix, name string, cat Category, size units.Size, value uint64) {
	k := len(d.cells[dir]) - d.open.at[dir]
	g := d.guess[dir][d.open.typ]
	if k < len(g) {
		id := g[k]
		if f := &d.fields[id]; f.Size == size && f.Category == cat &&
			len(f.Name) == len(prefix)+len(name) && f.Name[:len(prefix)] == prefix && f.Name[len(prefix):] == name {
			d.cells[dir] = append(d.cells[dir], Cell{id, value})
			return
		}
	}
	id := d.intern(FieldKey{prefix + name, cat, size}, dir)
	if k < len(g) {
		g[k] = id
	} else {
		d.guess[dir][d.open.typ] = append(g, id)
	}
	d.cells[dir] = append(d.cells[dir], Cell{id, value})
}

// intern returns k's dictionary id, adding it if absent, and marks it
// logged to dir.
func (d *Dataset) intern(k FieldKey, dir int) uint32 {
	id, ok := d.fieldID[k]
	if !ok {
		if d.fieldID == nil {
			d.fieldID = make(map[FieldKey]uint32)
		}
		id = uint32(len(d.fields))
		d.fieldID[k] = id
		d.fields = append(d.fields, k)
		d.fieldHash = append(d.fieldHash, hashString(k.Name))
		d.fieldDirs = append(d.fieldDirs, 0)
	}
	d.fieldDirs[id] |= 1 << dir
	return id
}

// addType adds an event type to the type dictionary.
func (d *Dataset) addType(name string) uint32 {
	if d.typeID == nil {
		d.typeID = make(map[string]uint32)
	}
	id := uint32(len(d.types))
	d.typeID[name] = id
	d.types = append(d.types, name)
	d.guess[dirIn] = append(d.guess[dirIn], nil)
	d.guess[dirOut] = append(d.guess[dirOut], nil)
	return id
}

// runEnd returns where row i's dir run ends (0 for i < 0).
func (d *Dataset) runEnd(dir, i int) int {
	if i < 0 {
		return 0
	}
	return int(d.ends[dir][i])
}

// run returns row i's dir cells.
func (d *Dataset) run(dir, i int) []Cell {
	return d.cells[dir][d.runEnd(dir, i-1):d.ends[dir][i]]
}

// Row returns a view of row i.
func (d *Dataset) Row(i int) Row {
	return Row{
		EventSeq: d.seq[i], Type: d.typ[i], Time: d.time[i], Instr: d.instr[i],
		PreStateHash: d.pre[i], EventHash: d.ehash[i], StateChanged: d.changed[i],
		Inputs: d.run(dirIn, i), Outputs: d.run(dirOut, i),
	}
}

// NumFields returns the size of the field dictionary; ids run from 0.
func (d *Dataset) NumFields() int { return len(d.fields) }

// Field returns the dictionary entry of a field id.
func (d *Dataset) Field(id uint32) FieldKey { return d.fields[id] }

// NumTypes returns the size of the event-type dictionary; ids run from 0.
func (d *Dataset) NumTypes() int { return len(d.types) }

// TypeName returns the event type of a type id.
func (d *Dataset) TypeName(id uint32) string { return d.types[id] }

// Fields rebuilds the Fields of a run of cells, nil for none.
func (d *Dataset) Fields(cells []Cell) []Field {
	if len(cells) == 0 {
		return nil
	}
	out := make([]Field, len(cells))
	for i, c := range cells {
		f := &d.fields[c.ID]
		out[i] = Field{Name: f.Name, Category: f.Category, Size: f.Size, Value: c.Value}
	}
	return out
}

// Record rebuilds row i as a Record: fields in logged order, duplicates
// kept, nil Inputs or Outputs when the row logged none.
func (d *Dataset) Record(i int) *Record {
	r := d.Row(i)
	return &Record{
		EventSeq: r.EventSeq, EventType: d.types[r.Type], EventHash: r.EventHash, Time: r.Time,
		Instr: r.Instr, PreStateHash: r.PreStateHash, StateChanged: r.StateChanged,
		Inputs: d.Fields(r.Inputs), Outputs: d.Fields(r.Outputs),
	}
}

// All iterates over the rows as rebuilt Records, in order. It has the
// shape of an iter.Seq2, which this module's Go version cannot name.
func (d *Dataset) All() func(yield func(int, *Record) bool) {
	return func(yield func(int, *Record) bool) {
		for i := 0; i < d.Len(); i++ {
			if !yield(i, d.Record(i)) {
				return
			}
		}
	}
}

// Append copies records in as new rows.
func (d *Dataset) Append(rs ...*Record) {
	for _, r := range rs {
		d.BeginRow(r.EventSeq, r.EventType, r.Time, r.EventHash, r.PreStateHash)
		for _, f := range r.Inputs {
			d.LogInput("", f.Name, f.Category, f.Size, f.Value)
		}
		for _, f := range r.Outputs {
			d.LogOutput("", f.Name, f.Category, f.Size, f.Value)
		}
		d.EndRow(r.Instr, r.StateChanged)
	}
}

// Merge appends all of other's rows.
func (d *Dataset) Merge(other *Dataset) {
	newCopier(d, other).copy(0, other.Len())
}

// copier appends row ranges of src to dst, remapping src's field and
// type ids to dst's as it meets them.
type copier struct {
	dst, src *Dataset
	ids      [2][]uint32 // src field id → 1 + dst id, per stream; 0 until met
	types    []uint32
}

func newCopier(dst, src *Dataset) *copier {
	c := &copier{dst: dst, src: src, types: make([]uint32, len(src.types))}
	for dir := range c.ids {
		c.ids[dir] = make([]uint32, len(src.fields))
	}
	for i, name := range src.types {
		id, ok := dst.typeID[name]
		if !ok {
			id = dst.addType(name)
		}
		c.types[i] = id
	}
	return c
}

// copy appends src's rows [lo, hi).
func (c *copier) copy(lo, hi int) {
	d, s := c.dst, c.src
	if lo >= hi {
		return
	}
	var from, to [2]int
	for dir := range from {
		from[dir], to[dir] = s.runEnd(dir, lo-1), s.runEnd(dir, hi-1)
	}
	d.dropOpen()
	d.reserve(hi-lo, [2]int{to[dirIn] - from[dirIn], to[dirOut] - from[dirOut]})
	d.seq = append(d.seq, s.seq[lo:hi]...)
	d.time = append(d.time, s.time[lo:hi]...)
	d.instr = append(d.instr, s.instr[lo:hi]...)
	d.pre = append(d.pre, s.pre[lo:hi]...)
	d.ehash = append(d.ehash, s.ehash[lo:hi]...)
	d.changed = append(d.changed, s.changed[lo:hi]...)
	for _, t := range s.typ[lo:hi] {
		d.typ = append(d.typ, c.types[t])
	}
	for dir := range d.cells {
		shift := len(d.cells[dir]) - from[dir]
		for _, e := range s.ends[dir][lo:hi] {
			d.ends[dir] = append(d.ends[dir], uint32(int(e)+shift))
		}
		ids := c.ids[dir]
		for _, cell := range s.cells[dir][from[dir]:to[dir]] {
			if ids[cell.ID] == 0 {
				ids[cell.ID] = 1 + d.intern(s.fields[cell.ID], dir)
			}
			d.cells[dir] = append(d.cells[dir], Cell{ids[cell.ID] - 1, cell.Value})
		}
	}
}

// TotalInstr returns the summed dynamic-instruction weight, the
// denominator of the paper's execution-coverage metric (Fig. 6).
func (d *Dataset) TotalInstr() int64 {
	var t int64
	for _, n := range d.instr {
		t += n
	}
	return t
}

// InputHash digests the names and values of row i's inputs, in logged
// order, so hashes are comparable across rows of the same event type.
func (d *Dataset) InputHash(i int) uint64 { return d.runHash(dirIn, i) }

// OutputHash digests the names and values of row i's outputs; two rows
// with equal OutputHash produced identical outputs (the paper's
// "redundant events" compare on exactly this).
func (d *Dataset) OutputHash(i int) uint64 { return d.runHash(dirOut, i) }

func (d *Dataset) runHash(dir, i int) uint64 {
	h := uint64(fnvOffset)
	for _, c := range d.run(dir, i) {
		h = fnvMix(fnvMix(h, d.fieldHash[c.ID]), c.Value)
	}
	return h
}

// FieldInfo summarizes one input-field location across the dataset.
type FieldInfo struct {
	Name       string
	Category   Category
	Size       units.Size // max observed size at this location
	Occurrence int        // in how many records the field appears
	Distinct   int        // distinct values observed
}

// InputFieldUniverse returns the union of all input-field locations seen
// across the dataset — the paper's "union of all the input locations"
// that makes naive records huge (§III). Results are sorted by name.
func (d *Dataset) InputFieldUniverse() []FieldInfo {
	type acc struct {
		info   FieldInfo
		values map[uint64]struct{}
	}
	byName := make(map[string]*acc)
	byID := make([]*acc, len(d.fields))
	for _, c := range d.cells[dirIn][:d.runEnd(dirIn, d.Len()-1)] {
		a := byID[c.ID]
		if a == nil {
			f := d.fields[c.ID]
			if a = byName[f.Name]; a == nil {
				a = &acc{info: FieldInfo{Name: f.Name, Category: f.Category}, values: make(map[uint64]struct{})}
				byName[f.Name] = a
			}
			a.info.Size = max(a.info.Size, f.Size)
			byID[c.ID] = a
		}
		a.info.Occurrence++
		a.values[c.Value] = struct{}{}
	}
	out := make([]FieldInfo, 0, len(byName))
	for _, a := range byName {
		a.info.Distinct = len(a.values)
		out = append(out, a.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// UnionInputWidth returns the record width of a naive lookup table: the
// summed max size of every input location ever observed.
func (d *Dataset) UnionInputWidth() units.Size { return d.unionWidth(dirIn) }

// UnionOutputWidth returns the summed max size over all output locations.
func (d *Dataset) UnionOutputWidth() units.Size { return d.unionWidth(dirOut) }

// unionWidth sums, over the names logged to dir, each name's max size.
// It reads the dictionary only: every entry was logged by some row.
func (d *Dataset) unionWidth(dir int) units.Size {
	byName := make(map[string]units.Size)
	for id, f := range d.fields {
		if d.fieldDirs[id]&(1<<dir) != 0 && f.Size > byName[f.Name] {
			byName[f.Name] = f.Size
		}
	}
	var w units.Size
	for _, s := range byName {
		w += s
	}
	return w
}

// UselessFraction returns the fraction of events whose processing changed
// no state (Fig. 4's "% useless events"), and the fraction of dynamic
// instructions they consumed.
func (d *Dataset) UselessFraction() (events, instr float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	var useless, uselessInstr, totalInstr int64
	for i, n := range d.instr {
		totalInstr += n
		if !d.changed[i] {
			useless++
			uselessInstr += n
		}
	}
	events = float64(useless) / float64(d.Len())
	if totalInstr > 0 {
		instr = float64(uselessInstr) / float64(totalInstr)
	}
	return events, instr
}

// TypeHashes returns HashString of every event type, by type id: a
// profile holds a handful of types but many rows, so per-row loops look
// the hashes up instead of rehashing the names.
func (d *Dataset) TypeHashes() []uint64 {
	hs := make([]uint64, len(d.types))
	for i, t := range d.types {
		hs[i] = hashString(t)
	}
	return hs
}

// RepeatedFraction returns the fraction of events whose full input record
// exactly matched an earlier record (the paper's 2–5% "repeated events").
func (d *Dataset) RepeatedFraction() float64 {
	// "Exactly repetitive in their inputs" is judged on the union record:
	// the event object AND every byte of application state.
	th := d.TypeHashes()
	return d.fractionSeen(func(i int) uint64 {
		return Combine(Combine(d.InputHash(i), th[d.typ[i]]), d.pre[i])
	})
}

// RedundantFraction returns the fraction of events whose outputs exactly
// matched some earlier execution of the same event type even though the
// inputs may differ (the paper's 17–43% "redundant events").
func (d *Dataset) RedundantFraction() float64 {
	th := d.TypeHashes()
	return d.fractionSeen(func(i int) uint64 { return Combine(d.OutputHash(i), th[d.typ[i]]) })
}

// fractionSeen returns the fraction of rows whose key an earlier row had.
func (d *Dataset) fractionSeen(key func(i int) uint64) float64 {
	if d.Len() == 0 {
		return 0
	}
	seen := make(map[uint64]struct{}, d.Len())
	var repeats int
	for i := 0; i < d.Len(); i++ {
		h := key(i)
		if _, ok := seen[h]; ok {
			repeats++
		} else {
			seen[h] = struct{}{}
		}
	}
	return float64(repeats) / float64(d.Len())
}

// SizeCDFs returns per-category CDFs of the input and output sizes per
// record, and per-category occurrence fractions — Fig. 7a/7b.
func (d *Dataset) SizeCDFs() (cdfs [NumCategories]*stats.CDF, occurrence [NumCategories]float64) {
	for i := range cdfs {
		cdfs[i] = &stats.CDF{}
	}
	if d.Len() == 0 {
		return
	}
	var present [NumCategories]int
	for i := 0; i < d.Len(); i++ {
		var sizes [NumCategories]units.Size
		var has [NumCategories]bool
		for dir := range d.cells {
			for _, c := range d.run(dir, i) {
				f := &d.fields[c.ID]
				sizes[f.Category] += f.Size
				has[f.Category] = true
			}
		}
		for c := 0; c < NumCategories; c++ {
			if has[c] {
				present[c]++
				cdfs[c].Add(float64(sizes[c]))
			}
		}
	}
	for c := 0; c < NumCategories; c++ {
		occurrence[c] = float64(present[c]) / float64(d.Len())
	}
	return
}

// FilterTypes returns a copy of the rows whose event type is NOT in the
// given exclusion list — e.g. excluding "vsync" leaves the user-gesture
// events the paper's §I repetition statistics are computed over.
func (d *Dataset) FilterTypes(exclude ...string) *Dataset {
	skip := make([]bool, len(d.types))
	for _, t := range exclude {
		if id, ok := d.typeID[t]; ok {
			skip[id] = true
		}
	}
	out := &Dataset{Game: d.Game}
	c := newCopier(out, d)
	for lo := 0; lo < d.Len(); {
		hi := lo
		for hi < d.Len() && !skip[d.typ[hi]] {
			hi++
		}
		c.copy(lo, hi)
		lo = hi + 1
	}
	return out
}

// Split copies the dataset into a training prefix and an evaluation
// suffix at the given fraction of records.
func (d *Dataset) Split(trainFrac float64) (train, eval *Dataset) {
	n := min(max(int(float64(d.Len())*trainFrac), 0), d.Len())
	train, eval = &Dataset{Game: d.Game}, &Dataset{Game: d.Game}
	newCopier(train, d).copy(0, n)
	newCopier(eval, d).copy(n, d.Len())
	return train, eval
}

// Truncate returns a copy of the first n records — used to model an
// insufficient profile for the continuous-learning experiment (Fig. 12).
func (d *Dataset) Truncate(n int) *Dataset {
	out := &Dataset{Game: d.Game}
	newCopier(out, d).copy(0, min(n, d.Len()))
	return out
}
