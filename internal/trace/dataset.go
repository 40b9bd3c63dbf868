package trace

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"snip/internal/stats"
	"snip/internal/units"
)

// Dataset is an ordered collection of profiled event executions from one
// or more sessions — the profile SNIP ships to the cloud.
//
// It is stored column-major and pointer-free per row. A field dictionary
// holds each distinct (Name, Category, Size) triple once under a dense
// id, and an event-type dictionary each type name. The rows sit in a
// sequence of chunks. One column per chunk holds each scalar record
// attribute, and each row's inputs and outputs are a run of (id, value)
// cells in logged order, duplicates kept. Handlers log into the open
// chunk a row at a time (BeginRow, LogInput, LogOutput, EndRow); Merge
// seals the other dataset's chunks and appends them by reference, so a
// profile grows by whole sessions without copying the rows it holds.
// Readers walk the rows in place (Row, Field) or rebuild a Record
// (Record, All). A Dataset with only Game set is empty and ready for use.
type Dataset struct {
	Game string

	fields    []FieldKey
	fieldHash []uint64 // HashString of each field's name
	fieldDirs []uint8  // bit dir is set once the field is logged to that stream
	fieldID   map[FieldKey]uint32
	types     []string
	typeID    map[string]uint32

	// chunks[k] holds rows first[k] onwards; n is the row count. Only
	// cur, the last chunk, takes new rows, until Merge seals it.
	chunks []*chunk
	first  []int
	n      int
	cur    *chunk
	hint   atomic.Int32 // the chunk Row last found: walks go in order

	open    openRow
	scratch bool // cur logs into buffers from scratchChunks
	// guess[dir][t][k] is the field id logged last at position k of dir's
	// run in a row of type t: the id the next such row most likely logs
	// there, checked before the dictionary map is consulted.
	guess [2][][]uint32
}

// chunk is a run of rows in columns, its cells holding ids of the
// dictionaries of every dataset that references it. A sealed chunk is
// never appended to, and a shared one, referenced more than once, never
// remapped.
type chunk struct {
	seq, instr []int64
	typ        []uint32
	time       []units.Time
	pre, ehash []uint64
	changed    []bool
	// cells[dir] is the stream of input (dirIn) or output (dirOut) cells;
	// row j's run ends at ends[dir][j] and starts where row j-1's ends.
	cells  [2][]Cell
	ends   [2][]uint32
	shared bool
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
func (d *Dataset) Len() int { return d.n }

func (c *chunk) len() int { return len(c.seq) }

// Scratch returns an empty dataset that logs its rows into scratch
// buffers reused from one Scratch dataset to the next. Keep copies the
// rows out and hands the buffers back.
func Scratch(game string) *Dataset {
	d := &Dataset{Game: game, scratch: true}
	d.cur = scratchChunks.Get().(*chunk)
	d.push(d.cur)
	return d
}

// Keep seals the open chunk. If it logs into scratch buffers, Keep moves
// its rows into a chunk with one exactly sized array per column and
// hands the buffers back, unless they grew past maxScratchBytes.
func (d *Dataset) Keep() {
	c, scratch := d.cur, d.scratch
	d.seal()
	if !scratch {
		return
	}
	d.chunks[len(d.chunks)-1] = c.exact()
	if c.bytes() <= maxScratchBytes {
		c.truncate()
		scratchChunks.Put(c)
	}
}

// scratchChunks holds the buffers of Scratch datasets between sessions.
var scratchChunks = sync.Pool{New: func() any { return new(chunk) }}

// maxScratchBytes bounds the buffers scratchChunks keeps, so one huge
// session does not pin its buffers for every session after it.
const maxScratchBytes = 16 << 20

// exact returns a copy of c whose every column has capacity equal to its
// length.
func (c *chunk) exact() *chunk {
	k := &chunk{
		seq: exact(c.seq), instr: exact(c.instr), typ: exact(c.typ), time: exact(c.time),
		pre: exact(c.pre), ehash: exact(c.ehash), changed: exact(c.changed),
	}
	for dir := range c.cells {
		k.cells[dir], k.ends[dir] = exact(c.cells[dir]), exact(c.ends[dir])
	}
	return k
}

// exact returns a copy of s with capacity len(s). The compiler turns
// the make and the copy into one allocation that it does not zero (its
// makeslicecopy rewrite); slices.Clone would round the capacity up to
// the allocator's size class.
func exact[E any](s []E) []E {
	t := make([]E, len(s))
	copy(t, s)
	return t
}

// truncate empties every column, keeping its capacity.
func (c *chunk) truncate() {
	c.seq, c.instr, c.typ, c.time = c.seq[:0], c.instr[:0], c.typ[:0], c.time[:0]
	c.pre, c.ehash, c.changed = c.pre[:0], c.ehash[:0], c.changed[:0]
	for dir := range c.cells {
		c.cells[dir], c.ends[dir] = c.cells[dir][:0], c.ends[dir][:0]
	}
}

// bytes returns the capacity of c's columns in bytes.
func (c *chunk) bytes() int {
	n := 8*(cap(c.seq)+cap(c.instr)+cap(c.time)+cap(c.pre)+cap(c.ehash)) + 4*cap(c.typ) + cap(c.changed)
	for dir := range c.cells {
		n += 16*cap(c.cells[dir]) + 4*cap(c.ends[dir]) // a Cell is 16 bytes
	}
	return n
}

// openChunk returns the chunk new rows go to, starting one if Merge
// sealed the last.
func (d *Dataset) openChunk() *chunk {
	if d.cur == nil {
		d.cur = &chunk{}
		d.push(d.cur)
	}
	return d.cur
}

// push appends a chunk's rows.
func (d *Dataset) push(c *chunk) {
	d.chunks = append(d.chunks, c)
	d.first = append(d.first, d.n)
	d.n += c.len()
}

// seal closes the open chunk, dropping a row left open. A scratch chunk
// sealed by Merge stays in the dataset as it is.
func (d *Dataset) seal() {
	if d.cur != nil {
		d.cur.dropOpen()
		d.cur, d.scratch = nil, false
	}
}

// reserve makes room for rows more rows holding cells[dir] more cells.
func (c *chunk) reserve(rows int, cells [2]int) {
	c.seq, c.typ, c.time = grow(c.seq, rows), grow(c.typ, rows), grow(c.time, rows)
	c.instr, c.pre, c.ehash = grow(c.instr, rows), grow(c.pre, rows), grow(c.ehash, rows)
	c.changed = grow(c.changed, rows)
	for dir := range c.cells {
		c.ends[dir], c.cells[dir] = grow(c.ends[dir], rows), grow(c.cells[dir], cells[dir])
	}
}

// grow returns s with room for n more elements. It at least doubles the
// capacity when it must grow, so a copy of many rows into one chunk
// recopies it only a few times.
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
	c := d.openChunk()
	c.dropOpen()
	d.open = openRow{seq: seq, typ: typ, time: t, ehash: eventHash, pre: preStateHash}
	for dir := range c.cells {
		d.open.at[dir] = len(c.cells[dir])
	}
}

// dropOpen discards the cells of a row left open.
func (c *chunk) dropOpen() {
	for dir := range c.cells {
		c.cells[dir] = c.cells[dir][:c.runEnd(dir, c.len()-1)]
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
	o, c := &d.open, d.cur
	c.seq = append(c.seq, o.seq)
	c.typ = append(c.typ, o.typ)
	c.time = append(c.time, o.time)
	c.instr = append(c.instr, instr)
	c.pre = append(c.pre, o.pre)
	c.ehash = append(c.ehash, o.ehash)
	c.changed = append(c.changed, stateChanged)
	for dir := range c.ends {
		c.ends[dir] = append(c.ends[dir], uint32(len(c.cells[dir])))
	}
	d.n++
}

// log appends one cell to the open row's dir run. The field's id is
// guessed from the last row of the same type at the same position; the
// dictionary map resolves it only when the guess misses.
func (d *Dataset) log(dir int, prefix, name string, cat Category, size units.Size, value uint64) {
	c := d.cur
	k := len(c.cells[dir]) - d.open.at[dir]
	g := d.guess[dir][d.open.typ]
	if k < len(g) {
		id := g[k]
		if f := &d.fields[id]; f.Size == size && f.Category == cat &&
			len(f.Name) == len(prefix)+len(name) && f.Name[:len(prefix)] == prefix && f.Name[len(prefix):] == name {
			c.cells[dir] = append(c.cells[dir], Cell{id, value})
			return
		}
	}
	id := d.intern(FieldKey{prefix + name, cat, size}, dir)
	if k < len(g) {
		g[k] = id
	} else {
		d.guess[dir][d.open.typ] = append(g, id)
	}
	c.cells[dir] = append(c.cells[dir], Cell{id, value})
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
		d.fieldHash = append(d.fieldHash, HashString(k.Name))
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

// runEnd returns where row j's dir run ends (0 for j < 0).
func (c *chunk) runEnd(dir, j int) int {
	if j < 0 {
		return 0
	}
	return int(c.ends[dir][j])
}

// run returns row j's dir cells.
func (c *chunk) run(dir, j int) []Cell {
	return c.cells[dir][c.runEnd(dir, j-1):c.ends[dir][j]]
}

// locate returns the chunk holding row i and the row's index in it. A
// walk in row order finds each row in the chunk of the row before.
func (d *Dataset) locate(i int) (*chunk, int) {
	k := int(d.hint.Load())
	c, j := d.chunks[k], i-d.first[k]
	if uint(j) >= uint(c.len()) {
		k = sort.Search(len(d.first), func(k int) bool { return d.first[k] > i }) - 1
		c, j = d.chunks[k], i-d.first[k]
		d.hint.Store(int32(k))
	}
	return c, j
}

// Row returns a view of row i.
func (d *Dataset) Row(i int) Row {
	c, j := d.locate(i)
	return Row{
		EventSeq: c.seq[j], Type: c.typ[j], Time: c.time[j], Instr: c.instr[j],
		PreStateHash: c.pre[j], EventHash: c.ehash[j], StateChanged: c.changed[j],
		Inputs: c.run(dirIn, j), Outputs: c.run(dirOut, j),
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

// Merge appends all of other's rows. It seals other's chunks and appends
// them by reference, after one pass that remaps their field and type ids
// to d's dictionaries in place; other then reads them through a copy of
// d's dictionaries. If a third dataset also references one of them,
// which fixes its ids, Merge copies other's rows instead.
func (d *Dataset) Merge(other *Dataset) {
	other.seal()
	d.seal()
	cp := newCopier(d, other)
	if slices.ContainsFunc(other.chunks, func(c *chunk) bool { return c.shared }) {
		cp.copy(0, other.Len())
		return
	}
	for _, c := range other.chunks {
		cp.remap(c)
		c.shared = true
		d.push(c)
	}
	dirs := make([]uint8, len(d.fields))
	for dir, ids := range cp.ids {
		for _, id := range ids {
			if id != 0 {
				dirs[id-1] |= 1 << dir
			}
		}
	}
	other.fields, other.fieldHash, other.fieldDirs = slices.Clip(d.fields), slices.Clip(d.fieldHash), dirs
	other.types, other.fieldID, other.typeID = slices.Clip(d.types), maps.Clone(d.fieldID), maps.Clone(d.typeID)
	for dir := range other.guess {
		other.guess[dir] = make([][]uint32, len(d.types))
	}
}

// copier moves rows of src into dst, remapping src's field and type ids
// to dst's as it meets them.
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

// id returns the dst id of src's field id, logged to dir.
func (c *copier) id(dir int, id uint32) uint32 {
	if c.ids[dir][id] == 0 {
		c.ids[dir][id] = 1 + c.dst.intern(c.src.fields[id], dir)
	}
	return c.ids[dir][id] - 1
}

// remap rewrites a sealed chunk of src's rows to dst's ids in place.
func (c *copier) remap(ch *chunk) {
	for j, t := range ch.typ {
		ch.typ[j] = c.types[t]
	}
	for dir, cells := range ch.cells {
		for j := range cells {
			cells[j].ID = c.id(dir, cells[j].ID)
		}
	}
}

// copy appends copies of src's rows [lo, hi) to dst's open chunk.
func (c *copier) copy(lo, hi int) {
	for lo < hi {
		s, j := c.src.locate(lo)
		n := min(hi-lo, s.len()-j)
		c.copyChunk(s, j, j+n)
		lo += n
	}
}

// copyChunk appends copies of a src chunk's rows [lo, hi).
func (c *copier) copyChunk(s *chunk, lo, hi int) {
	d := c.dst.openChunk()
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
		for _, cell := range s.cells[dir][from[dir]:to[dir]] {
			d.cells[dir] = append(d.cells[dir], Cell{c.id(dir, cell.ID), cell.Value})
		}
	}
	c.dst.n += hi - lo
}

// TotalInstr returns the summed dynamic-instruction weight, the
// denominator of the paper's execution-coverage metric (Fig. 6).
func (d *Dataset) TotalInstr() int64 {
	var t int64
	for _, c := range d.chunks {
		for _, n := range c.instr {
			t += n
		}
	}
	return t
}

// InputHash digests the names and values of row i's inputs, in logged
// order, so hashes are comparable across rows of the same event type.
func (d *Dataset) InputHash(i int) uint64 { return d.cellHash(d.Row(i).Inputs) }

// OutputHash digests the names and values of row i's outputs; two rows
// with equal OutputHash produced identical outputs (the paper's
// "redundant events" compare on exactly this).
func (d *Dataset) OutputHash(i int) uint64 { return d.cellHash(d.Row(i).Outputs) }

func (d *Dataset) cellHash(cells []Cell) uint64 {
	h := KeySeed
	for _, c := range cells {
		h = Mix(Mix(h, d.fieldHash[c.ID]), c.Value)
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
	for _, ch := range d.chunks {
		for _, c := range ch.cells[dirIn][:ch.runEnd(dirIn, ch.len()-1)] {
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
	for _, c := range d.chunks {
		for j, n := range c.instr {
			totalInstr += n
			if !c.changed[j] {
				useless++
				uselessInstr += n
			}
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
		hs[i] = HashString(t)
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
		r := d.Row(i)
		return Combine(Combine(d.cellHash(r.Inputs), th[r.Type]), r.PreStateHash)
	})
}

// RedundantFraction returns the fraction of events whose outputs exactly
// matched some earlier execution of the same event type even though the
// inputs may differ (the paper's 17–43% "redundant events").
func (d *Dataset) RedundantFraction() float64 {
	th := d.TypeHashes()
	return d.fractionSeen(func(i int) uint64 {
		r := d.Row(i)
		return Combine(d.cellHash(r.Outputs), th[r.Type])
	})
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
		r := d.Row(i)
		for _, run := range [2][]Cell{r.Inputs, r.Outputs} {
			for _, c := range run {
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
		for hi < d.Len() && !skip[d.Row(hi).Type] {
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
