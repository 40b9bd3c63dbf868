// Package pfi implements Permutation Feature Importance-based selection
// of necessary inputs — the core of SNIP (§V). Given a profiled dataset
// of event executions, it:
//
//  1. trains a table predictor (necessary-input values → output record)
//     per event type,
//  2. ranks every input field by permutation importance: how much the
//     prediction error grows when that field's column is shuffled across
//     the validation records, and
//  3. backward-eliminates fields, least important first, while the
//     erroneous-output constraint holds — keeping errors out of the
//     Out.History/Out.Extern categories that would corrupt execution
//     (§IV-B), while tolerating slack in Out.Temp.
//
// The output is a memo.Selection: for each event type, the small set of
// input fields (typically a few hundred bytes out of megabytes — the
// paper's ≈0.2%) that must be compared at runtime to short-circuit the
// event safely, plus the Fig. 9 trim curve.
package pfi

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/parallel"
	"snip/internal/rng"
	"snip/internal/trace"
	"snip/internal/units"
)

// Config tunes the selection process.
type Config struct {
	// TrainFrac splits each type's records into a training prefix and a
	// validation suffix (temporal split, as continuous profiling would).
	TrainFrac float64
	// MaxNonTempError is ε: the maximum tolerated rate of erroneous
	// Out.History/Out.Extern fields among short-circuited predictions.
	MaxNonTempError float64
	// MaxTempError bounds Out.Temp field errors; the paper tolerates
	// these (wrong frame tile for <16 ms) so the default is generous.
	MaxTempError float64
	// ForceInclude lists field names a developer marked as necessary
	// (Option 1 in §V-B); they are never eliminated.
	ForceInclude map[string]bool
	// ForceExclude lists field names a developer marked droppable.
	ForceExclude map[string]bool
	// Log, when non-nil, receives a line per elimination decision.
	Log io.Writer
	// Obs, when non-nil, receives search-progress counters (types
	// searched, fields scored, drops attempted/accepted). Write-only:
	// the Result is identical with Obs set or nil.
	Obs *obs.Registry

	metrics *searchMetrics
}

// searchMetrics counts PFI search progress. All handles are nil-safe.
type searchMetrics struct {
	types         *obs.Counter
	fields        *obs.Counter
	permutations  *obs.Counter
	dropsTried    *obs.Counter
	dropsAccepted *obs.Counter
	selectedBytes *obs.Gauge
}

func newSearchMetrics(reg *obs.Registry) *searchMetrics {
	if reg == nil {
		return nil
	}
	return &searchMetrics{
		types:         reg.Counter("snip_pfi_types_total", "event types searched"),
		fields:        reg.Counter("snip_pfi_fields_evaluated_total", "input fields scored for permutation importance"),
		permutations:  reg.Counter("snip_pfi_permutations_total", "column shuffles evaluated"),
		dropsTried:    reg.Counter("snip_pfi_drops_attempted_total", "backward-elimination drops attempted"),
		dropsAccepted: reg.Counter("snip_pfi_drops_accepted_total", "drops that kept errors within bounds"),
		selectedBytes: reg.Gauge("snip_pfi_selected_bytes", "total width of the current selection"),
	}
}

const (
	// permutations is how many shuffles average each field's importance.
	permutations = 3
	// seed drives the permutation shuffles.
	seed = 42
)

// DefaultConfig returns the standard tuning.
func DefaultConfig() Config {
	return Config{
		TrainFrac: 0.6,
		// The paper's operating point (Fig. 9): ε = 0.2% erroneous
		// Out.History/Out.Extern output fields tolerated; recovering the
		// last of them would require ALL remaining input fields.
		MaxNonTempError: 0.002,
		// Out.Temp errors are tolerable by design (§IV-B): a wrong frame
		// tile shows for <16 ms. No constraint.
		MaxTempError: 0.10,
	}
}

// FieldImportance is one field's permutation-importance measurement.
type FieldImportance struct {
	Name       string
	Category   trace.Category
	Size       units.Size
	EventType  string
	Importance float64 // error increase when the column is permuted
}

// TrimPoint is one step of the Fig. 9 curve: the remaining selected
// bytes after a (attempted) field drop, and the resulting error rates.
type TrimPoint struct {
	SelectedBytes   units.Size
	NonTempError    float64
	TempError       float64
	Coverage        float64
	DroppedField    string
	DroppedCategory trace.Category
	Accepted        bool
}

// Metrics summarizes a selection's validation quality.
type Metrics struct {
	Coverage     float64 // instruction-weighted fraction of validation hits
	NonTempError float64 // erroneous History/Extern fields per predicted such field
	TempError    float64 // erroneous Temp fields per predicted Temp field
	FieldError   float64 // all erroneous fields per predicted field
}

// Result is the outcome of a PFI run.
type Result struct {
	Selection  memo.Selection
	Importance []FieldImportance
	Curve      []TrimPoint
	Final      Metrics
	// InputBytesTotal is the union input width PFI started from;
	// SelectedBytes what survived — the paper's "1.2 kB out of 1 MB".
	InputBytesTotal units.Size
	SelectedBytes   units.Size
}

// Run executes PFI over a profile and returns the necessary-input
// selection.
func Run(d *trace.Dataset, cfg Config) (*Result, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("pfi: empty profile")
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		return nil, fmt.Errorf("pfi: TrainFrac must be in (0,1), got %v", cfg.TrainFrac)
	}
	r := rng.New(seed)
	cfg.metrics = newSearchMetrics(cfg.Obs)
	res := &Result{Selection: memo.Selection{}}
	res.InputBytesTotal = d.UnionInputWidth()

	// Pre-split one source per event type IN TYPE ORDER before fanning
	// out, so each type's shuffle stream is a pure function of the seed
	// and the type's position — never of goroutine interleaving.
	types := splitByType(d, cfg.TrainFrac)
	srcs := make([]*rng.Source, len(types))
	for i := range types {
		srcs[i] = r.Split()
	}
	// Elimination logging writes one line per decision; keep the type
	// fan-out serial when a log is attached so lines stay in type order.
	// Results are identical for every worker count: each type and each
	// field owns a pre-Split rng.Source, so the shuffle streams do not
	// depend on scheduling.
	typeWorkers := 0
	if cfg.Log != nil {
		typeWorkers = 1
	}
	results, err := parallel.Map(typeWorkers, len(types), func(i int) (typeResult, error) {
		return selectForType(types[i], cfg, srcs[i]), nil
	})
	if err != nil {
		return nil, err
	}
	var final evalCounts
	for i, tr := range results {
		res.Selection[types[i].eventType] = tr.sel
		res.Importance = append(res.Importance, tr.imps...)
		res.Curve = append(res.Curve, tr.curve...)
		final.merge(tr.final)
	}
	res.Selection.Canonicalize()
	res.SelectedBytes = res.Selection.TotalWidth()
	res.Final = final.metrics()
	if m := cfg.metrics; m != nil {
		m.selectedBytes.Set(int64(res.SelectedBytes))
	}
	return res, nil
}

// typeData is one event type's rows of a dataset under the temporal
// split: rows[:nTrain] train, the rest validate.
type typeData struct {
	d         *trace.Dataset
	eventType string
	rows      []int32
	nTrain    int
}

// splitByType partitions the dataset per event type, in order of first
// appearance, with a temporal train/validation split.
func splitByType(d *trace.Dataset, trainFrac float64) []*typeData {
	byType := make([]*typeData, d.NumTypes())
	var order []*typeData
	for i := 0; i < d.Len(); i++ {
		t := d.Row(i).Type
		td := byType[t]
		if td == nil {
			td = &typeData{d: d, eventType: d.TypeName(t)}
			byType[t] = td
			order = append(order, td)
		}
		td.rows = append(td.rows, int32(i))
	}
	out := order[:0]
	for _, td := range order {
		n := int(float64(len(td.rows)) * trainFrac)
		if n < 1 {
			n = 1
		}
		if n >= len(td.rows) {
			n = len(td.rows) - 1
		}
		if n < 1 {
			continue // a single record cannot be split; skip the type
		}
		td.nTrain = n
		out = append(out, td)
	}
	return out
}

// fieldMeta describes one input field location within one event type.
type fieldMeta struct {
	name     string
	category trace.Category
	size     units.Size
}

// outVal is one output field of a record: the index of its name in the
// type's output-name universe, its value and whether it is Out.Temp.
type outVal struct {
	name  int32
	temp  bool
	value uint64
}

// columns is one event type's records in the column-major form the
// search runs on. Record r < nTrain is a training record, the others
// validate; validation record j is record nTrain+j.
//
// A model over a field subset keys record r on the chain of (name hash,
// value) folds over the subset in sorted-name order, starting from
// trace.KeySeed, with trace.Absent for a field the record lacks: the
// key memo's tables give the record under the same selection.
// Predicting a validation record finds the first training record with
// the same key and compares outputs by name.
type columns struct {
	fields []fieldMeta  // input-field universe, sorted by name
	steps  []trace.Step // the key-chain step of each field name's hash
	// vals[f][r] is field f's value in record r: its first occurrence
	// in the record's inputs, or trace.Absent.
	vals   [][]uint64
	instr  []int64 // per record
	nTrain int
	// pred[predAt[r]:predAt[r+1]] is what training record r predicts:
	// one entry per output name, the last duplicate's value, sorted by
	// name index.
	pred   []outVal
	predAt []int32
	// truth[truthAt[j]:truthAt[j+1]] are validation record j's outputs,
	// duplicates kept, sorted by name index; nTemp[j] of them are
	// Out.Temp, nNonTemp[j] are not.
	truth           []outVal
	truthAt         []int32
	nTemp, nNonTemp []int32
}

func newColumns(td *typeData) *columns {
	d, n := td.d, len(td.rows)
	c := &columns{instr: make([]int64, n), nTrain: td.nTrain,
		predAt: []int32{0}, truthAt: []int32{0}}
	// inCol and outName map a dictionary id to 1 + its input column and
	// 1 + its output-name index (0 until first seen): names resolve
	// through the maps once per id, not once per cell.
	inCol, outName := make([]int32, d.NumFields()), make([]int32, d.NumFields())
	inIndex := make(map[string]int32)
	var setBy []int // setBy[f] = r+1 once record r set field f
	outIndex := make(map[string]int32)
	var outs []outVal
	for r, row := range td.rows {
		rec := d.Row(int(row))
		c.instr[r] = rec.Instr
		for _, cell := range rec.Inputs {
			if inCol[cell.ID] == 0 {
				f := d.Field(cell.ID)
				i, ok := inIndex[f.Name]
				if !ok {
					i = int32(len(c.fields))
					inIndex[f.Name] = i
					c.fields = append(c.fields, fieldMeta{name: f.Name, category: f.Category})
					col := make([]uint64, n)
					for k := range col {
						col[k] = trace.Absent
					}
					c.vals = append(c.vals, col)
					setBy = append(setBy, 0)
				}
				c.fields[i].size = max(c.fields[i].size, f.Size)
				inCol[cell.ID] = i + 1
			}
			if i := inCol[cell.ID] - 1; setBy[i] != r+1 {
				setBy[i] = r + 1
				c.vals[i][r] = cell.Value
			}
		}

		outs = outs[:0]
		for _, cell := range rec.Outputs {
			f := d.Field(cell.ID)
			if outName[cell.ID] == 0 {
				if _, ok := outIndex[f.Name]; !ok {
					outIndex[f.Name] = int32(len(outIndex))
				}
				outName[cell.ID] = outIndex[f.Name] + 1
			}
			outs = append(outs, outVal{name: outName[cell.ID] - 1, temp: f.Category == trace.OutTemp, value: cell.Value})
		}
		slices.SortStableFunc(outs, func(a, b outVal) int { return cmp.Compare(a.name, b.name) })
		if r < c.nTrain {
			for i, o := range outs {
				if i+1 < len(outs) && outs[i+1].name == o.name {
					continue // a later duplicate wins
				}
				c.pred = append(c.pred, o)
			}
			c.predAt = append(c.predAt, int32(len(c.pred)))
			continue
		}
		c.truth = append(c.truth, outs...)
		c.truthAt = append(c.truthAt, int32(len(c.truth)))
		var temp int32
		for _, o := range outs {
			if o.temp {
				temp++
			}
		}
		c.nTemp = append(c.nTemp, temp)
		c.nNonTemp = append(c.nNonTemp, int32(len(outs))-temp)
	}

	// Sort the universe by name, carrying each field's column along.
	perm := make([]int, len(c.fields))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return c.fields[perm[a]].name < c.fields[perm[b]].name })
	fields, vals := c.fields, c.vals
	c.fields, c.vals = make([]fieldMeta, len(perm)), make([][]uint64, len(perm))
	c.steps = make([]trace.Step, len(perm))
	for i, p := range perm {
		c.fields[i], c.vals[i] = fields[p], vals[p]
		c.steps[i] = trace.StepOf(trace.HashString(fields[p].name))
	}
	return c
}

// extend sets dst[r] to src[r] with field f chained on, for every
// record: one step of every record's model key at once.
func (c *columns) extend(dst, src []uint64, f int) {
	s, col := c.steps[f], c.vals[f][:len(src)]
	for r, k := range src {
		dst[r] = s.Fold(k, col[r])
	}
}

// keysOf returns every record's key under a model over the given field
// names, in the order given; a name outside the universe hashes as
// trace.Absent in every record.
func (c *columns) keysOf(names []string) []uint64 {
	keys := make([]uint64, len(c.instr))
	for r := range keys {
		keys[r] = trace.KeySeed
	}
	for _, name := range names {
		f := sort.Search(len(c.fields), func(i int) bool { return c.fields[i].name >= name })
		if f < len(c.fields) && c.fields[f].name == name {
			c.extend(keys, keys, f)
			continue
		}
		s := trace.StepOf(trace.HashString(name))
		for r, k := range keys {
			keys[r] = s.Fold(k, trace.Absent)
		}
	}
	return keys
}

// rowTable maps a model key to the first training record that has it —
// the row the model predicts from. It is an open-addressing table over
// power-of-two slot arrays that are cleared and refilled per model, so
// the search trains its models without allocating.
type rowTable struct {
	keys  []uint64
	rows  []int32 // -1 marks an empty slot
	shift uint
}

// train refills t with the training records' keys.
func (t *rowTable) train(keys []uint64, nTrain int) {
	size, bits := 1, uint(0)
	for size < 2*nTrain {
		size <<= 1
		bits++
	}
	if cap(t.rows) < size {
		t.keys, t.rows = make([]uint64, size), make([]int32, size)
	}
	t.keys, t.rows = t.keys[:size], t.rows[:size]
	for i := range t.rows {
		t.rows[i] = -1
	}
	t.shift = 64 - bits
	mask := uint64(size - 1)
	for r, k := range keys[:nTrain] {
		for i := t.slot(k); ; i = (i + 1) & mask {
			if t.rows[i] < 0 {
				t.keys[i], t.rows[i] = k, int32(r)
				break
			}
			if t.keys[i] == k {
				break // the first training record keeps the row
			}
		}
	}
}

func (t *rowTable) slot(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> t.shift }

// row returns the training record keyed k, or -1.
func (t *rowTable) row(k uint64) int32 {
	mask := uint64(len(t.rows) - 1)
	for i := t.slot(k); ; i = (i + 1) & mask {
		if t.rows[i] < 0 || t.keys[i] == k {
			return t.rows[i]
		}
	}
}

// outcome is how one validation record fares under a model: whether its
// key hit a row, and how many of its Temp and non-Temp outputs the row
// mispredicts.
type outcome struct {
	hit                 bool
	errTemp, errNonTemp int32
}

// predict scores validation record j, keyed k, against the model in t.
func (c *columns) predict(t *rowTable, j int, k uint64) outcome {
	row := t.row(k)
	if row < 0 {
		return outcome{}
	}
	pred := c.pred[c.predAt[row]:c.predAt[row+1]]
	o := outcome{hit: true}
	p := 0
	for _, f := range c.truth[c.truthAt[j]:c.truthAt[j+1]] {
		for p < len(pred) && pred[p].name < f.name {
			p++
		}
		if p < len(pred) && pred[p].name == f.name && pred[p].value == f.value {
			continue
		}
		if f.temp {
			o.errTemp++
		} else {
			o.errNonTemp++
		}
	}
	return o
}

// evalCounts accumulates the error metrics of one evaluation pass.
type evalCounts struct {
	totalInstr, hitInstr    int64
	predNonTemp, errNonTemp int64
	predTemp, errTemp       int64
}

// add counts validation record j's outcome; sign -1 takes it back out.
func (e *evalCounts) add(c *columns, j int, o outcome, sign int64) {
	instr := c.instr[c.nTrain+j]
	e.totalInstr += sign * instr
	if !o.hit {
		return
	}
	e.hitInstr += sign * instr
	e.predTemp += sign * int64(c.nTemp[j])
	e.errTemp += sign * int64(o.errTemp)
	e.predNonTemp += sign * int64(c.nNonTemp[j])
	e.errNonTemp += sign * int64(o.errNonTemp)
}

func (e *evalCounts) merge(o evalCounts) {
	e.totalInstr += o.totalInstr
	e.hitInstr += o.hitInstr
	e.predNonTemp += o.predNonTemp
	e.errNonTemp += o.errNonTemp
	e.predTemp += o.predTemp
	e.errTemp += o.errTemp
}

func (e evalCounts) metrics() Metrics {
	var m Metrics
	if e.totalInstr > 0 {
		m.Coverage = float64(e.hitInstr) / float64(e.totalInstr)
	}
	if e.predNonTemp > 0 {
		m.NonTempError = float64(e.errNonTemp) / float64(e.predNonTemp)
	}
	if e.predTemp > 0 {
		m.TempError = float64(e.errTemp) / float64(e.predTemp)
	}
	if t := e.predNonTemp + e.predTemp; t > 0 {
		m.FieldError = float64(e.errNonTemp+e.errTemp) / float64(t)
	}
	return m
}

// evaluate trains the model keyed by keys (one per record) into t and
// replays the validation records against it. When outs is non-nil it
// receives every validation record's outcome.
func (c *columns) evaluate(t *rowTable, keys []uint64, outs []outcome) evalCounts {
	t.train(keys, c.nTrain)
	var e evalCounts
	for j, k := range keys[c.nTrain:] {
		o := c.predict(t, j, k)
		if outs != nil {
			outs[j] = o
		}
		e.add(c, j, o, 1)
	}
	return e
}

// typeResult is one event type's share of a Result; final counts the
// selection's validation quality.
type typeResult struct {
	sel   []memo.SelectedField
	imps  []FieldImportance
	curve []TrimPoint
	final evalCounts
}

// selectForType runs importance ranking and backward elimination for one
// event type.
func selectForType(td *typeData, cfg Config, r *rng.Source) typeResult {
	if m := cfg.metrics; m != nil {
		m.types.Inc()
	}
	c := newColumns(td)
	nf, nRec := len(c.fields), len(c.instr)

	// prefix[k] holds every record's key under the model over the first
	// k selected fields; prefix[len(selected)] keys the current model.
	// Both the permuted full model and a candidate drop rehash only from
	// the field they change on.
	selected := make([]int, nf)
	prefix := make([][]uint64, nf+1)
	prefix[0] = make([]uint64, nRec)
	for i := range prefix[0] {
		prefix[0][i] = trace.KeySeed
	}
	for f := range selected {
		selected[f] = f
		prefix[f+1] = make([]uint64, nRec)
		c.extend(prefix[f+1], prefix[f], f)
	}
	var full rowTable
	baseOuts := make([]outcome, nRec-c.nTrain)
	baseCounts := c.evaluate(&full, prefix[nf], baseOuts)
	base := baseCounts.metrics()

	// Permutation importance: shuffle one column's values across the
	// validation records and measure the error increase. Errors in
	// History/Extern outputs are weighted 10× over Temp — the categories
	// whose corruption poisons future execution. Each field is scored on
	// its own pre-Split source (split in sorted-name order), so the
	// scores are independent of how the fields are scheduled across
	// workers — one worker and N workers shuffle identically.
	score := func(m Metrics) float64 { return 10*m.NonTempError + m.TempError }
	fieldSrcs := make([]*rng.Source, nf)
	for i := range fieldSrcs {
		fieldSrcs[i] = r.Split()
	}
	imps, _ := parallel.Map(0, nf, func(f int) (FieldImportance, error) {
		orig := c.vals[f][c.nTrain:]
		vals := make([]uint64, len(orig))
		var moved []int       // validation records whose value the shuffle changed
		var movedKey []uint64 // and their permuted keys
		var total float64
		for p := 0; p < permutations; p++ {
			copy(vals, orig)
			fieldSrcs[f].Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			// A record whose value the shuffle left in place keeps its
			// key and so its base outcome; the rest resume their key
			// from the prefix before f.
			moved, movedKey = moved[:0], movedKey[:0]
			pre := prefix[f][c.nTrain:]
			for j, v := range vals {
				if v != orig[j] {
					moved = append(moved, j)
					movedKey = append(movedKey, c.steps[f].Fold(pre[j], v))
				}
			}
			for g := f + 1; g < nf; g++ {
				col, s := c.vals[g][c.nTrain:], c.steps[g]
				for i, j := range moved {
					movedKey[i] = s.Fold(movedKey[i], col[j])
				}
			}
			perm := baseCounts
			for i, j := range moved {
				perm.add(c, j, baseOuts[j], -1)
				perm.add(c, j, c.predict(&full, j, movedKey[i]), 1)
			}
			total += score(perm.metrics()) - score(base)
			if m := cfg.metrics; m != nil {
				m.permutations.Inc()
			}
		}
		if m := cfg.metrics; m != nil {
			m.fields.Inc()
		}
		meta := c.fields[f]
		return FieldImportance{
			Name: meta.name, Category: meta.category, Size: meta.size,
			EventType: td.eventType, Importance: total / permutations,
		}, nil
	})

	// Backward elimination, least important first. Larger fields break
	// ties so the table shrinks fastest.
	order := make([]int, nf)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := imps[order[i]], imps[order[j]]
		if a.Importance != b.Importance {
			return a.Importance < b.Importance
		}
		return a.Size > b.Size
	})

	var curve []TrimPoint
	var width units.Size
	for _, f := range selected {
		width += c.fields[f].size
	}
	final := baseCounts
	var spare [][]uint64 // key rows a drop builds past the dropped field
	var tab rowTable
	for _, f := range order {
		cand := imps[f]
		if cfg.ForceInclude[cand.Name] {
			continue
		}
		if !cfg.ForceExclude[cand.Name] && len(selected) == 1 {
			break // keep at least one field unless explicitly excluded
		}
		// Key every record under the selection without f: resume from
		// the prefix before f and chain the fields after it.
		at := sort.SearchInts(selected, f)
		rest := selected[at+1:]
		for len(spare) < len(rest) {
			spare = append(spare, make([]uint64, nRec))
		}
		keys := prefix[at]
		for i, g := range rest {
			c.extend(spare[i], keys, g)
			keys = spare[i]
		}
		counts := c.evaluate(&tab, keys, nil)
		m := counts.metrics()
		ok := m.NonTempError <= cfg.MaxNonTempError && m.TempError <= cfg.MaxTempError
		if cfg.ForceExclude[cand.Name] {
			ok = true
		}
		if sm := cfg.metrics; sm != nil {
			sm.dropsTried.Inc()
			if ok {
				sm.dropsAccepted.Inc()
			}
		}
		curve = append(curve, TrimPoint{
			SelectedBytes: width - cand.Size, NonTempError: m.NonTempError, TempError: m.TempError,
			Coverage: m.Coverage, DroppedField: cand.Name, DroppedCategory: cand.Category,
			Accepted: ok,
		})
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "pfi[%s]: drop %-28s imp=%.4f -> cov=%5.1f%% errNT=%.3f%% errT=%5.1f%% accepted=%v\n",
				td.eventType, cand.Name, cand.Importance, 100*m.Coverage, 100*m.NonTempError, 100*m.TempError, ok)
		}
		if !ok {
			continue // keep f
		}
		// Commit the drop: the rows just built become the prefixes past
		// f, and the rows they replace become spare.
		for i := range rest {
			prefix[at+1+i], spare[i] = spare[i], prefix[at+1+i]
		}
		spare = append(spare, prefix[len(selected)])
		prefix = prefix[:len(selected)]
		selected = append(selected[:at], rest...)
		width -= cand.Size
		final = counts
	}

	out := make([]memo.SelectedField, len(selected))
	for i, f := range selected {
		meta := c.fields[f]
		out[i] = memo.SelectedField{Name: meta.name, Category: meta.category, Size: meta.size}
	}
	return typeResult{sel: out, imps: imps, curve: curve, final: final}
}

// Evaluate measures a selection's quality on a dataset with the given
// train/validation split — usable for selections from any source
// (PFI, developer overrides, ablations).
func Evaluate(d *trace.Dataset, sel memo.Selection, trainFrac float64) Metrics {
	var agg evalCounts
	var tab rowTable
	for _, td := range splitByType(d, trainFrac) {
		names := make([]string, 0, len(sel[td.eventType]))
		for _, f := range sel[td.eventType] {
			names = append(names, f.Name)
		}
		sort.Strings(names)
		c := newColumns(td)
		agg.merge(c.evaluate(&tab, c.keysOf(names), nil))
	}
	return agg.metrics()
}
