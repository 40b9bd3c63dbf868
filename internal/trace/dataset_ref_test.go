package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"snip/internal/stats"
	"snip/internal/units"
)

// refDataset is the record-list Dataset this package had before datasets
// became columnar, kept as it was (its Split and Truncate still alias
// their source) as the oracle the columnar Dataset is checked against.
type refDataset struct {
	Game    string
	Records []*Record
}

// Append adds records to the dataset.
func (d *refDataset) Append(rs ...*Record) { d.Records = append(d.Records, rs...) }

// Merge appends all of other's records.
func (d *refDataset) Merge(other *refDataset) { d.Records = append(d.Records, other.Records...) }

// Len returns the number of records.
func (d *refDataset) Len() int { return len(d.Records) }

// TotalInstr returns the summed dynamic-instruction weight, the
// denominator of the paper's execution-coverage metric (Fig. 6).
func (d *refDataset) TotalInstr() int64 {
	var t int64
	for _, r := range d.Records {
		t += r.Instr
	}
	return t
}

// InputFieldUniverse returns the union of all input-field locations seen
// across the dataset — the paper's "union of all the input locations"
// that makes naive records huge (§III). Results are sorted by name.
func (d *refDataset) InputFieldUniverse() []FieldInfo {
	type acc struct {
		info   FieldInfo
		values map[uint64]struct{}
	}
	byName := make(map[string]*acc)
	for _, r := range d.Records {
		for _, f := range r.Inputs {
			a, ok := byName[f.Name]
			if !ok {
				a = &acc{info: FieldInfo{Name: f.Name, Category: f.Category}, values: make(map[uint64]struct{})}
				byName[f.Name] = a
			}
			if f.Size > a.info.Size {
				a.info.Size = f.Size
			}
			a.info.Occurrence++
			a.values[f.Value] = struct{}{}
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
func (d *refDataset) UnionInputWidth() units.Size {
	var w units.Size
	for _, f := range d.InputFieldUniverse() {
		w += f.Size
	}
	return w
}

// UnionOutputWidth returns the summed max size over all output locations.
func (d *refDataset) UnionOutputWidth() units.Size {
	byName := make(map[string]units.Size)
	for _, r := range d.Records {
		for _, f := range r.Outputs {
			if f.Size > byName[f.Name] {
				byName[f.Name] = f.Size
			}
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
func (d *refDataset) UselessFraction() (events, instr float64) {
	if len(d.Records) == 0 {
		return 0, 0
	}
	var useless, uselessInstr, totalInstr int64
	for _, r := range d.Records {
		totalInstr += r.Instr
		if !r.StateChanged {
			useless++
			uselessInstr += r.Instr
		}
	}
	events = float64(useless) / float64(len(d.Records))
	if totalInstr > 0 {
		instr = float64(uselessInstr) / float64(totalInstr)
	}
	return events, instr
}

// RepeatedFraction returns the fraction of events whose full input record
// exactly matched an earlier record (the paper's 2–5% "repeated events").
func (d *refDataset) RepeatedFraction() float64 {
	if len(d.Records) == 0 {
		return 0
	}
	seen := make(map[uint64]struct{}, len(d.Records))
	var repeats int
	for _, r := range d.Records {
		// "Exactly repetitive in their inputs" is judged on the union
		// record: the event object AND every byte of application state.
		h := Combine(refInputHash(r), hashString(r.EventType))
		h = Combine(h, r.PreStateHash)
		if _, ok := seen[h]; ok {
			repeats++
		} else {
			seen[h] = struct{}{}
		}
	}
	return float64(repeats) / float64(len(d.Records))
}

// RedundantFraction returns the fraction of events whose outputs exactly
// matched some earlier execution of the same event type even though the
// inputs may differ (the paper's 17–43% "redundant events").
func (d *refDataset) RedundantFraction() float64 {
	if len(d.Records) == 0 {
		return 0
	}
	seen := make(map[uint64]struct{}, len(d.Records))
	var redundant int
	for _, r := range d.Records {
		h := Combine(refOutputHash(r), hashString(r.EventType))
		if _, ok := seen[h]; ok {
			redundant++
		} else {
			seen[h] = struct{}{}
		}
	}
	return float64(redundant) / float64(len(d.Records))
}

// SizeCDFs returns per-category CDFs of the input and output sizes per
// record, and per-category occurrence fractions — Fig. 7a/7b.
func (d *refDataset) SizeCDFs() (cdfs [NumCategories]*stats.CDF, occurrence [NumCategories]float64) {
	for i := range cdfs {
		cdfs[i] = &stats.CDF{}
	}
	if len(d.Records) == 0 {
		return
	}
	var present [NumCategories]int
	for _, r := range d.Records {
		var sizes [NumCategories]units.Size
		var has [NumCategories]bool
		for _, f := range r.Inputs {
			sizes[f.Category] += f.Size
			has[f.Category] = true
		}
		for _, f := range r.Outputs {
			sizes[f.Category] += f.Size
			has[f.Category] = true
		}
		for c := 0; c < NumCategories; c++ {
			if has[c] {
				present[c]++
				cdfs[c].Add(float64(sizes[c]))
			}
		}
	}
	for c := 0; c < NumCategories; c++ {
		occurrence[c] = float64(present[c]) / float64(len(d.Records))
	}
	return
}

// FilterTypes returns the records whose event type is NOT in the given
// exclusion list — e.g. excluding "vsync" leaves the user-gesture events
// the paper's §I repetition statistics are computed over.
func (d *refDataset) FilterTypes(exclude ...string) *refDataset {
	skip := make(map[string]bool, len(exclude))
	for _, t := range exclude {
		skip[t] = true
	}
	out := &refDataset{Game: d.Game}
	for _, r := range d.Records {
		if !skip[r.EventType] {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Split partitions the dataset into a training prefix and evaluation
// suffix at the given fraction of records.
func (d *refDataset) Split(trainFrac float64) (train, eval *refDataset) {
	n := int(float64(len(d.Records)) * trainFrac)
	if n < 0 {
		n = 0
	}
	if n > len(d.Records) {
		n = len(d.Records)
	}
	return &refDataset{Game: d.Game, Records: d.Records[:n]},
		&refDataset{Game: d.Game, Records: d.Records[n:]}
}

// Truncate returns a dataset containing only the first n records — used
// to model an insufficient profile for the continuous-learning experiment
// (Fig. 12).
func (d *refDataset) Truncate(n int) *refDataset {
	if n > len(d.Records) {
		n = len(d.Records)
	}
	return &refDataset{Game: d.Game, Records: d.Records[:n]}
}

// refInputHash is Record.InputHash(nil) as it was: the digest of every
// input's name and value, which Dataset.InputHash computes per row.
func refInputHash(r *Record) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, f := range r.Inputs {
		mix(hashString(f.Name))
		mix(f.Value)
	}
	return h
}

// refOutputHash is Record.OutputHash as it was.
func refOutputHash(r *Record) uint64 {
	return refInputHash(&Record{Inputs: r.Outputs})
}

// writeJSON is WriteJSON as it was, over the record list.
func (d *refDataset) writeJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range d.Records {
		jr := jsonRecord{
			EventSeq: r.EventSeq, EventType: r.EventType, EventHash: r.EventHash,
			Time: int64(r.Time), Instr: r.Instr, StateChanged: r.StateChanged,
		}
		for _, f := range r.Inputs {
			jr.Inputs = append(jr.Inputs, jsonField{f.Name, f.Category.String(), int64(f.Size), f.Value})
		}
		for _, f := range r.Outputs {
			jr.Outputs = append(jr.Outputs, jsonField{f.Name, f.Category.String(), int64(f.Size), f.Value})
		}
		if err := enc.Encode(jr); err != nil {
			return fmt.Errorf("trace: write json: %w", err)
		}
	}
	return bw.Flush()
}
