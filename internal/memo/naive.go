// Package memo implements the three lookup-table designs the paper walks
// through:
//
//   - NaiveTable (§III): records keyed on the union of ALL input
//     locations. Correct by construction, but the table runs into
//     gigabytes (Fig. 6) — the paper's argument for why conventional
//     memoization cannot work here.
//   - EventOnlyTable (§IV-B): records keyed on In.Event fields only.
//     Small (≈1.5% of naive) but ambiguous for 22% of execution and
//     erroneous without History/Extern context (Fig. 8).
//   - SnipTable (§V): keyed on the PFI-selected necessary inputs; the
//     deployable table SNIP ships to phones, with explicit lookup-cost
//     accounting (Fig. 11c).
//
// Tables account sizes analytically (rows × record width) rather than
// materializing multi-gigabyte value blobs; the row keys and outputs are
// real and the hit/miss behaviour is exact.
package memo

import (
	"sort"
	"time"

	"snip/internal/trace"
	"snip/internal/units"
)

// NaiveTable models the §III design: every record carries the values of
// every input location ever observed (union layout), mapping to the full
// output record.
type NaiveTable struct {
	inWidth  units.Size
	outWidth units.Size
	rows     map[uint64]*naiveRow
	// insertion order preserved for the coverage curve
	order []*naiveRow
}

// The naive table has no runtime deployment — its "lookups" are the
// build-time probes that decide whether a profiled record recurs, which
// is exactly the hit/miss question a deployed naive table would answer.

type naiveRow struct {
	key         uint64
	repeats     int   // times the key recurred after first insertion
	repeatInstr int64 // dynamic-instruction weight of those recurrences
}

// BuildNaive constructs the naive table from a profile and reports its
// hit statistics. The key of a record is the hash of ALL its input field
// values plus the event type (the union record).
func BuildNaive(d *trace.Dataset) *NaiveTable { return BuildNaiveObserved(d, nil) }

// BuildNaiveObserved is BuildNaive with observability: each record's
// probe counts as a lookup (hit when the union key recurred), and probe
// latency feeds the lookup histogram. m may be nil.
func BuildNaiveObserved(d *trace.Dataset, m *TableMetrics) *NaiveTable {
	t := &NaiveTable{
		inWidth:  d.UnionInputWidth(),
		outWidth: d.UnionOutputWidth(),
		rows:     make(map[uint64]*naiveRow),
	}
	th := d.TypeHashes()
	for i := 0; i < d.Len(); i++ {
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		// The union record spans every input location the app has — two
		// executions share a row only when the whole state AND the event
		// object match byte for byte.
		r := d.Row(i)
		key := trace.Combine(d.InputHash(i), th[r.Type])
		key = trace.Combine(key, r.PreStateHash)
		if row, ok := t.rows[key]; ok {
			row.repeats++
			row.repeatInstr += r.Instr
			if m != nil {
				m.observe(true, time.Since(start).Nanoseconds())
			}
			continue
		}
		row := &naiveRow{key: key}
		t.rows[key] = row
		t.order = append(t.order, row)
		if m != nil {
			m.observe(false, time.Since(start).Nanoseconds())
			m.Inserts.Inc()
		}
	}
	return t
}

// Rows returns the number of distinct records.
func (t *NaiveTable) Rows() int { return len(t.rows) }

// RecordWidth returns the union input record width, and with outputs.
func (t *NaiveTable) RecordWidth() (in, inOut units.Size) {
	return t.inWidth, t.inWidth + t.outWidth
}

// Size returns the full table size: rows × (input record + output record).
func (t *NaiveTable) Size() units.Size {
	return units.Size(int64(t.Rows())) * (t.inWidth + t.outWidth)
}

// InputOnlySize returns the table size counting only input records.
func (t *NaiveTable) InputOnlySize() units.Size {
	return units.Size(int64(t.Rows())) * t.inWidth
}

// CoveragePoint is one point of the Fig. 6 curve: to short-circuit
// Coverage (fraction of dynamic instructions), the table needs Size bytes
// (InputOnlySize without outputs).
type CoveragePoint struct {
	Coverage      float64
	Size          units.Size
	InputOnlySize units.Size
}

// CoverageCurve returns the minimal table size needed for increasing
// execution coverage: rows are ranked by the execution weight they can
// short-circuit (their recurrences), best first, and sizes accumulate.
// totalInstr is the profile's full dynamic-instruction weight.
func (t *NaiveTable) CoverageCurve(totalInstr int64) []CoveragePoint {
	rows := append([]*naiveRow(nil), t.order...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].repeatInstr > rows[j].repeatInstr })
	var pts []CoveragePoint
	var covered int64
	for i, row := range rows {
		if row.repeatInstr == 0 {
			break // remaining rows buy no coverage
		}
		covered += row.repeatInstr
		n := int64(i + 1)
		pts = append(pts, CoveragePoint{
			Coverage:      float64(covered) / float64(totalInstr),
			Size:          units.Size(n) * (t.inWidth + t.outWidth),
			InputOnlySize: units.Size(n) * t.inWidth,
		})
	}
	return pts
}
