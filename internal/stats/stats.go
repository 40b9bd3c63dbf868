// Package stats provides the small statistical toolkit the report layer
// needs: running means, empirical CDFs and labelled series.
// Everything is plain-Go and allocation-conscious; there are no external
// dependencies.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the q-quantile (q in [0,1]) of the samples.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return Percentile(c.samples, q*100)
}

// Range returns the min and max sample.
func (c *CDF) Range() (lo, hi float64) {
	if len(c.samples) == 0 {
		return 0, 0
	}
	c.ensureSorted()
	return c.samples[0], c.samples[len(c.samples)-1]
}

// Series is a labelled sequence of (x-label, value) points, the common
// currency between experiments and the report renderers.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Append adds one point.
func (s *Series) Append(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the mean of the series values.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// String renders the series as "name: label=value ...".
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", s.Name)
	for i, l := range s.Labels {
		fmt.Fprintf(&b, " %s=%.3g", l, s.Values[i])
	}
	return b.String()
}

// Table is a set of series sharing x-labels, e.g. one series per scheme
// across the seven games.
type Table struct {
	Title  string
	XName  string
	Series []*Series
}

// AddSeries appends a series to the table.
func (t *Table) AddSeries(s *Series) { t.Series = append(t.Series, s) }

// Find returns the series with the given name, or nil.
func (t *Table) Find(name string) *Series {
	for _, s := range t.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}
