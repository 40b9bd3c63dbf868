package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Sum(xs) != 10 {
		t.Fatalf("sum = %v", Sum(xs))
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 {
		t.Fatalf("max = %v", Max(xs))
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty max should be -Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Does not mutate input.
	in := []float64{5, 1, 3}
	Percentile(in, 50)
	if in[0] != 5 {
		t.Fatal("percentile sorted the caller's slice")
	}
}

func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(raw, a) <= Percentile(raw, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		c.Add(v)
	}
	if c.N() != 10 {
		t.Fatalf("N=%d", c.N())
	}
	if got := c.At(5); got != 0.5 {
		t.Fatalf("At(5)=%v", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0)=%v", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10)=%v", got)
	}
	if got := c.Quantile(0.5); math.Abs(got-5.5) > 1e-9 {
		t.Fatalf("median=%v", got)
	}
	lo, hi := c.Range()
	if lo != 1 || hi != 10 {
		t.Fatalf("range %v..%v", lo, hi)
	}
}

func TestCDFAddAfterQuery(t *testing.T) {
	var c CDF
	c.Add(5)
	_ = c.At(5)
	c.Add(1) // must re-sort lazily
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("min after late add = %v", got)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append("a", 1)
	s.Append("b", 3)
	if s.Len() != 2 || s.Mean() != 2 {
		t.Fatalf("len=%d mean=%v", s.Len(), s.Mean())
	}
	if s.String() == "" {
		t.Fatal("empty string render")
	}
}

func TestCDFQuantileWithinRange(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		var c CDF
		var clean []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c.Add(v)
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		q := float64(qRaw) / 255
		v := c.Quantile(q)
		return v >= clean[0] && v <= clean[len(clean)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
