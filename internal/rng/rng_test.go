package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("zero-seeded source looks degenerate: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must not replay the parent's stream.
	p := New(7)
	p.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			// An occasional collision is fine; systematic equality is not.
			continue
		}
		return
	}
	t.Fatal("child stream mirrors parent")
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ≈0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	var sum, sq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	after := 0
	for _, x := range xs {
		after += x
	}
	if sum != after {
		t.Fatal("shuffle changed elements")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) fired %v of the time", frac)
	}
}
