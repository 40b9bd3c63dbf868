package trace

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// The oracle is the byte-at-a-time hash the kernel in hash.go replaced,
// kept verbatim: eight dependent multiplies per value, whatever its
// width. The kernel must agree with it bit for bit on every input.

// oracleMix folds v's eight bytes, low first, into FNV-1a state h.
func oracleMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// oracleCombine is Combine's FNV-1 order byte loop.
func oracleCombine(a, b uint64) uint64 {
	h := a
	u := b
	for i := 0; i < 8; i++ {
		h *= fnvPrime
		h ^= (u >> (8 * i)) & 0xff
	}
	return h
}

// checkKernel compares Mix, Combine and Step.Fold with the oracle on
// one input.
func checkKernel(t *testing.T, a, b, name uint64) {
	t.Helper()
	if got, want := Mix(a, b), oracleMix(a, b); got != want {
		t.Fatalf("Mix(%#x, %#x) = %#x, oracle %#x", a, b, got, want)
	}
	if got, want := Combine(a, b), oracleCombine(a, b); got != want {
		t.Fatalf("Combine(%#x, %#x) = %#x, oracle %#x", a, b, got, want)
	}
	if got, want := StepOf(name).Fold(a, b), oracleCombine(oracleCombine(a, name), b); got != want {
		t.Fatalf("StepOf(%#x).Fold(%#x, %#x) = %#x, oracle %#x", name, a, b, got, want)
	}
}

// TestKernelMatchesOracle runs the kernel against the oracle on random
// states and names, with values of every byte width and at every edge
// of the width shortcuts.
func TestKernelMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	edges := []uint64{0, 1, 0xff, 0x100, 0xffff, 0x10000, 1<<32 - 1, 1 << 32, 1 << 63, ^uint64(0), Absent}
	names := []uint64{0, 1, KeySeed, Absent, HashString("state.score"), r.Uint64()}
	for range 20000 {
		a, name := r.Uint64(), r.Uint64()
		for w := 0; w <= 64; w += 8 {
			b := r.Uint64()
			if w < 64 {
				b &= 1<<w - 1
			}
			checkKernel(t, a, b, name)
		}
	}
	for _, a := range append(edges, KeySeed) {
		for _, b := range edges {
			for _, name := range names {
				checkKernel(t, a, b, name)
			}
		}
	}
}

// TestKernelProperty is the quick-check form of the oracle comparison.
func TestKernelProperty(t *testing.T) {
	prop := func(a, b, name uint64, width uint8) bool {
		if w := width % 9; w < 8 {
			b &= 1<<(8*w) - 1
		}
		return Mix(a, b) == oracleMix(a, b) && Combine(a, b) == oracleCombine(a, b) &&
			StepOf(name).Fold(a, b) == oracleCombine(oracleCombine(a, name), b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestStepOfInterns checks that a name hash's table is built once and
// shared by every later StepOf.
func TestStepOfInterns(t *testing.T) {
	h := HashString("trace.TestStepOfInterns")
	if a, b := StepOf(h), StepOf(h); a.t != b.t {
		t.Fatal("StepOf rebuilt an interned table")
	}
}

func FuzzHashKernel(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(KeySeed, uint64(0xff), HashString("event.tap.x"))
	f.Add(KeySeed, uint64(0x10000), HashString("state.score"))
	f.Add(^uint64(0), Absent, KeySeed)
	f.Fuzz(func(t *testing.T, a, b, name uint64) {
		checkKernel(t, a, b, name)
	})
}

var sinkKey uint64

// BenchmarkKeyFold times one (name, value) link of a key chain, each
// key depending on the one before, through the kernel (Step.Fold) and
// through the oracle (two byte-loop Combines), for values of 1, 2 and 8
// bytes. ci.sh gates the kernel/oracle ratio at 1-byte values.
func BenchmarkKeyFold(b *testing.B) {
	name := HashString("state.score")
	for _, shape := range []struct {
		bytes int
		val   uint64
	}{{1, 0x5a}, {2, 0x1234}, {8, 0x0123456789abcdef}} {
		b.Run(fmt.Sprintf("kernel/%dB", shape.bytes), func(b *testing.B) {
			s, k := StepOf(name), KeySeed
			for range b.N {
				k = s.Fold(k, shape.val)
			}
			sinkKey = k
		})
		b.Run(fmt.Sprintf("oracle/%dB", shape.bytes), func(b *testing.B) {
			k := KeySeed
			for range b.N {
				k = oracleCombine(oracleCombine(k, name), shape.val)
			}
			sinkKey = k
		})
	}
}
