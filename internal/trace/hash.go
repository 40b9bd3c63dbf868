package trace

import "sync"

// KeySeed is the state every digest and key chain in the repository
// starts from: HashString, HashValues, the dataset's input and output
// hashes, the game store's state digests, the event hash-code, and the
// memo and PFI model keys.
//
// It is NOT the standard 64-bit FNV offset basis, 14695981039346656037:
// it is that number with its last digit dropped (obs.HashName uses the
// real one). Golden digests, flat-image CRCs and the figures all pin
// this value, so it must never be "corrected".
const KeySeed uint64 = 1469598103934665603

// Absent is the value a key chain folds for a selected field that a
// record, or the runtime context, does not carry. PFI keys its models
// and the memo tables key their rows with this one constant, so a model
// PFI scores keys every record exactly as the deployed table will.
const Absent uint64 = 0xdeadbeefcafef00d

// The 64-bit FNV prime and the powers of it the kernel's shortcuts
// multiply by, mod 2^64. Each power squares or multiplies at most two
// smaller ones and masks, so no intermediate exceeds 128 bits.
const (
	mask64   = 1<<64 - 1
	fnvPrime = 1099511628211
	fnvPow2  = fnvPrime * fnvPrime & mask64
	fnvPow4  = fnvPow2 * fnvPow2 & mask64
	fnvPow6  = fnvPow4 * fnvPow2 & mask64
	fnvPow7  = fnvPow6 * fnvPrime & mask64
	fnvPow8  = fnvPow4 * fnvPow4 & mask64
)

// The digests below all fold a value's eight bytes, low first, into a
// running state with one multiply by the FNV prime per byte. XORing in
// a zero byte changes nothing, so once a value's remaining bytes are all
// zero the chain is a plain multiply by a power of the prime: a value
// below 2^(8n) costs n byte steps and one multiply by fnvPrime^(8-n).
// Most values the games log are below 2^16, so Mix and Combine take
// that shortcut for one- and two-byte values and run the eight steps
// unrolled above it (a variable-length loop is slower for full-width
// values than the unrolled chain).

// Mix folds v's eight bytes, low first, into FNV-1a state h: each byte
// is XORed in, then the state multiplied by the prime.
func Mix(h, v uint64) uint64 {
	switch {
	case v < 1<<8:
		return (h ^ v) * fnvPow8
	case v < 1<<16:
		return ((h^v&0xff)*fnvPrime ^ v>>8) * fnvPow7
	}
	h = (h ^ v&0xff) * fnvPrime
	h = (h ^ v>>8&0xff) * fnvPrime
	h = (h ^ v>>16&0xff) * fnvPrime
	h = (h ^ v>>24&0xff) * fnvPrime
	h = (h ^ v>>32&0xff) * fnvPrime
	h = (h ^ v>>40&0xff) * fnvPrime
	h = (h ^ v>>48&0xff) * fnvPrime
	return (h ^ v>>56) * fnvPrime
}

// Combine folds two hashes into one. The multiply happens BEFORE the
// byte XOR (FNV-1 order) so that Combine is not commutative even for
// small operands — Combine(1,2) must differ from Combine(2,1).
func Combine(a, b uint64) uint64 {
	switch {
	case b < 1<<8:
		return (a*fnvPrime ^ b) * fnvPow7
	case b < 1<<16:
		return ((a*fnvPrime^b&0xff)*fnvPrime ^ b>>8) * fnvPow6
	}
	h := a*fnvPrime ^ b&0xff
	h = h*fnvPrime ^ b>>8&0xff
	h = h*fnvPrime ^ b>>16&0xff
	h = h*fnvPrime ^ b>>24&0xff
	h = h*fnvPrime ^ b>>32&0xff
	h = h*fnvPrime ^ b>>40&0xff
	h = h*fnvPrime ^ b>>48&0xff
	return h*fnvPrime ^ b>>56
}

// HashString is the FNV-1a digest of a string's bytes, from KeySeed:
// how the tracer names fields and games hash state content.
func HashString(s string) uint64 {
	h := KeySeed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// HashValues digests a sequence of integers (state content).
func HashValues(vs ...int64) uint64 {
	h := KeySeed
	for _, v := range vs {
		h = Mix(h, uint64(v))
	}
	return h
}

// Step is one field name's link in a key chain: Fold(k, v) is
// Combine(Combine(k, name), v) for the name hash the step was made for,
// which is the (name, value) step every model and table key takes.
//
// The name half costs one multiply, one load and one add. XORing a byte
// into a state touches only its low 8 bits, and the low byte of a state
// times the prime depends only on the low byte before it, so each XOR
// adds to k·p^8 a term that depends on k's low byte alone:
// Combine(k, name) = k·p^8 + t[k & 0xff], where t[x] =
// Combine(x, name) − x·p^8 for the 256 values x of a byte.
type Step struct {
	t *[256]uint64
}

// Fold returns Combine(Combine(k, name), v).
func (s Step) Fold(k, v uint64) uint64 {
	return Combine(k*fnvPow8+s.t[k&0xff], v)
}

// steps interns the step tables by name hash. A table is a pure
// function of its hash, so the cache never goes stale, and it holds one
// 2 KiB table per distinct field name the games declare, however many
// stores, tables and models use the name.
var steps sync.Map // uint64 → *[256]uint64

// StepOf returns the step for a name hash.
func StepOf(nameHash uint64) Step {
	if t, ok := steps.Load(nameHash); ok {
		return Step{t.(*[256]uint64)}
	}
	t := new([256]uint64)
	for x := range t {
		t[x] = Combine(uint64(x), nameHash) - uint64(x)*fnvPow8
	}
	got, _ := steps.LoadOrStore(nameHash, t)
	return Step{got.(*[256]uint64)}
}
