// Package trace implements the execution recorder of SNIP's profiling
// phase: for every processed event it captures a Record of input and
// output Fields with their provenance category, size and value. These
// records are the paper's "input-output data for each event" — the raw
// material the naive lookup table (§III), the In.Event-only table (§IV-B)
// and the PFI field selection (§V) are all built from.
package trace

import (
	"fmt"

	"snip/internal/units"
)

// Category classifies where an input field was loaded from or where an
// output field was stored — the paper's six categories (§IV-A, §IV-B).
type Category int

// Input and output field categories.
const (
	InEvent    Category = iota // sensor values packed in the event object
	InHistory                  // application state produced by earlier events
	InExtern                   // data from outside the app (network, assets)
	OutTemp                    // transient user-facing output (frame tile, haptic)
	OutHistory                 // state consumed by future events
	OutExtern                  // data sent outside the app
	numCategories
)

// NumCategories is the number of field categories.
const NumCategories = int(numCategories)

// String returns the paper's name for the category.
func (c Category) String() string {
	switch c {
	case InEvent:
		return "In.Event"
	case InHistory:
		return "In.History"
	case InExtern:
		return "In.Extern"
	case OutTemp:
		return "Out.Temp"
	case OutHistory:
		return "Out.History"
	case OutExtern:
		return "Out.Extern"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// IsInput reports whether the category is an input category.
func (c Category) IsInput() bool { return c <= InExtern }

// Field is one named input or output location touched during one event's
// processing. Value is a 64-bit digest of the bytes at that location:
// two fields are "equal" for memoization purposes iff their Values match.
// Size is how many bytes the location holds — the quantity that blows up
// naive lookup-table records.
type Field struct {
	Name     string
	Category Category
	Size     units.Size
	Value    uint64
}

// Record captures one event execution end-to-end.
type Record struct {
	EventSeq  int64
	EventType string
	EventHash uint64 // hash of the full In.Event object
	Time      units.Time
	Instr     int64 // dynamic instructions this execution ran (coverage weight)
	// PreStateHash digests the ENTIRE application state before the event
	// ran. The §III naive table's "union of all input locations" record
	// is keyed on this: two executions only share a naive-table row if
	// every byte of state matched.
	PreStateHash uint64
	Inputs       []Field
	Outputs      []Field
	// StateChanged is ground truth: whether processing altered any
	// Out.History/Out.Extern state. Events with StateChanged=false are
	// the paper's "useless events" (Fig. 4).
	StateChanged bool
}

// InputSize returns the summed size of input fields in the given
// categories (all inputs if none given).
func (r *Record) InputSize(cats ...Category) units.Size {
	return fieldSize(r.Inputs, cats)
}

// OutputSize returns the summed size of output fields in the given
// categories (all outputs if none given).
func (r *Record) OutputSize(cats ...Category) units.Size {
	return fieldSize(r.Outputs, cats)
}

func fieldSize(fs []Field, cats []Category) units.Size {
	var s units.Size
	for _, f := range fs {
		if len(cats) == 0 || containsCat(cats, f.Category) {
			s += f.Size
		}
	}
	return s
}

func containsCat(cats []Category, c Category) bool {
	for _, x := range cats {
		if x == c {
			return true
		}
	}
	return false
}

// FNV-1a parameters of every digest in this package.
const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// fnvMix folds v's eight bytes, low first, into FNV-1a state h.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// Output returns the output field with the given name, if present.
func (r *Record) Output(name string) (Field, bool) {
	for _, f := range r.Outputs {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Input returns the input field with the given name, if present.
func (r *Record) Input(name string) (Field, bool) {
	for _, f := range r.Inputs {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// HashString exposes the FNV-1a digest used throughout the tracer so that
// games hash state content consistently.
func HashString(s string) uint64 { return hashString(s) }

// HashValues digests a sequence of integers (state content).
func HashValues(vs ...int64) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vs {
		h = fnvMix(h, uint64(v))
	}
	return h
}

// Combine folds two hashes into one. The multiply happens BEFORE the
// byte XOR (FNV-1 order) so that Combine is not commutative even for
// small operands — Combine(1,2) must differ from Combine(2,1).
func Combine(a, b uint64) uint64 {
	h := a
	u := b
	for i := 0; i < 8; i++ {
		h *= fnvPrime
		h ^= (u >> (8 * i)) & 0xff
	}
	return h
}
