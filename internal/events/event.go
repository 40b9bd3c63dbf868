// Package events implements the high-level input-event layer of the
// simulated Android stack: typed event objects with fixed field layouts
// (the paper's In.Event category — "fixed size and fixed location for the
// same event type"), a synthesizer that turns raw sensor readings into
// gestures the way SensorManager does, and the fixed OS-side cost of
// delivering an event to the game (DeliveryCost). The delivery loop
// itself is the device runtime in internal/schemes.
package events

import (
	"fmt"

	"snip/internal/trace"
	"snip/internal/units"
)

// Type identifies an event type. Each type has a fixed field schema, so
// an event object of that type always has the same size and layout — the
// property that makes In.Event fields usable as lookup-table indexes.
type Type int

// The high-level event types games register for.
const (
	Tap Type = iota
	Swipe
	Drag
	MultiTouch
	Tilt
	Shake
	GPSFix
	CameraFrame
	VSync // periodic frame tick; drives animations even without user input
	numTypes
)

// NumTypes is the number of event types.
const NumTypes = int(numTypes)

// String returns the event type name.
func (t Type) String() string {
	switch t {
	case Tap:
		return "tap"
	case Swipe:
		return "swipe"
	case Drag:
		return "drag"
	case MultiTouch:
		return "multitouch"
	case Tilt:
		return "tilt"
	case Shake:
		return "shake"
	case GPSFix:
		return "gpsfix"
	case CameraFrame:
		return "cameraframe"
	case VSync:
		return "vsync"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// FieldSpec describes one field of an event object: its name and its size
// in the packed event object. Sizes are chosen so In.Event objects span
// the paper's observed 2–640 byte range (Fig. 7a).
type FieldSpec struct {
	Name string
	Size units.Size
}

// schemas defines the fixed layout per event type.
var schemas = [numTypes][]FieldSpec{
	Tap: {
		{"x", 4}, {"y", 4}, {"pressure", 2}, {"pointer", 1}, {"taps", 1},
	},
	Swipe: {
		{"x0", 4}, {"y0", 4}, {"x1", 4}, {"y1", 4},
		{"vx", 4}, {"vy", 4}, {"duration", 4}, {"pointer", 1},
		{"history", 16}, // downsampled intermediate points
	},
	Drag: {
		{"x0", 4}, {"y0", 4}, {"x1", 4}, {"y1", 4},
		{"dx", 4}, {"dy", 4}, {"phase", 1}, {"pointer", 1},
		{"history", 32},
	},
	MultiTouch: {
		{"x0", 4}, {"y0", 4}, {"x1", 4}, {"y1", 4},
		{"spread", 4}, {"angle", 4}, {"phase", 1},
		{"history", 96},
	},
	Tilt: {
		{"alpha", 4}, {"beta", 4}, {"gamma", 4},
		{"dalpha", 4}, {"dbeta", 4}, {"dgamma", 4},
	},
	Shake: {
		{"magnitude", 4}, {"axis", 1},
	},
	GPSFix: {
		{"lat", 8}, {"lng", 8}, {"accuracy", 4}, {"speed", 4}, {"bearing", 4},
	},
	CameraFrame: {
		{"scene", 4}, {"surfaces", 4}, {"luma", 2},
		{"features", 624}, // downsampled feature vector; largest In.Event (≈640B total)
	},
	VSync: {
		{"frame", 4},
	},
}

// Schema returns the field layout of an event type.
func Schema(t Type) []FieldSpec { return schemas[t] }

// ObjectSize returns the packed size of an event object of type t.
func ObjectSize(t Type) units.Size {
	var s units.Size
	for _, f := range schemas[t] {
		s += f.Size
	}
	return s
}

// Event is one high-level input event. Values holds one quantized integer
// per schema field, in schema order. Quantization reflects real sensors:
// pixel coordinates, tenths of degrees, etc., which is why exact repeats
// occur at all (the paper's 2–5% repeated events).
type Event struct {
	Type   Type
	Seq    int64 // global sequence number
	Time   units.Time
	Values []int64
}

// FieldIndex returns the position of the named field in t's schema, or
// -1 if t has no such field.
func FieldIndex(t Type, name string) int {
	for i, f := range schemas[t] {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Field returns the value of the named field, and whether it exists.
func (e *Event) Field(name string) (int64, bool) {
	if i := FieldIndex(e.Type, name); i >= 0 {
		return e.Values[i], true
	}
	return 0, false
}

// MustField returns the named field's value and panics if missing — for
// game handlers whose schemas are fixed at compile time.
func (e *Event) MustField(name string) int64 {
	v, ok := e.Field(name)
	if !ok {
		panic(fmt.Sprintf("events: %v has no field %q", e.Type, name))
	}
	return v
}

// Size returns the packed object size.
func (e *Event) Size() units.Size { return ObjectSize(e.Type) }

// Hash returns a 64-bit hash of the event's type and field values — the
// "event hash-code" SNIP's runtime indexes its lookup table with (§V-B).
func (e *Event) Hash() uint64 {
	h := trace.Mix(trace.KeySeed, uint64(e.Type))
	for _, v := range e.Values {
		h = trace.Mix(h, uint64(v))
	}
	return h
}

// Clone returns a deep copy of the event.
func (e *Event) Clone() *Event {
	c := *e
	c.Values = append([]int64(nil), e.Values...)
	return &c
}

// String renders the event for debugging.
func (e *Event) String() string {
	return fmt.Sprintf("%v#%d@%v%v", e.Type, e.Seq, e.Time, e.Values)
}

// New builds an event, validating the value count against the schema.
func New(t Type, seq int64, at units.Time, values ...int64) *Event {
	if len(values) != len(schemas[t]) {
		panic(fmt.Sprintf("events: %v expects %d values, got %d", t, len(schemas[t]), len(values)))
	}
	return &Event{Type: t, Seq: seq, Time: at, Values: values}
}
