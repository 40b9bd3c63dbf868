// Package sensors models the input sensors of the simulated phone: the
// touchscreen, gyroscope/rotation sensor, GPS, and camera. Sensors emit
// timestamped raw readings which the event layer (internal/events)
// synthesizes into the high-level events games register for — mirroring
// Android's sensor → sensor hub → SensorManager pipeline described in
// §II of the paper.
package sensors

import (
	"errors"
	"fmt"

	"snip/internal/units"
)

// Kind identifies a sensor.
type Kind int

// The modeled sensors.
const (
	Touch Kind = iota
	Gyro
	Accel
	GPS
	Camera
	numKinds
)

// NumKinds is the number of sensor kinds.
const NumKinds = int(numKinds)

// String returns the sensor name.
func (k Kind) String() string {
	switch k {
	case Touch:
		return "touch"
	case Gyro:
		return "gyro"
	case Accel:
		return "accel"
	case GPS:
		return "gps"
	case Camera:
		return "camera"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Reading is one raw sensor sample. Values are quantized integers: the
// touchscreen reports pixel coordinates, the gyro tenths of a degree, GPS
// fixed-point microdegrees, the camera a scene identifier plus a
// complexity measure (number of detected surfaces — the paper's Fig. 7c
// empty-room vs cluttered-room contrast).
//
// The constructors below append a reading's values to an arena, so the
// readings of a stream share one array instead of allocating a slice
// each; a nil arena gives the reading its own.
type Reading struct {
	Sensor Kind
	Time   units.Time
	Values []int64
}

// TouchPhase is the phase of a touch reading (Values[0]).
type TouchPhase int64

// Touch phases, matching Android MotionEvent actions.
const (
	TouchDown TouchPhase = iota
	TouchMove
	TouchUp
)

// TouchReading builds a touchscreen sample: phase, x, y, pressure,
// pointer id.
func TouchReading(arena *[]int64, t units.Time, phase TouchPhase, x, y, pressure, pointer int64) Reading {
	return reading(arena, Touch, t, int64(phase), x, y, pressure, pointer)
}

// GyroReading builds a rotation sample: alpha, beta, gamma in tenths of a
// degree (0–3600).
func GyroReading(arena *[]int64, t units.Time, alpha, beta, gamma int64) Reading {
	return reading(arena, Gyro, t, alpha, beta, gamma)
}

// AccelReading builds an accelerometer sample in milli-g per axis.
func AccelReading(arena *[]int64, t units.Time, ax, ay, az int64) Reading {
	return reading(arena, Accel, t, ax, ay, az)
}

// GPSReading builds a position fix in microdegrees.
func GPSReading(arena *[]int64, t units.Time, latMicro, lngMicro int64) Reading {
	return reading(arena, GPS, t, latMicro, lngMicro)
}

// CameraReading builds a camera frame sample: scene id, surface count
// (complexity), mean luma.
func CameraReading(arena *[]int64, t units.Time, sceneID, surfaces, luma int64) Reading {
	return reading(arena, Camera, t, sceneID, surfaces, luma)
}

// reading builds a reading whose values are appended to *arena, or, with
// a nil arena, held in a slice of its own.
func reading(arena *[]int64, k Kind, t units.Time, vals ...int64) Reading {
	if arena == nil {
		arena = new([]int64)
	}
	n := len(*arena)
	*arena = append(*arena, vals...)
	return Reading{Sensor: k, Time: t, Values: (*arena)[n:len(*arena):len(*arena)]}
}

// RawSize returns the raw payload size of a reading as transported from
// the sensor to the hub.
func (r Reading) RawSize() units.Size {
	switch r.Sensor {
	case Touch:
		return 12
	case Gyro, Accel:
		return 12
	case GPS:
		return 16
	case Camera:
		// The hub transports frame metadata; pixel data goes directly to
		// the ISP. 64 bytes of metadata per frame.
		return 64
	}
	return units.Size(8 * len(r.Values))
}

// Stream is a time-ordered sequence of readings from all sensors.
type Stream struct {
	readings []Reading
}

// ErrOutOfOrder is returned by Append when a reading arrives with a
// timestamp earlier than the stream's last reading. Real sensor hubs see
// this (clock slews, resets, flaky buses); it is a recoverable condition
// the caller counts and drops, not a crash.
var ErrOutOfOrder = errors.New("sensors: out-of-order reading")

// Append adds a reading. Readings must arrive in non-decreasing time
// order; an out-of-order reading is rejected with ErrOutOfOrder and the
// stream is left unchanged.
func (s *Stream) Append(r Reading) error {
	if n := len(s.readings); n > 0 && r.Time < s.readings[n-1].Time {
		return fmt.Errorf("%w: %v after %v", ErrOutOfOrder, r.Time, s.readings[n-1].Time)
	}
	s.readings = append(s.readings, r)
	return nil
}

// Len returns the number of readings.
func (s *Stream) Len() int { return len(s.readings) }

// At returns the i-th reading.
func (s *Stream) At(i int) Reading { return s.readings[i] }

// All returns the underlying slice (read-only by convention).
func (s *Stream) All() []Reading { return s.readings }

// End returns the time of the last reading, or 0 for an empty stream.
func (s *Stream) End() units.Time {
	if len(s.readings) == 0 {
		return 0
	}
	return s.readings[len(s.readings)-1].Time
}
