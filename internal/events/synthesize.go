package events

import (
	"fmt"
	"slices"

	"snip/internal/sensors"
	"snip/internal/units"
)

// SynthesizerConfig tunes gesture classification.
type SynthesizerConfig struct {
	TapMaxDist     int64      // max travel (px) for a touch to remain a tap
	TapMaxDuration units.Time // max press time for a tap
	QuantizePx     int64      // coordinate grid; collapses near-identical gestures
	TiltQuantum    int64      // tilt angle grid in tenths of a degree
	ShakeThreshold int64      // accel magnitude (milli-g) that becomes a Shake
	VSyncPeriod    units.Time // 0 disables VSync generation
	// FrameBase offsets the VSync frame counter: on a real device it
	// counts from boot, so two sessions never share frame numbers.
	FrameBase int64
}

// DefaultSynthesizerConfig returns the standard gesture parameters:
// 60 Hz VSync, 8 px coordinate quantization, 2° tilt quantization.
func DefaultSynthesizerConfig() SynthesizerConfig {
	return SynthesizerConfig{
		TapMaxDist:     24,
		TapMaxDuration: 180 * units.Millisecond,
		QuantizePx:     8,
		TiltQuantum:    20, // 2.0°
		ShakeThreshold: 1800,
		VSyncPeriod:    16667, // ≈60 fps
	}
}

// Synthesizer converts raw sensor readings into high-level events. It
// plays the role of Android's SensorManager/GestureDetector: raw touch
// phases become taps/swipes/drags, gyro series become tilt events, and so
// on. One synthesizer handles one app session at a time; Reset starts
// the next on the same buffers.
type Synthesizer struct {
	cfg SynthesizerConfig
	seq int64

	// touch gesture state per pointer id (two pointers supported); a
	// pointer's track is live while it is down.
	active [2]touchTrack
	down   [2]bool
	// last emitted tilt, for delta fields.
	lastTilt  [3]int64
	haveTilt  bool
	lastFrame int64

	// The events synthesized so far, by value, and their values in one
	// backing array.
	evs  []Event
	vals []int64
}

type touchTrack struct {
	startT, lastT  units.Time
	x0, y0, x1, y1 int64
	pressure       int64
	moves          int
}

// NewSynthesizer builds a synthesizer with the given config (zero-value
// fields are filled from defaults).
func NewSynthesizer(cfg SynthesizerConfig) *Synthesizer {
	s := new(Synthesizer)
	s.Reset(cfg)
	return s
}

// Reset readies the synthesizer for a new session with the given config
// (zero-value fields are filled from defaults), keeping its buffers.
func (s *Synthesizer) Reset(cfg SynthesizerConfig) {
	def := DefaultSynthesizerConfig()
	if cfg.TapMaxDist == 0 {
		cfg.TapMaxDist = def.TapMaxDist
	}
	if cfg.TapMaxDuration == 0 {
		cfg.TapMaxDuration = def.TapMaxDuration
	}
	if cfg.QuantizePx == 0 {
		cfg.QuantizePx = def.QuantizePx
	}
	if cfg.TiltQuantum == 0 {
		cfg.TiltQuantum = def.TiltQuantum
	}
	if cfg.ShakeThreshold == 0 {
		cfg.ShakeThreshold = def.ShakeThreshold
	}
	*s = Synthesizer{cfg: cfg, evs: s.evs[:0], vals: s.vals[:0]}
}

func (s *Synthesizer) next() int64 { s.seq++; return s.seq - 1 }

func (s *Synthesizer) quant(v int64) int64 {
	q := s.cfg.QuantizePx
	return v / q * q
}

// emit appends an event of type t at time at, numbered in sequence, to
// the synthesized events, validating the value count against the
// schema. Its values are appended to the shared backing array.
func (s *Synthesizer) emit(t Type, at units.Time, values ...int64) {
	if len(values) != len(schemas[t]) {
		panic(fmt.Sprintf("events: %v expects %d values, got %d", t, len(schemas[t]), len(values)))
	}
	n := len(s.vals)
	s.vals = append(s.vals, values...)
	s.evs = append(s.evs, Event{Type: t, Seq: s.next(), Time: at, Values: s.vals[n:len(s.vals):len(s.vals)]})
}

// feed consumes one raw reading, emitting at most one event.
func (s *Synthesizer) feed(r sensors.Reading) {
	switch r.Sensor {
	case sensors.Touch:
		s.feedTouch(r)
	case sensors.Gyro:
		s.feedGyro(r)
	case sensors.Accel:
		s.feedAccel(r)
	case sensors.GPS:
		lat, lng := r.Values[0], r.Values[1]
		s.emit(GPSFix, r.Time, lat, lng, 5, 0, 0)
	case sensors.Camera:
		scene, surfaces, luma := r.Values[0], r.Values[1], r.Values[2]
		// The feature vector is a deterministic function of the scene and
		// its complexity — a stand-in for the downsampled camera features
		// an AR game consumes.
		feat := scene*1000003 + surfaces*10007 + luma
		s.emit(CameraFrame, r.Time, scene, surfaces, luma, feat)
	}
}

func (s *Synthesizer) feedTouch(r sensors.Reading) {
	phase := sensors.TouchPhase(r.Values[0])
	x, y, pressure, pointer := r.Values[1], r.Values[2], r.Values[3], r.Values[4]
	if pointer < 0 || pointer > 1 {
		pointer = 0
	}
	switch phase {
	case sensors.TouchDown:
		s.active[pointer] = touchTrack{
			startT: r.Time, lastT: r.Time,
			x0: x, y0: y, x1: x, y1: y, pressure: pressure,
		}
		s.down[pointer] = true
	case sensors.TouchMove:
		if !s.down[pointer] {
			return
		}
		tr := &s.active[pointer]
		tr.x1, tr.y1, tr.lastT = x, y, r.Time
		tr.moves++
		// A sustained single-pointer movement streams Drag updates
		// (phase 1) to the app, the way MotionEvent ACTION_MOVE does —
		// AB Evolution's catapult stretching consumes exactly these.
		if !s.down[0] || !s.down[1] {
			if tr.moves >= 6 && tr.moves%3 == 0 {
				dx, dy := tr.x1-tr.x0, tr.y1-tr.y0
				hist := (s.quant(tr.x1)*31 + s.quant(tr.y1)*17) % 4096
				s.emit(Drag, r.Time,
					s.quant(tr.x0), s.quant(tr.y0), s.quant(tr.x1), s.quant(tr.y1),
					s.quant(dx), s.quant(dy), 1, pointer, hist)
			}
			return
		}
		// While both pointers move we synthesize MultiTouch updates.
		a, b := &s.active[0], &s.active[1]
		dx, dy := a.x1-b.x1, a.y1-b.y1
		spread := isqrt(dx*dx + dy*dy)
		angle := (dx*7 + dy*13) % 360
		if angle < 0 {
			angle += 360
		}
		s.emit(MultiTouch, r.Time,
			s.quant(a.x1), s.quant(a.y1), s.quant(b.x1), s.quant(b.y1),
			spread/8*8, angle/5*5, 1, 0)
	case sensors.TouchUp:
		if !s.down[pointer] {
			return
		}
		s.down[pointer] = false
		s.classify(&s.active[pointer], r.Time, pointer)
	}
}

func isqrt(v int64) int64 {
	if v <= 0 {
		return 0
	}
	x := v
	for y := (x + 1) / 2; y < x; y = (x + v/x) / 2 {
		x = y
	}
	return x
}

func (s *Synthesizer) classify(tr *touchTrack, up units.Time, pointer int64) {
	dx, dy := tr.x1-tr.x0, tr.y1-tr.y0
	dist := isqrt(dx*dx + dy*dy)
	dur := up - tr.startT
	if dist <= s.cfg.TapMaxDist && dur <= s.cfg.TapMaxDuration {
		s.emit(Tap, up, s.quant(tr.x0), s.quant(tr.y0), tr.pressure/64*64, pointer, 1)
		return
	}
	durMs := int64(dur / units.Millisecond)
	if durMs == 0 {
		durMs = 1
	}
	vx, vy := dx*1000/durMs, dy*1000/durMs // px/s
	if tr.moves >= 12 {
		// Long tracked movement = drag (e.g. stretching AB Evolution's
		// catapult); short flick = swipe.
		hist := (s.quant(tr.x0)*31 + s.quant(tr.y1)*17) % 4096
		s.emit(Drag, up,
			s.quant(tr.x0), s.quant(tr.y0), s.quant(tr.x1), s.quant(tr.y1),
			s.quant(dx), s.quant(dy), 2, pointer, hist)
		return
	}
	hist := (s.quant(tr.x1)*13 + s.quant(tr.y0)*7) % 1024
	s.emit(Swipe, up,
		s.quant(tr.x0), s.quant(tr.y0), s.quant(tr.x1), s.quant(tr.y1),
		vx/50*50, vy/50*50, durMs/16*16, pointer, hist)
}

func (s *Synthesizer) feedGyro(r sensors.Reading) {
	q := s.cfg.TiltQuantum
	a, b, g := r.Values[0]/q*q, r.Values[1]/q*q, r.Values[2]/q*q
	if s.haveTilt && a == s.lastTilt[0] && b == s.lastTilt[1] && g == s.lastTilt[2] {
		// No quantized change: SensorManager suppresses the callback.
		return
	}
	var da, db, dg int64
	if s.haveTilt {
		da, db, dg = a-s.lastTilt[0], b-s.lastTilt[1], g-s.lastTilt[2]
	}
	s.lastTilt = [3]int64{a, b, g}
	s.haveTilt = true
	s.emit(Tilt, r.Time, a, b, g, da, db, dg)
}

func (s *Synthesizer) feedAccel(r sensors.Reading) {
	ax, ay, az := r.Values[0], r.Values[1], r.Values[2]
	mag := isqrt(ax*ax + ay*ay + az*az)
	if mag < s.cfg.ShakeThreshold {
		return
	}
	axis := int64(0)
	if ay > ax && ay > az {
		axis = 1
	} else if az > ax && az > ay {
		axis = 2
	}
	s.emit(Shake, r.Time, mag/200*200, axis)
}

// SynthesizeAll converts a whole sensor stream into a time-ordered event
// list, optionally interleaving VSync frame ticks at the configured
// period across the stream's duration. The events are held by value in
// one slice, their values in one backing array; both are the
// synthesizer's own, valid until its next SynthesizeAll or Reset.
func (s *Synthesizer) SynthesizeAll(stream *sensors.Stream) []Event {
	// Each reading yields at most one event, of a type its sensor
	// determines, so the buffers never grow past the readings plus the
	// VSync ticks.
	n, m := 0, 0
	if s.cfg.VSyncPeriod > 0 {
		n = int(stream.End()/s.cfg.VSyncPeriod) + 1
		m = n * len(schemas[VSync])
	}
	for _, r := range stream.All() {
		n, m = n+1, m+maxValues[r.Sensor]
	}
	s.evs, s.vals = slices.Grow(s.evs[:0], n), slices.Grow(s.vals[:0], m)
	var vsyncAt units.Time
	frame := s.lastFrame
	if frame == 0 {
		frame = s.cfg.FrameBase
	}
	emitVSyncUpTo := func(t units.Time) {
		if s.cfg.VSyncPeriod <= 0 {
			return
		}
		for vsyncAt <= t {
			frame++
			s.emit(VSync, vsyncAt, frame)
			vsyncAt += s.cfg.VSyncPeriod
		}
	}
	for _, r := range stream.All() {
		emitVSyncUpTo(r.Time)
		s.feed(r)
	}
	emitVSyncUpTo(stream.End())
	s.lastFrame = frame
	return s.evs
}

// maxValues bounds the values of the one event a reading of each
// sensor can yield.
var maxValues = [...]int{
	sensors.Touch:  max(len(schemas[Tap]), len(schemas[Swipe]), len(schemas[Drag]), len(schemas[MultiTouch])),
	sensors.Gyro:   len(schemas[Tilt]),
	sensors.Accel:  len(schemas[Shake]),
	sensors.GPS:    len(schemas[GPSFix]),
	sensors.Camera: len(schemas[CameraFrame]),
}
