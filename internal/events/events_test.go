package events

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"snip/internal/sensors"
	"snip/internal/units"
)

func TestSchemasCoverPaperSizeRange(t *testing.T) {
	// In.Event objects span 2–640 bytes in the paper (Fig. 7a).
	var min, max units.Size = 1 << 30, 0
	for ty := Type(0); int(ty) < NumTypes; ty++ {
		sz := ObjectSize(ty)
		if sz <= 0 {
			t.Fatalf("%v has zero size", ty)
		}
		if sz < min {
			min = sz
		}
		if sz > max {
			max = sz
		}
		if strings.HasPrefix(ty.String(), "Type(") {
			t.Fatalf("type %d unnamed", int(ty))
		}
	}
	if min > 16 {
		t.Fatalf("smallest event %v B, want small (paper: 2 B)", min)
	}
	if max < 600 || max > 700 {
		t.Fatalf("largest event %v B, want ≈640 B (camera frame)", max)
	}
}

func TestEventFieldAccess(t *testing.T) {
	e := New(Tap, 1, 100, 320, 640, 512, 0, 1)
	if v, ok := e.Field("x"); !ok || v != 320 {
		t.Fatalf("x = %v ok=%v", v, ok)
	}
	if v, ok := e.Field("y"); !ok || v != 640 {
		t.Fatalf("y = %v ok=%v", v, ok)
	}
	if _, ok := e.Field("nope"); ok {
		t.Fatal("bogus field found")
	}
	if e.MustField("pressure") != 512 {
		t.Fatal("MustField wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustField on missing field did not panic")
		}
	}()
	e.MustField("nope")
}

func TestNewValidatesArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong value count did not panic")
		}
	}()
	New(Tap, 0, 0, 1, 2) // Tap needs 5 values
}

func TestHashSensitivity(t *testing.T) {
	a := New(Tap, 1, 0, 100, 200, 512, 0, 1)
	b := New(Tap, 2, 50, 100, 200, 512, 0, 1) // same values, different seq/time
	if a.Hash() != b.Hash() {
		t.Fatal("hash should depend only on type+values")
	}
	c := New(Tap, 1, 0, 101, 200, 512, 0, 1)
	if a.Hash() == c.Hash() {
		t.Fatal("hash ignores value change")
	}
	d := New(VSync, 1, 0, 100)
	e := New(VSync, 1, 0, 101)
	if d.Hash() == e.Hash() {
		t.Fatal("vsync hash collision on frame change")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(Tilt, 1, 0, 1, 2, 3, 4, 5, 6)
	b := a.Clone()
	b.Values[0] = 99
	if a.Values[0] == 99 {
		t.Fatal("clone shares values")
	}
}

// --- synthesizer ---

func synth() *Synthesizer { return NewSynthesizer(DefaultSynthesizerConfig()) }

// feed synthesizes one reading and returns the events it completes.
func feed(s *Synthesizer, r sensors.Reading) []Event {
	n := len(s.evs)
	s.feed(r)
	return slices.Clone(s.evs[n:])
}

func touchSeq(s *Synthesizer, pts [][3]int64) []Event {
	var out []Event
	for i, p := range pts {
		phase := sensors.TouchMove
		if i == 0 {
			phase = sensors.TouchDown
		} else if i == len(pts)-1 {
			phase = sensors.TouchUp
		}
		out = append(out, feed(s, sensors.TouchReading(nil, units.Time(p[0]), phase, p[1], p[2], 500, 0))...)
	}
	return out
}

func TestTapClassification(t *testing.T) {
	evs := touchSeq(synth(), [][3]int64{
		{0, 300, 400},
		{80_000, 302, 401},
	})
	if len(evs) != 1 || evs[0].Type != Tap {
		t.Fatalf("expected one Tap, got %v", evs)
	}
	// Coordinates are quantized to the 8 px grid.
	if evs[0].MustField("x")%8 != 0 || evs[0].MustField("y")%8 != 0 {
		t.Fatal("tap coordinates not quantized")
	}
}

func TestSwipeClassification(t *testing.T) {
	pts := [][3]int64{{0, 200, 1500}}
	for i := 1; i <= 8; i++ {
		pts = append(pts, [3]int64{int64(i) * 25_000, 200 + int64(i)*60, 1500 - int64(i)*40})
	}
	evs := touchSeq(synth(), pts)
	var swipes int
	for _, e := range evs {
		if e.Type == Swipe {
			swipes++
		}
	}
	if swipes != 1 {
		t.Fatalf("expected one Swipe, got %v", evs)
	}
}

func TestDragClassificationAndUpdates(t *testing.T) {
	pts := [][3]int64{{0, 600, 1800}}
	for i := 1; i <= 30; i++ {
		pts = append(pts, [3]int64{int64(i) * 9_000, 600 - int64(i)*25, 1800 + int64(i)*25})
	}
	evs := touchSeq(synth(), pts)
	var dragMoves, dragEnds int
	for _, e := range evs {
		if e.Type == Drag {
			if e.MustField("phase") == 1 {
				dragMoves++
			} else {
				dragEnds++
			}
		}
	}
	if dragMoves < 3 {
		t.Fatalf("long pull produced %d drag updates, want several", dragMoves)
	}
	if dragEnds != 1 {
		t.Fatalf("drag ends %d, want 1", dragEnds)
	}
}

func TestGyroQuantizationSuppression(t *testing.T) {
	s := synth()
	e1 := feed(s, sensors.GyroReading(nil, 0, 100, 200, 300))
	if len(e1) != 1 || e1[0].Type != Tilt {
		t.Fatalf("first gyro reading: %v", e1)
	}
	// Sub-quantum tremor (±2° grid) produces no event.
	e2 := feed(s, sensors.GyroReading(nil, 100, 101, 201, 301))
	if len(e2) != 0 {
		t.Fatalf("tremor produced events: %v", e2)
	}
	// A real turn does.
	e3 := feed(s, sensors.GyroReading(nil, 200, 160, 200, 300))
	if len(e3) != 1 {
		t.Fatalf("turn missed: %v", e3)
	}
	if e3[0].MustField("dalpha") == 0 {
		t.Fatal("delta fields not populated")
	}
}

func TestShakeThreshold(t *testing.T) {
	s := synth()
	if evs := feed(s, sensors.AccelReading(nil, 0, 100, 100, 100)); len(evs) != 0 {
		t.Fatalf("weak accel made events: %v", evs)
	}
	if evs := feed(s, sensors.AccelReading(nil, 1, 2000, 100, 100)); len(evs) != 1 || evs[0].Type != Shake {
		t.Fatalf("strong accel: %v", evs)
	}
}

func TestCameraAndGPSEvents(t *testing.T) {
	s := synth()
	evs := feed(s, sensors.CameraReading(nil, 0, 101, 4, 120))
	if len(evs) != 1 || evs[0].Type != CameraFrame {
		t.Fatalf("camera: %v", evs)
	}
	evs = feed(s, sensors.GPSReading(nil, 0, 1, 2))
	if len(evs) != 1 || evs[0].Type != GPSFix {
		t.Fatalf("gps: %v", evs)
	}
}

func TestSynthesizeAllEmitsVSync(t *testing.T) {
	s := synth()
	var stream sensors.Stream
	stream.Append(sensors.GyroReading(nil, 0, 0, 0, 0))
	stream.Append(sensors.GyroReading(nil, units.Second, 900, 0, 0))
	evs := s.SynthesizeAll(&stream)
	var vsyncs int
	for _, e := range evs {
		if e.Type == VSync {
			vsyncs++
		}
	}
	// 60 fps over 1 s ≈ 60 frames.
	if vsyncs < 55 || vsyncs > 65 {
		t.Fatalf("vsync count %d over 1s", vsyncs)
	}
	// Events must be deliverable in time order after a stable sort.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Seq < evs[j].Seq
	})
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("out of order delivery: %v after %v", evs[i].Time, evs[i-1].Time)
		}
	}
}

func TestDeliveryCostPositive(t *testing.T) {
	w := DeliveryCost(New(CameraFrame, 0, 0, 1, 2, 3, 4))
	if w.CPUInstr <= 0 || len(w.IPCalls) != 1 || w.IPCalls[0].Duration <= 0 {
		t.Fatalf("delivery cost %+v", w)
	}
	// Bigger events cost more to ship across Binder.
	small := DeliveryCost(New(VSync, 0, 0, 1))
	if w.CPUInstr <= small.CPUInstr {
		t.Fatal("camera frame should cost more than a vsync tick")
	}
}

func TestDeliveryCostPartsMatch(t *testing.T) {
	// The allocation-free parts form must never drift from the Work form
	// the SoC simulator executes.
	for _, e := range []*Event{
		New(CameraFrame, 0, 0, 1, 2, 3, 4),
		New(VSync, 0, 0, 1),
		New(Tap, 0, 0, 120, 340, 5, 0, 1),
	} {
		w := DeliveryCost(e)
		cpu, mem, hub := DeliveryCostParts(e)
		wantMem := w.MemBytes
		for _, c := range w.IPCalls {
			wantMem += c.MemBytes
		}
		if cpu != w.CPUInstr || mem != wantMem || hub != w.IPCalls[0].Duration {
			t.Fatalf("parts (%d, %v, %v) drifted from DeliveryCost %+v", cpu, mem, hub, w)
		}
	}
}

func TestQuantizationCollapsesNearbyTaps(t *testing.T) {
	// Property: taps within the same 8 px cell and pressure bucket
	// synthesize identical (hash-equal) events — the source of the
	// paper's exactly-repeated events.
	f := func(x0 uint16, y0 uint16, dx, dy uint8) bool {
		x := int64(x0%1400) + 8
		y := int64(y0%2500) + 8
		jx := int64(dx % 8)
		jy := int64(dy % 8)
		base := x / 8 * 8
		basey := y / 8 * 8
		if base+jx >= base+8 || basey+jy >= basey+8 {
			return true
		}
		s1 := synth()
		e1 := touchSeq(s1, [][3]int64{{0, base, basey}, {80_000, base, basey}})
		s2 := synth()
		e2 := touchSeq(s2, [][3]int64{{0, base + jx, basey + jy}, {80_000, base + jx, basey + jy}})
		if len(e1) != 1 || len(e2) != 1 {
			return true
		}
		if e1[0].Type != Tap || e2[0].Type != Tap {
			return true
		}
		return e1[0].MustField("x") == e2[0].MustField("x") &&
			e1[0].MustField("y") == e2[0].MustField("y")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// mixedStream returns a time-ordered stream that exercises every
// sensor: taps, swipes and drags, gyro turns, shakes, GPS fixes and
// camera frames.
func mixedStream() *sensors.Stream {
	var s sensors.Stream
	at := units.Time(0)
	for i := int64(0); i < 40; i++ {
		moves := []int64{0, 8, 30}[i%3]
		s.Append(sensors.TouchReading(nil, at, sensors.TouchDown, 200+i*10, 900, 500, 0))
		for k := int64(1); k <= moves; k++ {
			at += 9_000
			s.Append(sensors.TouchReading(nil, at, sensors.TouchMove, 200+i*10+k*30, 900-k*20, 500, 0))
		}
		at += 9_000
		s.Append(sensors.TouchReading(nil, at, sensors.TouchUp, 200+i*10+moves*30, 900-moves*20, 500, 0))
		s.Append(sensors.GyroReading(nil, at, 100*i, 40*i, -30*i))
		s.Append(sensors.AccelReading(nil, at, 900*(i%3), 100, 100))
		s.Append(sensors.GPSReading(nil, at, 4000+i, 7000-i))
		s.Append(sensors.CameraReading(nil, at, 100+i%4, i%5, 120))
		// A pinch: both pointers down, moving apart.
		s.Append(sensors.TouchReading(nil, at, sensors.TouchDown, 500, 1000, 500, 0))
		s.Append(sensors.TouchReading(nil, at, sensors.TouchDown, 600, 1100, 500, 1))
		for k := int64(1); k <= 4; k++ {
			at += 9_000
			s.Append(sensors.TouchReading(nil, at, sensors.TouchMove, 500-k*20, 1000-k*20, 500, 0))
			s.Append(sensors.TouchReading(nil, at, sensors.TouchMove, 600+k*20, 1100+k*20, 500, 1))
		}
		s.Append(sensors.TouchReading(nil, at, sensors.TouchUp, 420, 920, 500, 0))
		s.Append(sensors.TouchReading(nil, at, sensors.TouchUp, 680, 1180, 500, 1))
		at += 30_000
	}
	return &s
}

// TestSynthesizeAllReusesOneArray: a session's events share one values
// array, in event order, and synthesizing again on a reset synthesizer
// yields the same events without allocating.
func TestSynthesizeAllReusesOneArray(t *testing.T) {
	stream := mixedStream()
	s := synth()
	evs := s.SynthesizeAll(stream)
	seen := map[Type]bool{}
	var want []Event
	off := 0
	for i := range evs {
		seen[evs[i].Type] = true
		want = append(want, *evs[i].Clone())
		if &evs[i].Values[0] != &s.vals[off] {
			t.Fatalf("event %d's values are not at offset %d of the shared array", i, off)
		}
		off += len(evs[i].Values)
	}
	if len(seen) != NumTypes {
		t.Fatalf("the stream yields %d of %d event types: %v", len(seen), NumTypes, seen)
	}
	allocs := testing.AllocsPerRun(5, func() {
		s.Reset(DefaultSynthesizerConfig())
		evs = s.SynthesizeAll(stream)
	})
	if allocs != 0 {
		t.Errorf("synthesizing again allocated %v times", allocs)
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatal("synthesizing again yielded different events")
	}
}
