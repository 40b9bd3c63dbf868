package sensors

import (
	"errors"
	"strings"
	"testing"

	"snip/internal/units"
)

func TestKindNames(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("kind %d unnamed", int(k))
		}
	}
}

func TestReadingConstructors(t *testing.T) {
	r := TouchReading(nil, 10, TouchDown, 100, 200, 500, 0)
	if r.Sensor != Touch || r.Time != 10 {
		t.Fatalf("touch reading %+v", r)
	}
	if TouchPhase(r.Values[0]) != TouchDown || r.Values[1] != 100 || r.Values[2] != 200 {
		t.Fatalf("touch values %v", r.Values)
	}
	g := GyroReading(nil, 5, 100, 200, 300)
	if g.Sensor != Gyro || len(g.Values) != 3 {
		t.Fatalf("gyro %+v", g)
	}
	a := AccelReading(nil, 5, 1, 2, 3)
	if a.Sensor != Accel {
		t.Fatalf("accel %+v", a)
	}
	p := GPSReading(nil, 5, 40_000_000, -77_000_000)
	if p.Sensor != GPS || p.Values[0] != 40_000_000 {
		t.Fatalf("gps %+v", p)
	}
	c := CameraReading(nil, 5, 101, 4, 120)
	if c.Sensor != Camera || c.Values[1] != 4 {
		t.Fatalf("camera %+v", c)
	}
}

func TestRawSizes(t *testing.T) {
	cases := []struct {
		r    Reading
		want units.Size
	}{
		{TouchReading(nil, 0, TouchDown, 1, 2, 3, 0), 12},
		{GyroReading(nil, 0, 1, 2, 3), 12},
		{AccelReading(nil, 0, 1, 2, 3), 12},
		{GPSReading(nil, 0, 1, 2), 16},
		{CameraReading(nil, 0, 1, 2, 3), 64},
	}
	for _, c := range cases {
		if got := c.r.RawSize(); got != c.want {
			t.Errorf("%v raw size %v, want %v", c.r.Sensor, got, c.want)
		}
	}
}

func TestStreamOrdering(t *testing.T) {
	var s Stream
	s.Append(GyroReading(nil, 10, 0, 0, 0))
	s.Append(GyroReading(nil, 10, 0, 0, 0)) // equal time is fine
	s.Append(GyroReading(nil, 20, 0, 0, 0))
	if s.Len() != 3 || s.End() != 20 {
		t.Fatalf("len=%d end=%v", s.Len(), s.End())
	}
	if s.At(1).Time != 10 {
		t.Fatal("At index wrong")
	}
	if len(s.All()) != 3 {
		t.Fatal("All length wrong")
	}
	if err := s.Append(GyroReading(nil, 5, 0, 0, 0)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order append: err = %v, want ErrOutOfOrder", err)
	}
	if s.Len() != 3 {
		t.Fatalf("rejected reading mutated the stream: len=%d", s.Len())
	}
}

func TestEmptyStreamEnd(t *testing.T) {
	var s Stream
	if s.End() != 0 {
		t.Fatal("empty stream end should be 0")
	}
}
