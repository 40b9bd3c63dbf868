// Package workload generates the user behaviour that drives each game:
// open-loop, stochastic sensor streams (touch gestures, gyro motion,
// camera scenes, GPS fixes) shaped after how people actually play each
// title. The paper's characterization numbers — 2–5% exactly repeated
// events, 17–43% useless events — are not injected anywhere; they emerge
// from these behaviour models meeting the game mechanics.
package workload

import (
	"fmt"
	"sort"

	"snip/internal/rng"
	"snip/internal/sensors"
	"snip/internal/units"
)

// Generator produces the sensor stream of one play session.
type Generator interface {
	// Game returns the name of the game this behaviour model plays.
	Game() string
	// Generate builds a session's raw sensor stream.
	Generate(seed uint64, duration units.Time) *sensors.Stream
}

// ForGame returns the behaviour model for a game.
func ForGame(name string) (Generator, error) {
	switch name {
	case "Colorphun":
		return colorphunUser{}, nil
	case "MemoryGame":
		return memoryUser{}, nil
	case "CandyCrush":
		return candyUser{}, nil
	case "Greenwall":
		return greenwallUser{}, nil
	case "ABEvolution":
		return abUser{}, nil
	case "ChaseWhisply":
		return chaseUser{}, nil
	case "RaceKings":
		return raceUser{}, nil
	}
	return nil, fmt.Errorf("workload: no behaviour model for game %q", name)
}

// MustForGame is ForGame, panicking on unknown games.
func MustForGame(name string) Generator {
	g, err := ForGame(name)
	if err != nil {
		panic(err)
	}
	return g
}

// builder accumulates touch/sensor readings with human-ish timing. The
// per-sensor timelines a generator weaves can interleave, so readings are
// buffered and merge-sorted into the final stream by finish().
type builder struct {
	buf []sensors.Reading
	// vals is the arena the readings' values are appended to.
	vals []int64
	r    *rng.Source
	now  units.Time
	end  units.Time
}

func newBuilder(seed uint64, duration units.Time) *builder {
	return &builder{r: rng.New(seed), end: duration}
}

func (b *builder) done() bool { return b.now >= b.end }

func (b *builder) emit(r sensors.Reading) { b.buf = append(b.buf, r) }

// finish sorts the buffered readings by time (stably, preserving each
// sensor's own ordering) and returns the session stream.
func (b *builder) finish() *sensors.Stream {
	sort.SliceStable(b.buf, func(i, j int) bool { return b.buf[i].Time < b.buf[j].Time })
	s := &sensors.Stream{}
	for _, r := range b.buf {
		// The sort guarantees ordering, so an append cannot fail here; a
		// rejected reading would be a builder bug and is simply dropped.
		_ = s.Append(r)
	}
	return s
}

// wait advances time by mean±40% jitter.
func (b *builder) wait(mean units.Time) {
	jitter := 0.6 + 0.8*b.r.Float64()
	b.now += units.Time(float64(mean) * jitter)
}

// jittered returns v plus gaussian noise of the given sigma.
func (b *builder) jittered(v int64, sigma float64) int64 {
	return v + int64(b.r.NormFloat64()*sigma)
}

func clampI(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// tap emits a down/up pair at (x,y) lasting 60–140 ms.
func (b *builder) tap(x, y int64) {
	x = clampI(x, 0, 1439)
	y = clampI(y, 0, 2559)
	pressure := int64(400 + b.r.Intn(400))
	b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchDown, x, y, pressure, 0))
	b.now += units.Time(60+b.r.Intn(80)) * units.Millisecond
	b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchUp, x, y, pressure, 0))
}

// stroke emits a down, `samples` moves, and an up along a straight line
// with hand jitter, over the given gesture duration.
func (b *builder) stroke(x0, y0, x1, y1 int64, samples int, dur units.Time) {
	x0 = clampI(x0, 0, 1439)
	y0 = clampI(y0, 0, 2559)
	x1 = clampI(x1, 0, 1439)
	y1 = clampI(y1, 0, 2559)
	pressure := int64(500 + b.r.Intn(300))
	b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchDown, x0, y0, pressure, 0))
	step := dur / units.Time(samples+1)
	for i := 1; i <= samples; i++ {
		b.now += step
		x := x0 + (x1-x0)*int64(i)/int64(samples+1)
		y := y0 + (y1-y0)*int64(i)/int64(samples+1)
		x = clampI(b.jittered(x, 3), 0, 1439)
		y = clampI(b.jittered(y, 3), 0, 2559)
		b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchMove, x, y, pressure, 0))
	}
	b.now += step
	b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchUp, x1, y1, pressure, 0))
}

// swipeGesture emits a short flick (classified as Swipe: <12 moves).
func (b *builder) swipeGesture(x0, y0, x1, y1 int64) {
	b.stroke(x0, y0, x1, y1, 7+b.r.Intn(3), units.Time(180+b.r.Intn(120))*units.Millisecond)
}

// dragGesture emits a long tracked pull (classified as Drag: many moves,
// streaming Drag-update events along the way).
func (b *builder) dragGesture(x0, y0, x1, y1 int64, holdMoves int) {
	samples := 18 + b.r.Intn(12)
	b.stroke2(x0, y0, x1, y1, samples, holdMoves)
}

// stroke2 is stroke plus a hold phase: after reaching the end point the
// finger stays pressed emitting `holdMoves` tremor moves — AB Evolution's
// "keep pulling at max stretch" behaviour.
func (b *builder) stroke2(x0, y0, x1, y1 int64, samples, holdMoves int) {
	x0 = clampI(x0, 0, 1439)
	y0 = clampI(y0, 0, 2559)
	x1 = clampI(x1, 0, 1439)
	y1 = clampI(y1, 0, 2559)
	pressure := int64(500 + b.r.Intn(300))
	b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchDown, x0, y0, pressure, 0))
	step := 9 * units.Millisecond
	for i := 1; i <= samples; i++ {
		b.now += step
		x := x0 + (x1-x0)*int64(i)/int64(samples+1)
		y := y0 + (y1-y0)*int64(i)/int64(samples+1)
		b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchMove,
			clampI(b.jittered(x, 3), 0, 1439), clampI(b.jittered(y, 3), 0, 2559), pressure, 0))
	}
	for i := 0; i < holdMoves; i++ {
		b.now += step
		b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchMove,
			clampI(b.jittered(x1, 2), 0, 1439), clampI(b.jittered(y1, 2), 0, 2559), pressure, 0))
	}
	b.now += step
	b.emit(sensors.TouchReading(&b.vals, b.now, sensors.TouchUp, x1, y1, pressure, 0))
}

// gyroTremor emits one gyro sample around a base orientation with hand
// tremor (sub-quantum most of the time).
func (b *builder) gyro(alpha, beta, gamma int64, tremor float64) {
	b.emit(sensors.GyroReading(&b.vals, b.now,
		b.jittered(alpha, tremor), b.jittered(beta, tremor), b.jittered(gamma, tremor)))
}

// anchors returns n favourite screen points; players re-hit the same
// spots, which (after the synthesizer's 8 px quantization) produces the
// paper's 2–5% exactly-repeated events.
func (b *builder) anchors(n int, x0, y0, x1, y1 int64) [][2]int64 {
	pts := make([][2]int64, n)
	for i := range pts {
		pts[i] = [2]int64{
			x0 + int64(b.r.Intn(int(x1-x0))),
			y0 + int64(b.r.Intn(int(y1-y0))),
		}
	}
	return pts
}
