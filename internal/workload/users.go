package workload

import (
	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/sensors"
	"snip/internal/units"
)

// ---------------------------------------------------------------------------
// Colorphun: taps alternate between the two panels every second or so,
// with a handful of favourite spots and occasional strays into the
// margins.
// ---------------------------------------------------------------------------

type colorphunUser struct{}

func (colorphunUser) Game() string { return "Colorphun" }

func (colorphunUser) Generate(seed uint64, duration units.Time) *sensors.Stream {
	b := newBuilder(seed, duration)
	topSpots := b.anchors(3, 300, 500, 1100, 1100)
	botSpots := b.anchors(3, 300, 1500, 1100, 2200)
	for !b.done() {
		roll := b.r.Float64()
		switch {
		case roll < 0.08:
			// Stray tap into the status bar or margins.
			b.tap(int64(b.r.Intn(1440)), int64(b.r.Intn(240)))
		case roll < 0.54:
			p := topSpots[b.r.Intn(len(topSpots))]
			b.tap(b.jittered(p[0], 14), b.jittered(p[1], 14))
		default:
			p := botSpots[b.r.Intn(len(botSpots))]
			b.tap(b.jittered(p[0], 14), b.jittered(p[1], 14))
		}
		b.wait(1000 * units.Millisecond)
	}
	return b.finish()
}

// ---------------------------------------------------------------------------
// Memory Game: taps land on card centers. A distracted player re-taps
// already-matched or face-up cards and pokes mid-animation fairly often.
// ---------------------------------------------------------------------------

type memoryUser struct{}

func (memoryUser) Game() string { return "MemoryGame" }

func (memoryUser) Generate(seed uint64, duration units.Time) *sensors.Stream {
	b := newBuilder(seed, duration)
	// Card centers for the 4×4 board at (120,640), cell 300×320.
	centers := make([][2]int64, 16)
	for i := range centers {
		centers[i] = [2]int64{120 + int64(i%4)*300 + 150, 640 + int64(i/4)*320 + 160}
	}
	lastCell := -1
	for !b.done() {
		roll := b.r.Float64()
		var cell int
		switch {
		case roll < 0.06:
			// Tap outside the board entirely.
			b.tap(int64(b.r.Intn(1440)), int64(b.r.Intn(500)))
			b.wait(950 * units.Millisecond)
			continue
		case roll < 0.30 && lastCell >= 0:
			// Absent-mindedly re-tap a recently used card.
			cell = lastCell
		default:
			cell = b.r.Intn(16)
		}
		lastCell = cell
		p := centers[cell]
		b.tap(b.jittered(p[0], 24), b.jittered(p[1], 24))
		b.wait(1150 * units.Millisecond)
	}
	return b.finish()
}

// ---------------------------------------------------------------------------
// Candy Crush: short directional swipes on grid cells. Casual players try
// plenty of swaps that don't form a match.
// ---------------------------------------------------------------------------

type candyUser struct{}

func (candyUser) Game() string { return "CandyCrush" }

func (candyUser) Generate(seed uint64, duration units.Time) *sensors.Stream {
	b := newBuilder(seed, duration)
	// Closed-loop play: the model co-simulates a private copy of the game
	// (same seed → identical board evolution) so the player can "see" the
	// board, finding a legal move most of the time the way real players
	// do, while still fumbling a fair share of illegal swaps.
	shadow, _ := games.Borrow("CandyCrush", seed) // a catalog game: no error
	defer games.Return(shadow)
	seq := int64(1 << 40) // disjoint from real session sequence numbers
	for !b.done() {
		if b.r.Float64() < 0.05 {
			// Swipe on the HUD instead of the board.
			b.swipeGesture(200, 300, 500, 300)
			b.wait(950 * units.Millisecond)
			continue
		}
		var ci, cj int
		hintA, hintB, hasHint := games.CandyHint(shadow)
		if hasHint && b.r.Float64() < 0.78 {
			ci, cj = hintA, hintB
		} else {
			// Fumbled attempt: a random adjacent pair.
			ci = b.r.Intn(64)
			if b.r.Bool(0.5) && ci%8 < 7 {
				cj = ci + 1
			} else if ci/8 < 7 {
				cj = ci + 8
			} else {
				cj = ci - 8
			}
		}
		ax, ay := games.CandyCellCenter(ci)
		tx, ty := games.CandyCellCenter(cj)
		dx, dy := int64(0), int64(0)
		if tx != ax {
			dx = sign(tx-ax) * 170
		} else {
			dy = sign(ty-ay) * 170
		}
		b.swipeGesture(b.jittered(ax, 9), b.jittered(ay, 9), ax+dx, ay+dy)
		// Keep the private board in sync by applying the same gesture
		// (cell + direction are all the handler reads).
		q := func(v int64) int64 { return v / 8 * 8 }
		ev := events.New(events.Swipe, seq, b.now, q(ax), q(ay), q(ax+dx), q(ay+dy), 0, 0, 16, 0, 0)
		seq++
		shadow.Process(ev, nil)
		b.wait(950 * units.Millisecond)
	}
	return b.finish()
}

func sign(v int64) int64 {
	if v < 0 {
		return -1
	}
	return 1
}

// ---------------------------------------------------------------------------
// Greenwall: energetic diagonal slashes across the lower 2/3 of the
// screen, two per second, from a few grooved motions.
// ---------------------------------------------------------------------------

type greenwallUser struct{}

func (greenwallUser) Game() string { return "Greenwall" }

func (greenwallUser) Generate(seed uint64, duration units.Time) *sensors.Stream {
	b := newBuilder(seed, duration)
	slashes := make([][4]int64, 5)
	for i := range slashes {
		x0 := int64(150 + b.r.Intn(500))
		y0 := int64(1200 + b.r.Intn(900))
		slashes[i] = [4]int64{x0, y0, x0 + int64(500+b.r.Intn(600)), y0 - int64(400+b.r.Intn(700))}
	}
	for !b.done() {
		s := slashes[b.r.Intn(len(slashes))]
		b.swipeGesture(b.jittered(s[0], 30), b.jittered(s[1], 30),
			b.jittered(s[2], 30), b.jittered(s[3], 30))
		b.wait(520 * units.Millisecond)
	}
	return b.finish()
}

// ---------------------------------------------------------------------------
// AB Evolution: long catapult pulls that overwhelmingly reach (and keep
// tugging at) max stretch, then release. Light tilt tremor throughout.
// ---------------------------------------------------------------------------

type abUser struct{}

func (abUser) Game() string { return "ABEvolution" }

func (abUser) Generate(seed uint64, duration units.Time) *sensors.Stream {
	b := newBuilder(seed, duration)
	nextGyro := units.Time(0)
	baseBeta := int64(450)
	emitGyroUpTo := func(t units.Time) {
		for nextGyro <= t {
			saved := b.now
			b.now = nextGyro
			b.gyro(100, baseBeta, 20, 6)
			b.now = saved
			nextGyro += 40 * units.Millisecond
		}
	}
	for !b.done() {
		emitGyroUpTo(b.now)
		roll := b.r.Float64()
		switch {
		case roll < 0.12:
			// Poke a bird.
			b.tap(int64(400+b.r.Intn(700)), int64(1800+b.r.Intn(500)))
			b.wait(900 * units.Millisecond)
		case roll < 0.2:
			// Deliberate device tilt (camera pan).
			baseBeta += int64(b.r.Intn(300)) - 150
			b.wait(600 * units.Millisecond)
		default:
			// The signature move: pull the catapult well past max
			// stretch and keep tugging before releasing.
			sx := int64(350 + b.r.Intn(80))
			sy := int64(1900 + b.r.Intn(80))
			// Max stretch is 25 notches × 48 px = 1200 px of pull; most
			// pulls go 1300–1900 px.
			pull := int64(1300 + b.r.Intn(600))
			ex := sx - pull*2/3
			ey := sy + pull*2/3
			hold := 6 + b.r.Intn(20) // tugging at max
			b.dragGesture(sx, sy, ex, ey, hold)
			b.wait(1200 * units.Millisecond)
		}
	}
	emitGyroUpTo(b.end - 1)
	return b.finish()
}

// ---------------------------------------------------------------------------
// Chase Whisply: continuous camera frames (30 fps) whose scene changes
// only while the player walks; continuous gyro aiming with tremor and
// deliberate sweeps; taps to shoot; GPS fixes once a second.
// ---------------------------------------------------------------------------

type chaseUser struct{}

func (chaseUser) Game() string { return "ChaseWhisply" }

func (chaseUser) Generate(seed uint64, duration units.Time) *sensors.Stream {
	b := newBuilder(seed, duration)
	const camPeriod = 33 * units.Millisecond
	const gyroPeriod = 45 * units.Millisecond
	const gpsPeriod = 1 * units.Second

	type tev struct {
		at   units.Time
		x, y int64
	}
	// Plan shots up-front: roughly one per 1.4 s.
	var shots []tev
	t := 800 * units.Millisecond
	for t < duration {
		shots = append(shots, tev{t, int64(500 + b.r.Intn(400)), int64(1100 + b.r.Intn(400))})
		t += units.Time(900+b.r.Intn(1100)) * units.Millisecond
	}

	scene := int64(100)
	surfaces := int64(3 + b.r.Intn(5))
	walking := false
	walkLeft := 0
	alpha, beta := int64(800), int64(300)
	lat, lng := int64(40_450_000), int64(-77_860_000)

	var camAt, gyroAt, gpsAt units.Time
	shotIdx := 0
	for now := units.Time(0); now < duration; now += 5 * units.Millisecond {
		b.now = now
		if now >= camAt {
			camAt += camPeriod
			if walking {
				walkLeft--
				if walkLeft <= 0 {
					walking = false
				}
				if b.r.Float64() < 0.12 {
					// The player wanders between the rooms of their
					// home: a small recurring set of scenes.
					scene = 100 + int64(b.r.Intn(12))
					surfaces = int64(2 + b.r.Intn(7))
				}
			} else if b.r.Float64() < 0.004 {
				walking = true
				walkLeft = 60 + b.r.Intn(120)
			}
			luma := int64(120 + b.r.Intn(8))
			b.emit(sensors.CameraReading(&b.vals, now, scene, surfaces, luma))
		}
		if now >= gyroAt {
			gyroAt += gyroPeriod
			if b.r.Float64() < 0.06 {
				// Deliberate sweep to a new aim.
				alpha += int64(b.r.Intn(900)) - 450
				beta += int64(b.r.Intn(600)) - 300
			}
			b.gyro(alpha, beta, 0, 15)
		}
		if now >= gpsAt {
			gpsAt += gpsPeriod
			drift := int64(0)
			if walking {
				drift = int64(b.r.Intn(240)) - 120
			}
			lat += drift + int64(b.r.Intn(30)) - 15
			lng += drift/2 + int64(b.r.Intn(30)) - 15
			b.emit(sensors.GPSReading(&b.vals, now, lat, lng))
		}
		if shotIdx < len(shots) && now >= shots[shotIdx].at {
			s := shots[shotIdx]
			shotIdx++
			b.now = s.at
			b.tap(s.x, s.y)
		}
	}
	return b.finish()
}

// ---------------------------------------------------------------------------
// Race Kings: continuous gyro steering — long holds in a lane with tremor,
// punctuated by deliberate lane changes — plus boost taps (often hammered
// while the boost is already burning).
// ---------------------------------------------------------------------------

type raceUser struct{}

func (raceUser) Game() string { return "RaceKings" }

func (raceUser) Generate(seed uint64, duration units.Time) *sensors.Stream {
	b := newBuilder(seed, duration)
	const gyroPeriod = 35 * units.Millisecond
	beta := int64(0)
	hold := 0
	var nextTap units.Time = 2 * units.Second
	tapBurst := 0
	for now := units.Time(0); now < duration; now += gyroPeriod {
		b.now = now
		if hold <= 0 {
			// Pick the next steering posture: mostly near level, with
			// deliberate tilts for corners.
			switch b.r.Intn(5) {
			case 0:
				beta = int64(b.r.Intn(500)) + 80 // right
			case 1:
				beta = -int64(b.r.Intn(500)) - 80 // left
			default:
				beta = int64(b.r.Intn(90)) - 45 // cruising level
			}
			hold = 12 + b.r.Intn(50)
		}
		hold--
		b.gyro(60, beta, 0, 10)
		if now >= nextTap {
			if tapBurst == 0 {
				tapBurst = 1 + b.r.Intn(4) // players hammer the button
			}
			b.tap(int64(1180+b.r.Intn(160)), int64(2300+b.r.Intn(160)))
			tapBurst--
			if tapBurst > 0 {
				nextTap = now + units.Time(220+b.r.Intn(160))*units.Millisecond
			} else {
				nextTap = now + units.Time(3500+b.r.Intn(4000))*units.Millisecond
			}
		}
	}
	return b.finish()
}
