package games

import (
	"testing"
	"testing/quick"

	"snip/internal/events"
	"snip/internal/trace"
)

// Direct unit tests of the game mechanics, complementing the black-box
// session tests in games_test.go.

func TestIsqrt(t *testing.T) {
	cases := map[int64]int64{0: 0, 1: 1, 3: 1, 4: 2, 15: 3, 16: 4, 1000000: 1000}
	for in, want := range cases {
		if got := isqrt64(in); got != want {
			t.Errorf("isqrt64(%d) = %d, want %d", in, got, want)
		}
	}
	prop := func(v uint32) bool {
		n := int64(v)
		r := isqrt64(n)
		return r*r <= n && (r+1)*(r+1) > n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirOfQuantization(t *testing.T) {
	seen := map[int64]bool{}
	for _, v := range [][2]int64{
		{100, -100}, {-100, -100}, {-100, 100}, {100, 100},
		{300, -10}, {-10, 300}, {0, -200}, {-200, 0},
	} {
		d := dirOf(v[0], v[1])
		if d < 0 || d > 15 {
			t.Fatalf("dirOf(%v) = %d out of range", v, d)
		}
		seen[d] = true
	}
	if len(seen) < 5 {
		t.Fatalf("dirOf collapses directions: %v", seen)
	}
	// Deterministic.
	if dirOf(123, -456) != dirOf(123, -456) {
		t.Fatal("dirOf not deterministic")
	}
}

func TestHitAtDeterministicAndBounded(t *testing.T) {
	hits := 0
	for layout := int64(0); layout < abLayouts; layout++ {
		for dir := int64(0); dir < 16; dir++ {
			for pow := int64(0); pow < 7; pow++ {
				h := hitAt(layout, dir, pow)
				if h < -1 || h >= abTargets {
					t.Fatalf("hitAt(%d,%d,%d) = %d", layout, dir, pow, h)
				}
				if h >= 0 {
					hits++
				}
			}
		}
	}
	// Roughly half the ballistic table lands on a target.
	if hits < 100 || hits > 600 {
		t.Fatalf("hit density %d of %d implausible", hits, abLayouts*16*7)
	}
}

func TestCellAtGeometry(t *testing.T) {
	if cellAt(0, 0) != -1 {
		t.Fatal("status bar should miss the board")
	}
	if got := cellAt(120+150, 640+160); got != 0 {
		t.Fatalf("first card center -> %d", got)
	}
	if got := cellAt(120+3*300+150, 640+3*320+160); got != 15 {
		t.Fatalf("last card center -> %d", got)
	}
	if cellAt(2000, 5000) != -1 {
		t.Fatal("far off-screen should miss")
	}
}

func TestCCCellAtGeometry(t *testing.T) {
	x, y := CandyCellCenter(0)
	if got := ccCellAt(x, y); got != 0 {
		t.Fatalf("cell 0 center maps to %d", got)
	}
	x, y = CandyCellCenter(63)
	if got := ccCellAt(x, y); got != 63 {
		t.Fatalf("cell 63 center maps to %d", got)
	}
	if ccCellAt(10, 10) != -1 {
		t.Fatal("HUD should miss the grid")
	}
}

func TestCandyFillAvoidsMatches(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := NewCandyCrush().(*candyCrush)
		g.Reset(seed)
		for i := 0; i < ccCols*ccRows; i++ {
			if g.matchAt(i) {
				t.Fatalf("seed %d: fresh board has a match at %d", seed, i)
			}
		}
	}
}

func TestCandyLegalSwapResolves(t *testing.T) {
	g := NewCandyCrush().(*candyCrush)
	g.Reset(3)
	a, b, ok := CandyHint(g)
	if !ok {
		t.Skip("locked board")
	}
	ax, ay := CandyCellCenter(a)
	bx, by := CandyCellCenter(b)
	dx, dy := int64(0), int64(0)
	if bx != ax {
		dx = sign64(bx-ax) * 170
	} else {
		dy = sign64(by-ay) * 170
	}
	before := g.store.Get("score")
	ev := events.New(events.Swipe, 1, 0, ax/8*8, ay/8*8, (ax+dx)/8*8, (ay+dy)/8*8, 0, 0, 16, 0, 0)
	exec := g.Process(ev, true)
	if !exec.Record.StateChanged {
		t.Fatal("hinted swap did not change state")
	}
	if g.store.Get("score") <= before {
		t.Fatal("legal swap did not score")
	}
	// The resolved board must again be match-free.
	for i := 0; i < ccCols*ccRows; i++ {
		if g.matchAt(i) {
			t.Fatalf("unresolved match at %d after cascade", i)
		}
	}
}

func sign64(v int64) int64 {
	if v < 0 {
		return -1
	}
	return 1
}

func TestGreenwallSegNear(t *testing.T) {
	// A slash through the point must hit; a distant point must not.
	if !segNear(0, 0, 100, 100, 50, 50, 10) {
		t.Fatal("point on segment missed")
	}
	if segNear(0, 0, 100, 100, 500, 0, 10) {
		t.Fatal("distant point hit")
	}
	// Endpoints count.
	if !segNear(0, 0, 100, 100, 0, 0, 5) {
		t.Fatal("endpoint missed")
	}
}

func TestGreenwallFruitPosWithinArena(t *testing.T) {
	for kind := int64(0); kind < gwWaveKinds; kind++ {
		for f := int64(0); f < gwFruit; f++ {
			for p := int64(0); p < gwWaveLen; p += 7 {
				x, y := fruitPos(kind, f, p)
				if y > screenH {
					t.Fatalf("fruit %d below floor at phase %d: y=%d", f, p, y)
				}
				if x < -400 || x > screenW+400 {
					t.Fatalf("fruit %d far off-screen: x=%d", f, x)
				}
			}
		}
	}
	// The arc peaks mid-wave (smaller y = higher on screen).
	_, yStart := fruitPos(0, 0, 0)
	_, yMid := fruitPos(0, 0, gwWaveLen/2)
	if yMid >= yStart {
		t.Fatal("parabola does not rise")
	}
}

func TestGhostHomeStable(t *testing.T) {
	x1, y1 := ghostHome(3, 1)
	x2, y2 := ghostHome(3, 1)
	if x1 != x2 || y1 != y2 {
		t.Fatal("ghostHome not deterministic")
	}
	if x1 < 0 || x1 >= cwAimBuckets || y1 < 0 || y1 >= cwAimBuckets {
		t.Fatalf("ghost outside aim space: (%d,%d)", x1, y1)
	}
	// Different seeds move the ghosts.
	x3, y3 := ghostHome(4, 1)
	if x1 == x3 && y1 == y3 {
		t.Fatal("placement ignores the seed")
	}
}

func TestColorphunScoring(t *testing.T) {
	g := NewColorphun().(*colorphun)
	g.Reset(1)
	bright := g.store.Get("brightSide")
	// Tap the bright side: +5.
	y := int64(700) // top panel
	if bright == 1 {
		y = 1900
	}
	ev := events.New(events.Tap, 1, 0, 720, y, 512, 0, 1)
	g.Process(ev, true)
	if got := g.store.Get("score"); got != 5 {
		t.Fatalf("bright-side tap scored %d, want 5", got)
	}
	// The round rolled: colors were redrawn and the animation started.
	if g.store.Get("anim") == 0 {
		t.Fatal("no transition animation after a tap")
	}
	// A margin tap changes nothing.
	before := g.StateHash()
	g.Process(events.New(events.Tap, 2, 1, 10, 10, 512, 0, 1), true)
	if g.StateHash() != before {
		t.Fatal("margin tap changed state")
	}
}

func TestMemoryGameMatchFlow(t *testing.T) {
	g := NewMemoryGame().(*memoryGame)
	g.Reset(1)
	// Find a pair by reading the (hidden) pair ids.
	var first, second int
	found := false
	for i := 0; i < memCells && !found; i++ {
		for j := i + 1; j < memCells; j++ {
			if g.store.Get(cellKey("pair", i)) == g.store.Get(cellKey("pair", j)) {
				first, second, found = i, j, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no pair on a fresh board?")
	}
	tapCell := func(idx, seq int) {
		x := int64(120 + (idx%4)*300 + 150)
		y := int64(640 + (idx/4)*320 + 160)
		g.Process(events.New(events.Tap, int64(seq), 0, x, y, 512, 0, 1), true)
	}
	tapCell(first, 1)
	tapCell(second, 2)
	if g.store.Get(cellKey("face", first)) != 2 || g.store.Get(cellKey("face", second)) != 2 {
		t.Fatal("matched cards not locked")
	}
	if g.store.Get("score") != 10 {
		t.Fatalf("score %d after a match", g.store.Get("score"))
	}
	// Tapping a matched card does nothing.
	before := g.StateHash()
	tapCell(first, 3)
	if g.StateHash() != before {
		t.Fatal("tap on matched card changed state")
	}
}

func TestRaceKingsSteeringDeadzone(t *testing.T) {
	g := NewRaceKings().(*raceKings)
	g.Reset(1)
	tilt := func(seq, beta int64) *trace.Record {
		return g.Process(events.New(events.Tilt, seq, 0, 0, beta, 0, 0, beta, 0), true).Record
	}
	if r := tilt(1, 40); r.StateChanged {
		t.Fatal("deadzone tilt changed state")
	}
	if r := tilt(2, 300); !r.StateChanged {
		t.Fatal("hard tilt ignored")
	}
	if g.store.Get("steer") != 2 {
		t.Fatalf("steer %d after hard tilt", g.store.Get("steer"))
	}
	// Same notch again: useless.
	if r := tilt(3, 310); r.StateChanged {
		t.Fatal("same-notch tilt changed state")
	}
}

func TestRaceKingsBoostAndWrap(t *testing.T) {
	g := NewRaceKings().(*raceKings)
	g.Reset(1)
	// Boost button (bottom-right corner).
	g.Process(events.New(events.Tap, 1, 0, 1300, 2400, 512, 0, 1), true)
	if g.store.Get("boost") == 0 {
		t.Fatal("boost button ignored")
	}
	// Hammering mid-boost does nothing.
	before := g.StateHash()
	g.Process(events.New(events.Tap, 2, 1, 1300, 2400, 512, 0, 1), true)
	if g.StateHash() != before {
		t.Fatal("mid-boost tap changed state")
	}
	// Drive until the lap line: a lap-sync Out.Extern must fire.
	sawSync := false
	for i := 0; i < rkTrackLen && !sawSync; i++ {
		rec := g.Process(events.New(events.VSync, int64(10+i), 0, int64(i)), true).Record
		for _, f := range rec.Outputs {
			if f.Name == "extern.lap-sync" && f.Category == trace.OutExtern {
				sawSync = true
			}
		}
	}
	if !sawSync {
		t.Fatal("no lap-sync across a full circuit")
	}
}

func TestChaseWhisplyCameraRedundancy(t *testing.T) {
	g := NewChaseWhisply().(*chaseWhisply)
	g.Reset(1)
	frame := func(seq, scene, surfaces int64) *trace.Record {
		feat := scene*1000003 + surfaces*10007 + 120
		return g.Process(events.New(events.CameraFrame, seq, 0, scene, surfaces, 120, feat), true).Record
	}
	// First frame of a new scene changes state; repeats do not.
	if r := frame(1, 104, 5); !r.StateChanged {
		t.Fatal("new scene ignored")
	}
	if r := frame(2, 104, 5); r.StateChanged {
		t.Fatal("static camera frame changed state")
	}
	// The static frame still did the heavy vision work.
	exec := g.Process(events.New(events.CameraFrame, 3, 0, 104, 5, 120, 104*1000003+5*10007+120), true)
	if len(exec.IPCalls) < 2 {
		t.Fatal("static frame skipped the ISP/DSP pipeline")
	}
}

func TestStoreBlobHashTracksMembers(t *testing.T) {
	s := NewStore()
	s.Declare("cell.a", 4, 1)
	s.Declare("cell.b", 4, 2)
	s.Declare("other", 4, 9)
	h1, size := s.HashPrefix("cell.")
	if size != 8 {
		t.Fatalf("blob size %v", size)
	}
	s.Set("cell.b", 3)
	h2, _ := s.HashPrefix("cell.")
	if h1 == h2 {
		t.Fatal("blob hash ignores member change")
	}
	s.Set("other", 10)
	h3, _ := s.HashPrefix("cell.")
	if h2 != h3 {
		t.Fatal("blob hash leaked a non-member")
	}
	// Adding a member after a hash invalidates the sorted cache.
	s.Declare("cell.c", 4, 0)
	h4, size4 := s.HashPrefix("cell.")
	if h4 == h2 || size4 != 12 {
		t.Fatalf("new member not hashed: size %v", size4)
	}
	// Re-declaring a member with a new size moves the blob size, not the
	// hash (values and names are unchanged).
	s.Declare("cell.c", 20, 0)
	h5, size5 := s.HashPrefix("cell.")
	if h5 != h4 || size5 != 28 {
		t.Fatalf("re-declared size: hash moved %v, size %v", h5 != h4, size5)
	}
	// A clone inherits the cached chains; writes on either side must
	// mark only that side's chains stale.
	c := s.Clone()
	c.Set("cell.a", 7)
	if hc, _ := c.HashPrefix("cell."); hc == h5 {
		t.Fatal("clone's write did not reach its blob hash")
	}
	if hs, _ := s.HashPrefix("cell."); hs != h5 {
		t.Fatal("clone's write leaked into the source's cached chain")
	}
	s.Set("cell.b", 2)
	c.Set("cell.a", 1)
	c.Set("cell.b", 2)
	hs, _ := s.HashPrefix("cell.")
	hc, _ := c.HashPrefix("cell.")
	if hs != hc || s.Hash() != c.Hash() {
		t.Fatal("source and clone disagree after converging writes")
	}
}

// TestCloneAddsKeysIndependently runs a source and its clone on two
// goroutines, each adding locations, so the race detector sees any
// write through the shared name index; each side must then digest
// exactly like a reference store given the same calls.
func TestCloneAddsKeysIndependently(t *testing.T) {
	s, ref := NewStore(), newRefStore()
	for _, n := range []string{"b", "d", "f"} {
		s.Declare(n, 4, 1)
		ref.Declare(n, 4, 1)
	}
	s.Hash()
	c, cref := s.Clone(), ref.Clone()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, n := range []string{"a", "c", "e"} {
			c.Set(n, 2)
			cref.Set(n, 2)
			c.Hash()
		}
	}()
	for _, n := range []string{"g", "h"} {
		s.Declare(n, 8, 3)
		ref.Declare(n, 8, 3)
		s.Hash()
	}
	<-done
	if c.Len() != 6 || s.Len() != 5 {
		t.Fatalf("locations crossed between clone and source: %d/%d", c.Len(), s.Len())
	}
	if s.Hash() != ref.Hash() || c.Hash() != cref.Hash() {
		t.Fatal("digests differ from the reference store")
	}
}

// TestCtxReadUndeclared checks that reading an undeclared location logs
// a zero-valued 8-byte input without declaring it.
func TestCtxReadUndeclared(t *testing.T) {
	s := NewStore()
	s.Declare("a", 4, 1)
	h := s.Hash()
	c := newCtx(s, events.New(events.VSync, 1, 0, 0), true)
	if v := c.Read("missing"); v != 0 {
		t.Fatalf("Read = %d", v)
	}
	in := c.rec.Inputs[0]
	if in.Name != "state.missing" || in.Size != 8 || in.Value != 0 {
		t.Fatalf("logged %+v", in)
	}
	if s.Len() != 1 || s.Hash() != h {
		t.Fatal("Read declared the location")
	}
}

// TestCtxNoLogSkipsStoreDigest: only a context that logs inputs takes the
// pre-state hash, so a store that only ever runs without logs never
// builds its whole-store digest.
func TestCtxNoLogSkipsStoreDigest(t *testing.T) {
	s := NewStore()
	s.Declare("a", 4, 1)
	newCtx(s, events.New(events.VSync, 1, 0, 0), false)
	if len(s.digests) != 0 {
		t.Fatalf("no-log context built %d digests", len(s.digests))
	}
	newCtx(s, events.New(events.VSync, 2, 0, 0), true)
	if len(s.digests) != 1 || s.digests[0].prefix != "" {
		t.Fatalf("logging context built digests %+v, want the whole-store one", s.digests)
	}
}
