package games

import (
	"snip/internal/energy"
	"snip/internal/events"
	"snip/internal/trace"
	"snip/internal/units"
)

// ---------------------------------------------------------------------------
// Candy Crush — the paper's swipe-based match-3 [31]: swipe two adjacent
// candies; a swap that creates a 3-in-a-row resolves and refills, an
// illegal swap just wiggles back. Illegal swaps (frequent for casual
// players) change no state — useless events.
// ---------------------------------------------------------------------------

const (
	ccCols   = 8
	ccRows   = 8
	ccColors = 5
)

type candyCrush struct {
	base
}

// NewCandyCrush builds the Candy Crush workload.
func NewCandyCrush() Game {
	g := &candyCrush{base: newBase("CandyCrush", []events.Type{events.Swipe, events.Tap, events.VSync})}
	g.Reset(1)
	return g
}

// Reset implements Game.
func (g *candyCrush) Reset(seed uint64) {
	g.resetBase(seed)
	s := g.store
	s.Declare("rngstate", 8, int64(seed|1))
	s.Declare("score", 4, 0)
	s.Declare("level", 2, 1)
	s.Declare("moves", 2, 30)
	s.Declare("anim", 1, 0)       // cascade/celebration animation countdown
	s.Declare("cascadeRow", 1, 0) // board row of the last cascade
	s.Declare("cascadeCol", 1, 0) // board column of the last cascade
	for i := 0; i < ccCols*ccRows; i++ {
		s.Declare(ccKey(i), 4, 0)
	}
	g.fillBoard()
}

func ccKey(i int) string {
	return "cell." + string(rune('a'+i/ccCols)) + string(rune('0'+i%ccCols))
}

// fillBoard seeds the board avoiding pre-made matches (reset time).
func (g *candyCrush) fillBoard() {
	for i := 0; i < ccCols*ccRows; i++ {
		for {
			col := int64(g.rnd.Intn(ccColors))
			g.store.Set(ccKey(i), col)
			if !g.matchAt(i) {
				break
			}
		}
	}
}

// matchAt reports whether cell i participates in a 3-run.
func (g *candyCrush) matchAt(i int) bool {
	r, c := i/ccCols, i%ccCols
	col := g.store.Get(ccKey(i))
	run := func(dr, dc int) int {
		n := 0
		for k := 1; ; k++ {
			rr, cc := r+dr*k, c+dc*k
			if rr < 0 || rr >= ccRows || cc < 0 || cc >= ccCols {
				break
			}
			if g.store.Get(ccKey(rr*ccCols+cc)) != col {
				break
			}
			n++
		}
		return n
	}
	return run(0, -1)+run(0, 1) >= 2 || run(-1, 0)+run(1, 0) >= 2
}

// Clone implements Game.
func (g *candyCrush) Clone() Game {
	c := *g
	c.base = g.cloneBase()
	return &c
}

// Process implements Game.
func (g *candyCrush) Process(e *events.Event, logInputs bool) *Execution {
	c := g.ctx(e, logInputs)
	switch e.Type {
	case events.Swipe:
		g.swipe(c, e)
	case events.Tap:
		g.tap(c, e)
	case events.VSync:
		g.vsync(c)
	default:
		g.errUnhandled(e)
	}
	return c.finish()
}

// boardCell maps screen coordinates into the candy grid, or -1.
func ccCellAt(x, y int64) int {
	const bx, by, cw, ch = 80, 560, 160, 160
	cx := (x - bx) / cw
	cy := (y - by) / ch
	if x < bx || y < by || cx < 0 || cx >= ccCols || cy < 0 || cy >= ccRows {
		return -1
	}
	return int(cy)*ccCols + int(cx)
}

func (g *candyCrush) swipe(c *Ctx, e *events.Event) {
	x0 := c.Event(e, "x0")
	y0 := c.Event(e, "y0")
	x1 := c.Event(e, "x1")
	y1 := c.Event(e, "y1")
	c.CPUPure("gesture-decode", trace.HashValues(x0, y0, x1, y1), 1_800_000, 16*units.KB)
	a := ccCellAt(x0, y0)
	if a < 0 {
		c.Temp("swipe-trail", 24, trace.HashValues(x0, y0, x1, y1))
		return // swipe outside the board
	}
	// Direction from the dominant axis.
	dx, dy := x1-x0, y1-y0
	var b int
	switch {
	case dx >= dy && dx >= -dy: // right
		b = a + 1
		if a%ccCols == ccCols-1 {
			b = -1
		}
	case dx < dy && dx >= -dy: // down
		b = a + ccCols
	case dx >= dy: // up
		b = a - ccCols
	default: // left
		b = a - 1
		if a%ccCols == 0 {
			b = -1
		}
	}
	if b < 0 || b >= ccCols*ccRows {
		c.Temp("swipe-trail", 24, trace.HashValues(x0, y0, x1, y1))
		return
	}
	// The match test reads the neighborhood of both cells — a sizable
	// In.History region.
	boardHash := c.ReadBlob("cell.")
	colA := c.Read(ccKey(a))
	colB := c.Read(ccKey(b))
	c.CPUPure("match-test", trace.Combine(boardHash, trace.HashValues(int64(a), int64(b))), 3_500_000, 64*units.KB)
	if colA == colB {
		// Swapping identical candies can never create a new match.
		c.Temp("wiggle", 32, trace.HashValues(int64(a), int64(b)))
		return
	}
	// Tentatively swap and test.
	g.store.Set(ccKey(a), colB)
	g.store.Set(ccKey(b), colA)
	legal := g.matchAt(a) || g.matchAt(b)
	if !legal {
		// Revert. Nothing changed: the illegal-swap wiggle is Out.Temp.
		g.store.Set(ccKey(a), colA)
		g.store.Set(ccKey(b), colB)
		c.Temp("wiggle", 32, trace.HashValues(int64(a), int64(b)))
		return
	}
	// Legal move: record the swap as outputs, resolve cascades.
	c.Write(ccKey(a), colB)
	c.Write(ccKey(b), colA)
	removed := g.resolve(c)
	c.Write("score", c.Read("score")+int64(removed)*20)
	c.Write("moves", c.Read("moves")-1)
	c.Write("anim", 90)
	// Where the cascade falls drives the animation overlay's content.
	c.Write("cascadeRow", int64(a/ccCols))
	c.Write("cascadeCol", int64(a%ccCols))
	c.CPU("cascade", trace.Combine(boardHash, uint64(removed)), 9_000_000, 256*units.KB)
	c.IP(energy.AudioCodec, "crush", trace.HashValues(int64(removed)), 1200*units.Microsecond, 16*units.KB)
	c.Temp("cascade-anim", 64, trace.HashValues(int64(removed)))
	if c.Read("moves") <= 0 {
		c.Write("level", c.Read("level")+1)
		c.Write("moves", 30)
		c.CPU("level-load", trace.HashValues(c.Read("level")), 5_000_000, 512*units.KB)
	}
}

// resolve removes all matches and refills from the traced RNG until the
// board is stable, recording cell writes. Returns candies removed.
func (g *candyCrush) resolve(c *Ctx) int {
	removed := 0
	for pass := 0; pass < 6; pass++ {
		var dead []int
		for i := 0; i < ccCols*ccRows; i++ {
			if g.matchAt(i) {
				dead = append(dead, i)
			}
		}
		if len(dead) == 0 {
			break
		}
		removed += len(dead)
		for _, i := range dead {
			c.Write(ccKey(i), c.Rand(ccColors))
		}
	}
	return removed
}

// CandyHint scans the board for the first legal swap, the way the game's
// own hint engine does (and the way a player's eyes do). It returns the
// cell indices of the move, or ok=false if the board is locked. Exported
// for the closed-loop user-behaviour model in internal/workload.
func CandyHint(g Game) (a, b int, ok bool) {
	cc, isCC := g.(*candyCrush)
	if !isCC {
		return 0, 0, false
	}
	try := func(i, j int) bool {
		ci, cj := cc.store.Get(ccKey(i)), cc.store.Get(ccKey(j))
		if ci == cj {
			return false
		}
		cc.store.Set(ccKey(i), cj)
		cc.store.Set(ccKey(j), ci)
		legal := cc.matchAt(i) || cc.matchAt(j)
		cc.store.Set(ccKey(i), ci)
		cc.store.Set(ccKey(j), cj)
		return legal
	}
	for i := 0; i < ccCols*ccRows; i++ {
		if i%ccCols < ccCols-1 && try(i, i+1) {
			return i, i + 1, true
		}
		if i/ccCols < ccRows-1 && try(i, i+ccCols) {
			return i, i + ccCols, true
		}
	}
	return 0, 0, false
}

// CandyCellCenter returns the screen center of a board cell — the point a
// player aiming at that candy touches.
func CandyCellCenter(i int) (x, y int64) {
	const bx, by, cw, ch = 80, 560, 160, 160
	return bx + int64(i%ccCols)*cw + cw/2, by + int64(i/ccCols)*ch + ch/2
}

func (g *candyCrush) tap(c *Ctx, e *events.Event) {
	// Taps just select a candy (highlight): a Temp-only interaction.
	x := c.Event(e, "x")
	y := c.Event(e, "y")
	c.CPUPure("hit-test", trace.HashValues(x, y), 900_000, 8*units.KB)
	c.Temp("highlight", 16, trace.HashValues(x, y))
}

func (g *candyCrush) vsync(c *Ctx) {
	boardHash := c.ReadBlob("cell.")
	anim := c.Read("anim")
	score := c.Read("score")
	frameHash := trace.Combine(boardHash, trace.HashValues(anim, score))
	c.CPU("compose-ui", frameHash, 16_000_000, 512*units.KB)
	c.IP(energy.GPU, "render", frameHash, 4200*units.Microsecond, 2*units.MB)
	// Screen delta: the cascade/celebration overlay while it runs; the
	// settled board redraws identically.
	if anim > 0 {
		c.Temp("overlay.cascade", 40,
			trace.HashValues(anim, c.Read("cascadeRow"), c.Read("cascadeCol")))
		c.Write("anim", anim-1)
	}
}

// ---------------------------------------------------------------------------
// Greenwall — the open-source Fruit-Ninja-style game [32, 33]: fruit is
// flung up in scripted waves; the player slices it with swipes. Missed
// swipes (very common while flailing) change nothing.
// ---------------------------------------------------------------------------

const (
	gwWaveKinds = 3  // distinct wave trajectories
	gwWaveLen   = 96 // frames per wave
	gwFruit     = 5  // fruit per wave
)

type greenwall struct {
	base
}

// NewGreenwall builds the Greenwall workload.
func NewGreenwall() Game {
	g := &greenwall{base: newBase("Greenwall", []events.Type{events.Swipe, events.VSync})}
	g.Reset(1)
	return g
}

// Reset implements Game.
func (g *greenwall) Reset(seed uint64) {
	g.resetBase(seed)
	s := g.store
	s.Declare("rngstate", 8, int64(seed|1))
	s.Declare("score", 4, 0)
	s.Declare("combo", 1, 0)
	s.Declare("waveKind", 1, 0)
	s.Declare("wavePhase", 2, 0) // 0..gwWaveLen during a wave
	s.Declare("gap", 1, 1)       // 1 = between waves ("slice to start"), 0 = wave flying
	s.Declare("sliced", 1, 0)    // bitmask of sliced fruit in the current wave
	s.Declare("fruitSet", 1, 0)  // which fruit sprites fly this wave
	s.Declare("wave", 2, 0)
}

// Clone implements Game.
func (g *greenwall) Clone() Game {
	c := *g
	c.base = g.cloneBase()
	return &c
}

// Process implements Game.
func (g *greenwall) Process(e *events.Event, logInputs bool) *Execution {
	c := g.ctx(e, logInputs)
	switch e.Type {
	case events.Swipe:
		g.swipe(c, e)
	case events.VSync:
		g.vsync(c)
	default:
		g.errUnhandled(e)
	}
	return c.finish()
}

// fruitPos returns the deterministic position of fruit f at phase p for a
// wave kind: parabolic arcs spread across the screen.
func fruitPos(kind, f, p int64) (x, y int64) {
	x0 := 160 + f*260 + kind*40
	vx := (f%3 - 1) * 3
	x = x0 + vx*p
	// Parabola peaking mid-wave.
	h := int64(1800) + kind*150 + f*60
	half := int64(gwWaveLen / 2)
	dy := (p - half) * (p - half) * h / (half * half)
	y = screenH - 300 - (h - dy)
	return x, y
}

func (g *greenwall) swipe(c *Ctx, e *events.Event) {
	x0 := c.Event(e, "x0")
	y0 := c.Event(e, "y0")
	x1 := c.Event(e, "x1")
	y1 := c.Event(e, "y1")
	kind := c.Read("waveKind")
	phase := c.Read("wavePhase")
	gap := c.Read("gap")
	sliced := c.Read("sliced")
	c.CPUPure("slice-test", trace.HashValues(x0, y0, x1, y1, kind, phase, sliced), 5_200_000, 32*units.KB)
	c.Temp("blade-trail", 40, trace.HashValues(x0, y0, x1, y1))
	if gap > 0 {
		// "Slice to start": the first swipe after a wave ends launches
		// the next wave with a traced-RNG kind.
		c.Write("gap", 0)
		c.Write("wavePhase", 0)
		c.Write("sliced", 0)
		c.Write("combo", 0)
		c.Write("waveKind", c.Rand(gwWaveKinds))
		c.Write("fruitSet", c.Rand(40))
		c.Write("wave", c.Read("wave")+1)
		c.CPUPure("wave-launch", trace.HashValues(c.Read("wave")), 1_500_000, 32*units.KB)
		return
	}
	hits := 0
	newMask := sliced
	for f := int64(0); f < gwFruit; f++ {
		if sliced&(1<<f) != 0 {
			continue
		}
		fx, fy := fruitPos(kind, f, phase)
		if segNear(x0, y0, x1, y1, fx, fy, 140) {
			newMask |= 1 << f
			hits++
		}
	}
	if hits == 0 {
		return // missed everything: useless
	}
	c.Write("sliced", newMask)
	combo := c.Read("combo") + int64(hits)
	c.Write("combo", combo)
	c.Write("score", c.Read("score")+int64(hits)*15*max64(combo, 1))
	c.CPU("splash", trace.HashValues(newMask, int64(hits)), 3_200_000, 128*units.KB)
	c.IP(energy.AudioCodec, "slice", trace.HashValues(int64(hits)), 800*units.Microsecond, 8*units.KB)
	c.Temp("splash-anim", 96, trace.HashValues(newMask))
}

// segNear reports whether point (px,py) is within dist of segment
// (x0,y0)-(x1,y1), using a coarse sampled test (as the game itself would).
func segNear(x0, y0, x1, y1, px, py, dist int64) bool {
	for i := int64(0); i <= 8; i++ {
		sx := x0 + (x1-x0)*i/8
		sy := y0 + (y1-y0)*i/8
		dx, dy := sx-px, sy-py
		if dx*dx+dy*dy <= dist*dist {
			return true
		}
	}
	return false
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (g *greenwall) vsync(c *Ctx) {
	kind := c.Read("waveKind")
	phase := c.Read("wavePhase")
	gap := c.Read("gap")
	sliced := c.Read("sliced")
	score := c.Read("score")
	frameHash := trace.HashValues(kind, phase, gap, sliced, score)
	c.CPU("physics", frameHash, 8_000_000, 128*units.KB)
	c.CPU("compose-ui", frameHash, 10_000_000, 384*units.KB)
	c.IP(energy.GPU, "render", frameHash, 4600*units.Microsecond, 2*units.MB)
	// Screen delta: flying fruit. Between waves the "slice to start"
	// banner is static.
	if gap == 0 {
		c.Temp("overlay.fruit", 48, trace.HashValues(kind, phase, sliced, c.Read("fruitSet")))
	}
	switch {
	case gap > 0:
		// Between waves the "slice to start" banner is static: the frame
		// is re-composed and re-rendered with no change — useless.
	case phase < gwWaveLen-1:
		c.Write("wavePhase", phase+1)
	default:
		// Wave over: unsliced fruit falls away; await the next swipe.
		c.Write("gap", 1)
		c.Write("wavePhase", 0)
	}
}
