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
	ccCells  = ccCols * ccRows
)

// Candy Crush's locations, in declaration order after rngState.
const (
	ccScore Var = iota + 1
	ccLevel
	ccMoves
	ccAnim
	ccCascadeRow
	ccCascadeCol
	ccCell0 // the ccCells board cells
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
	g.declare(ccScore, "score", 4, 0)
	g.declare(ccLevel, "level", 2, 1)
	g.declare(ccMoves, "moves", 2, 30)
	g.declare(ccAnim, "anim", 1, 0)             // cascade/celebration animation countdown
	g.declare(ccCascadeRow, "cascadeRow", 1, 0) // board row of the last cascade
	g.declare(ccCascadeCol, "cascadeCol", 1, 0) // board column of the last cascade
	for i := 0; i < ccCells; i++ {
		g.declare(ccCell(i), ccCellName[i], 4, 0)
	}
	g.fillBoard()
}

// ccCell returns the handle of board cell i.
func ccCell(i int) Var { return ccCell0 + Var(i) }

// ccCellName holds each board cell's location name, "cell.<row><col>"
// with rows from 'a' and columns from '0'.
var ccCellName = func() (names [ccCells]string) {
	for i := range names {
		names[i] = "cell." + string(rune('a'+i/ccCols)) + string(rune('0'+i%ccCols))
	}
	return names
}()

// fillBoard seeds the board avoiding pre-made matches (reset time).
func (g *candyCrush) fillBoard() {
	for i := 0; i < ccCells; i++ {
		for {
			col := int64(g.rnd.Intn(ccColors))
			g.store.SetAt(ccCell(i), col)
			if !g.matchAt(i) {
				break
			}
		}
	}
}

// matchAt reports whether cell i participates in a 3-run.
func (g *candyCrush) matchAt(i int) bool {
	r, c := i/ccCols, i%ccCols
	col := g.store.At(ccCell(i))
	run := func(dr, dc int) int {
		n := 0
		for k := 1; ; k++ {
			rr, cc := r+dr*k, c+dc*k
			if rr < 0 || rr >= ccRows || cc < 0 || cc >= ccCols {
				break
			}
			if g.store.At(ccCell(rr*ccCols+cc)) != col {
				break
			}
			n++
		}
		return n
	}
	return run(0, -1)+run(0, 1) >= 2 || run(-1, 0)+run(1, 0) >= 2
}

// Clone implements Game.
func (g *candyCrush) Clone(into Game) Game { return cloneGame(g, into) }

// Process implements Game.
func (g *candyCrush) Process(e *events.Event, profile *trace.Dataset) *Execution {
	c := g.ctx(e, profile)
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
		c.Temp("temp.swipe-trail", 24, trace.HashValues(x0, y0, x1, y1))
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
	if b < 0 || b >= ccCells {
		c.Temp("temp.swipe-trail", 24, trace.HashValues(x0, y0, x1, y1))
		return
	}
	// The match test reads the neighborhood of both cells — a sizable
	// In.History region.
	boardHash := c.ReadBlob("cell.")
	colA := c.Read(ccCell(a))
	colB := c.Read(ccCell(b))
	c.CPUPure("match-test", trace.Combine(boardHash, trace.HashValues(int64(a), int64(b))), 3_500_000, 64*units.KB)
	if colA == colB {
		// Swapping identical candies can never create a new match.
		c.Temp("temp.wiggle", 32, trace.HashValues(int64(a), int64(b)))
		return
	}
	// Tentatively swap and test.
	g.store.SetAt(ccCell(a), colB)
	g.store.SetAt(ccCell(b), colA)
	legal := g.matchAt(a) || g.matchAt(b)
	if !legal {
		// Revert. Nothing changed: the illegal-swap wiggle is Out.Temp.
		g.store.SetAt(ccCell(a), colA)
		g.store.SetAt(ccCell(b), colB)
		c.Temp("temp.wiggle", 32, trace.HashValues(int64(a), int64(b)))
		return
	}
	// Legal move: record the swap as outputs, resolve cascades.
	c.Write(ccCell(a), colB)
	c.Write(ccCell(b), colA)
	removed := g.resolve(c)
	c.Write(ccScore, c.Read(ccScore)+int64(removed)*20)
	c.Write(ccMoves, c.Read(ccMoves)-1)
	c.Write(ccAnim, 90)
	// Where the cascade falls drives the animation overlay's content.
	c.Write(ccCascadeRow, int64(a/ccCols))
	c.Write(ccCascadeCol, int64(a%ccCols))
	c.CPU("cascade", trace.Combine(boardHash, uint64(removed)), 9_000_000, 256*units.KB)
	c.IP(energy.AudioCodec, "crush", trace.HashValues(int64(removed)), 1200*units.Microsecond, 16*units.KB)
	c.Temp("temp.cascade-anim", 64, trace.HashValues(int64(removed)))
	if c.Read(ccMoves) <= 0 {
		c.Write(ccLevel, c.Read(ccLevel)+1)
		c.Write(ccMoves, 30)
		c.CPU("level-load", trace.HashValues(c.Read(ccLevel)), 5_000_000, 512*units.KB)
	}
}

// resolve removes all matches and refills from the traced RNG until the
// board is stable, recording cell writes. Returns candies removed.
func (g *candyCrush) resolve(c *Ctx) int {
	removed := 0
	var buf [ccCells]int
	for pass := 0; pass < 6; pass++ {
		dead := buf[:0]
		for i := 0; i < ccCells; i++ {
			if g.matchAt(i) {
				dead = append(dead, i)
			}
		}
		if len(dead) == 0 {
			break
		}
		removed += len(dead)
		for _, i := range dead {
			c.Write(ccCell(i), c.Rand(ccColors))
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
		ci, cj := cc.store.At(ccCell(i)), cc.store.At(ccCell(j))
		if ci == cj {
			return false
		}
		cc.store.SetAt(ccCell(i), cj)
		cc.store.SetAt(ccCell(j), ci)
		legal := cc.matchAt(i) || cc.matchAt(j)
		cc.store.SetAt(ccCell(i), ci)
		cc.store.SetAt(ccCell(j), cj)
		return legal
	}
	for i := 0; i < ccCells; i++ {
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
	c.Temp("temp.highlight", 16, trace.HashValues(x, y))
}

func (g *candyCrush) vsync(c *Ctx) {
	boardHash := c.ReadBlob("cell.")
	anim := c.Read(ccAnim)
	score := c.Read(ccScore)
	frameHash := trace.Combine(boardHash, trace.HashValues(anim, score))
	c.CPU("compose-ui", frameHash, 16_000_000, 512*units.KB)
	c.IP(energy.GPU, "render", frameHash, 4200*units.Microsecond, 2*units.MB)
	// Screen delta: the cascade/celebration overlay while it runs; the
	// settled board redraws identically.
	if anim > 0 {
		c.Temp("temp.overlay.cascade", 40,
			trace.HashValues(anim, c.Read(ccCascadeRow), c.Read(ccCascadeCol)))
		c.Write(ccAnim, anim-1)
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

// Greenwall's locations, in declaration order after rngState.
const (
	gwScore Var = iota + 1
	gwCombo
	gwWaveKind
	gwWavePhase
	gwGap
	gwSliced
	gwFruitSet
	gwWave
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
	g.declare(gwScore, "score", 4, 0)
	g.declare(gwCombo, "combo", 1, 0)
	g.declare(gwWaveKind, "waveKind", 1, 0)
	g.declare(gwWavePhase, "wavePhase", 2, 0) // 0..gwWaveLen during a wave
	g.declare(gwGap, "gap", 1, 1)             // 1 = between waves ("slice to start"), 0 = wave flying
	g.declare(gwSliced, "sliced", 1, 0)       // bitmask of sliced fruit in the current wave
	g.declare(gwFruitSet, "fruitSet", 1, 0)   // which fruit sprites fly this wave
	g.declare(gwWave, "wave", 2, 0)
}

// Clone implements Game.
func (g *greenwall) Clone(into Game) Game { return cloneGame(g, into) }

// Process implements Game.
func (g *greenwall) Process(e *events.Event, profile *trace.Dataset) *Execution {
	c := g.ctx(e, profile)
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
	kind := c.Read(gwWaveKind)
	phase := c.Read(gwWavePhase)
	gap := c.Read(gwGap)
	sliced := c.Read(gwSliced)
	c.CPUPure("slice-test", trace.HashValues(x0, y0, x1, y1, kind, phase, sliced), 5_200_000, 32*units.KB)
	c.Temp("temp.blade-trail", 40, trace.HashValues(x0, y0, x1, y1))
	if gap > 0 {
		// "Slice to start": the first swipe after a wave ends launches
		// the next wave with a traced-RNG kind.
		c.Write(gwGap, 0)
		c.Write(gwWavePhase, 0)
		c.Write(gwSliced, 0)
		c.Write(gwCombo, 0)
		c.Write(gwWaveKind, c.Rand(gwWaveKinds))
		c.Write(gwFruitSet, c.Rand(40))
		c.Write(gwWave, c.Read(gwWave)+1)
		c.CPUPure("wave-launch", trace.HashValues(c.Read(gwWave)), 1_500_000, 32*units.KB)
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
	c.Write(gwSliced, newMask)
	combo := c.Read(gwCombo) + int64(hits)
	c.Write(gwCombo, combo)
	c.Write(gwScore, c.Read(gwScore)+int64(hits)*15*max64(combo, 1))
	c.CPU("splash", trace.HashValues(newMask, int64(hits)), 3_200_000, 128*units.KB)
	c.IP(energy.AudioCodec, "slice", trace.HashValues(int64(hits)), 800*units.Microsecond, 8*units.KB)
	c.Temp("temp.splash-anim", 96, trace.HashValues(newMask))
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
	kind := c.Read(gwWaveKind)
	phase := c.Read(gwWavePhase)
	gap := c.Read(gwGap)
	sliced := c.Read(gwSliced)
	score := c.Read(gwScore)
	frameHash := trace.HashValues(kind, phase, gap, sliced, score)
	c.CPU("physics", frameHash, 8_000_000, 128*units.KB)
	c.CPU("compose-ui", frameHash, 10_000_000, 384*units.KB)
	c.IP(energy.GPU, "render", frameHash, 4600*units.Microsecond, 2*units.MB)
	// Screen delta: flying fruit. Between waves the "slice to start"
	// banner is static.
	if gap == 0 {
		c.Temp("temp.overlay.fruit", 48, trace.HashValues(kind, phase, sliced, c.Read(gwFruitSet)))
	}
	switch {
	case gap > 0:
		// Between waves the "slice to start" banner is static: the frame
		// is re-composed and re-rendered with no change — useless.
	case phase < gwWaveLen-1:
		c.Write(gwWavePhase, phase+1)
	default:
		// Wave over: unsliced fruit falls away; await the next swipe.
		c.Write(gwGap, 1)
		c.Write(gwWavePhase, 0)
	}
}
