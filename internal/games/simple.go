package games

import (
	"snip/internal/energy"
	"snip/internal/events"
	"snip/internal/trace"
	"snip/internal/units"
)

// Screen geometry of the simulated Pixel XL.
const (
	screenW = 1440
	screenH = 2560
)

// ---------------------------------------------------------------------------
// Colorphun — the paper's "simple touch based game" [10]: two colored
// panels, tap the brighter one to score. Light on compute; display and UI
// composition dominate its energy.
// ---------------------------------------------------------------------------

// Colorphun's locations, in declaration order after rngState.
const (
	cpScore Var = iota + 1
	cpRound
	cpColorTop
	cpColorBot
	cpBrightSide
	cpPulse
	cpAnim
)

type colorphun struct {
	base
}

// NewColorphun builds the Colorphun workload.
func NewColorphun() Game {
	g := &colorphun{base: newBase("Colorphun", []events.Type{events.Tap, events.VSync})}
	g.Reset(1)
	return g
}

// Reset implements Game.
func (g *colorphun) Reset(seed uint64) {
	g.resetBase(seed)
	g.declare(cpScore, "score", 4, 0)
	g.declare(cpRound, "round", 4, 1)
	g.declare(cpColorTop, "colorTop", 2, 3) // palette index 0..7
	g.declare(cpColorBot, "colorBot", 2, 7) // palette index 0..7
	g.declare(cpBrightSide, "brightSide", 1, 0)
	g.declare(cpPulse, "pulse", 2, 0) // glow animation phase 0..39
	g.declare(cpAnim, "anim", 1, 0)   // post-tap transition countdown frames
}

// Clone implements Game.
func (g *colorphun) Clone() Game {
	c := *g
	c.base = g.cloneBase()
	return &c
}

// Process implements Game.
func (g *colorphun) Process(e *events.Event, profile *trace.Dataset) *Execution {
	c := g.ctx(e, profile)
	switch e.Type {
	case events.Tap:
		g.tap(c, e)
	case events.VSync:
		g.vsync(c)
	default:
		g.errUnhandled(e)
	}
	return c.finish()
}

func (g *colorphun) tap(c *Ctx, e *events.Event) {
	x := c.Event(e, "x")
	y := c.Event(e, "y")
	// Hit-test always runs: the app cannot know in advance that a tap
	// missed both panels.
	c.CPUPure("hit-test", trace.HashValues(x, y), 900_000, 8*units.KB)
	if x < 100 || x > screenW-100 || y < 260 || y > screenH-260 {
		// Status bar / margins: nothing happens. A classic useless event.
		c.Temp("temp.tap-ripple", 16, trace.HashValues(x, y))
		return
	}
	side := int64(0) // top
	if y >= screenH/2 {
		side = 1
	}
	bright := c.Read(cpBrightSide)
	score := c.Read(cpScore)
	if side == bright {
		score += 5
	} else {
		score -= 3
		if score < 0 {
			score = 0
		}
	}
	c.Write(cpScore, score)
	// New round: fresh palette colors and bright side.
	top := c.Rand(8)
	bot := c.Rand(8)
	bright = c.Rand(2)
	c.Write(cpColorTop, top)
	c.Write(cpColorBot, bot)
	c.Write(cpBrightSide, bright)
	c.Write(cpRound, c.Read(cpRound)+1)
	// The new panels fade in over ~0.8s of animated frames.
	c.Write(cpAnim, 56)
	c.CPUPure("update-round", trace.HashValues(score, top, bot, bright), 2_400_000, 32*units.KB)
	c.IP(energy.AudioCodec, "blip", trace.HashValues(side, bright), 600*units.Microsecond, 4*units.KB)
	c.Temp("temp.score-popup", 24, uint64(score))
}

func (g *colorphun) vsync(c *Ctx) {
	// The UI re-composes and re-renders every frame — games do not use
	// damage-rect optimizations the way widget apps do, which is exactly
	// why they drain the battery (paper Fig. 3).
	top := c.Read(cpColorTop)
	bot := c.Read(cpColorBot)
	pulse := c.Read(cpPulse)
	anim := c.Read(cpAnim)
	score := c.Read(cpScore)
	frameHash := trace.HashValues(top, bot, pulse, anim, score)
	c.CPU("compose-ui", frameHash, 14_000_000, 256*units.KB)
	c.IP(energy.GPU, "render", frameHash, 1700*units.Microsecond, 900*units.KB)
	// Out.Temp carries only what CHANGES on screen this frame: the glow
	// overlay while the fade-in animation runs. A settled frame redraws
	// identical pixels, so skipping it alters nothing the user sees —
	// that is exactly why those events are "useless".
	if anim > 0 {
		// The fade tints toward the incoming top-panel color.
		c.Temp("temp.overlay.glow", 40, trace.HashValues(pulse, anim, top))
		c.Write(cpAnim, anim-1)
		c.Write(cpPulse, (pulse+1)%40)
	}
}

// ---------------------------------------------------------------------------
// Memory Game — the open-source card matching game [30]: a 4×4 board of
// face-down pairs; flip two, keep matches. Taps on matched or face-up
// cards do nothing, and idle frames re-render an unchanged board.
// ---------------------------------------------------------------------------

const (
	memCols  = 4
	memRows  = 4
	memCells = memCols * memRows
)

// Memory Game's locations, in declaration order after rngState.
const (
	memScore Var = iota + 1
	memMatches
	memFlipped1
	memAnim
	memPend1
	memPend2
	memSparkle
	memRound
	memPair0 // memCells pair ids, then memCells faces
	memFace0 = memPair0 + memCells
)

type memoryGame struct {
	base
}

// NewMemoryGame builds the Memory Game workload.
func NewMemoryGame() Game {
	g := &memoryGame{base: newBase("MemoryGame", []events.Type{events.Tap, events.VSync})}
	g.Reset(1)
	return g
}

// Reset implements Game.
func (g *memoryGame) Reset(seed uint64) {
	g.resetBase(seed)
	g.declare(memScore, "score", 4, 0)
	g.declare(memMatches, "matches", 1, 0)
	g.declare(memFlipped1, "flipped1", 1, -1) // index of the single face-up card, or -1
	g.declare(memAnim, "anim", 1, 0)          // flip-back countdown
	g.declare(memPend1, "pend1", 1, -1)       // cards to flip back when anim hits 0
	g.declare(memPend2, "pend2", 1, -1)
	g.declare(memSparkle, "sparkle", 1, 0) // attract animation countdown after a flip
	g.declare(memRound, "round", 2, 1)
	// Pair ids are laid out then shuffled with the traced RNG at declare
	// time via a fixed derangement from the seed.
	for i := 0; i < memCells; i++ {
		g.declare(memPair(i), memPairName[i], 24, int64(i/2))
	}
	for i := 0; i < memCells; i++ {
		g.declare(memFace(i), memFaceName[i], 24, 0) // 0 down, 1 up, 2 matched
	}
	g.shuffleBoard(seed)
}

// memPair and memFace return the handles of card i's pair id and face.
func memPair(i int) Var { return memPair0 + Var(i) }
func memFace(i int) Var { return memFace0 + Var(i) }

// memPairName and memFaceName hold each card's location names,
// "pair.<row><col>" and "face.<row><col>" with rows from 'a' and
// columns from '0'.
var memPairName, memFaceName = memCellNames("pair."), memCellNames("face.")

func memCellNames(prefix string) (names [memCells]string) {
	for i := range names {
		names[i] = prefix + string(rune('a'+i/memCols)) + string(rune('0'+i%memCols))
	}
	return names
}

// shuffleBoard permutes pair ids deterministically from the seed (reset
// time; not a traced execution).
func (g *memoryGame) shuffleBoard(seed uint64) {
	r := g.rnd
	ids := make([]int64, memCells)
	for i := range ids {
		ids[i] = int64(i / 2)
	}
	r.Shuffle(memCells, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for i, id := range ids {
		g.store.SetAt(memPair(i), id)
	}
	_ = seed
}

// Clone implements Game.
func (g *memoryGame) Clone() Game {
	c := *g
	c.base = g.cloneBase()
	return &c
}

// Process implements Game.
func (g *memoryGame) Process(e *events.Event, profile *trace.Dataset) *Execution {
	c := g.ctx(e, profile)
	switch e.Type {
	case events.Tap:
		g.tap(c, e)
	case events.VSync:
		g.vsync(c)
	default:
		g.errUnhandled(e)
	}
	return c.finish()
}

// cellAt maps screen coordinates to a board cell, or -1.
func cellAt(x, y int64) int {
	const boardX, boardY, cellW, cellH = 120, 640, 300, 320
	cx := (x - boardX) / cellW
	cy := (y - boardY) / cellH
	if x < boardX || y < boardY || cx < 0 || cx >= memCols || cy < 0 || cy >= memRows {
		return -1
	}
	return int(cy)*memCols + int(cx)
}

func (g *memoryGame) tap(c *Ctx, e *events.Event) {
	x := c.Event(e, "x")
	y := c.Event(e, "y")
	c.CPUPure("hit-test", trace.HashValues(x, y), 2_400_000, 8*units.KB)
	idx := cellAt(x, y)
	if idx < 0 {
		c.Temp("temp.tap-ripple", 16, trace.HashValues(x, y))
		return // outside the board: useless
	}
	face := c.Read(memFace(idx))
	anim := c.Read(memAnim)
	c.CPUPure("rule-check", trace.HashValues(int64(idx), face, anim), 700_000, 4*units.KB)
	if face != 0 || anim > 0 {
		// Tapping a matched/face-up card, or tapping while the flip-back
		// animation runs, does nothing — the game's main useless events.
		c.Temp("temp.tap-ripple", 16, trace.HashValues(x, y))
		return
	}
	flipped1 := c.Read(memFlipped1)
	c.Write(memFace(idx), 1)
	// Every successful flip restarts the attract "sparkle" animation that
	// plays while the player thinks about the next move.
	c.Write(memSparkle, 64)
	c.Temp("temp.flip-anim", 40, trace.HashValues(int64(idx)))
	if flipped1 < 0 {
		c.Write(memFlipped1, int64(idx))
		return
	}
	// Second card: compare pair ids.
	idA := c.Read(memPair(int(flipped1)))
	idB := c.Read(memPair(idx))
	c.CPUPure("match-check", trace.HashValues(idA, idB), 1_600_000, 16*units.KB)
	c.Write(memFlipped1, -1)
	if idA == idB {
		c.Write(memFace(int(flipped1)), 2)
		c.Write(memFace(idx), 2)
		matches := c.Read(memMatches) + 1
		c.Write(memMatches, matches)
		c.Write(memScore, c.Read(memScore)+10)
		c.IP(energy.AudioCodec, "match-jingle", trace.HashValues(idA), 900*units.Microsecond, 8*units.KB)
		if matches >= memCells/2 {
			// Board cleared: reshuffle a fresh round.
			c.Write(memMatches, 0)
			c.Write(memRound, c.Read(memRound)+1)
			for i := 0; i < memCells; i++ {
				c.Write(memPair(i), c.Rand(memCells/2))
				c.Write(memFace(i), 0)
			}
			c.CPU("new-round", trace.HashValues(c.Read(memRound)), 2_000_000, 64*units.KB)
		}
	} else {
		// Mismatch: show both briefly, then flip back.
		c.Write(memAnim, 14)
		c.Write(memPend1, flipped1)
		c.Write(memPend2, int64(idx))
		c.IP(energy.AudioCodec, "buzz", trace.HashValues(idA, idB), 500*units.Microsecond, 4*units.KB)
	}
}

func (g *memoryGame) vsync(c *Ctx) {
	boardHash := c.ReadBlob("face.")
	anim := c.Read(memAnim)
	sparkle := c.Read(memSparkle)
	score := c.Read(memScore)
	frameHash := trace.Combine(boardHash, trace.HashValues(anim, sparkle, score))
	c.CPU("compose-ui", frameHash, 13_000_000, 320*units.KB)
	c.IP(energy.GPU, "render", frameHash, 2200*units.Microsecond, 1100*units.KB)
	// The screen delta: the sparkle/flip-back tween overlay, present only
	// while those animations run.
	if anim > 0 || sparkle > 0 {
		c.Temp("temp.overlay.tween", 40, trace.HashValues(anim, sparkle, c.Read(memPend1), c.Read(memPend2)))
	}
	if sparkle > 0 {
		c.Write(memSparkle, sparkle-1)
	}
	if anim > 0 {
		c.Write(memAnim, anim-1)
		if anim == 1 {
			p1 := c.Read(memPend1)
			p2 := c.Read(memPend2)
			if p1 >= 0 {
				c.Write(memFace(int(p1)), 0)
				c.Write(memFace(int(p2)), 0)
				c.Write(memPend1, -1)
				c.Write(memPend2, -1)
			}
		}
	}
	// Frames with anim == 0 write nothing: useless re-renders.
}
