package games

import (
	"snip/internal/energy"
	"snip/internal/events"
	"snip/internal/trace"
	"snip/internal/units"
)

// ---------------------------------------------------------------------------
// AB Evolution (Angry Birds Evolution [15]) — the paper's running example:
// drag to stretch the catapult, release to fire, heavy 3D physics while
// the projectile flies. "When the catapult is stretched to the maximum,
// no matter what the user swipe action is, it has no effect" — the source
// of the paper's highest useless-event rate (43%).
// ---------------------------------------------------------------------------

const (
	abMaxStretch = 25 // stretch is quantized to 0..25 notches
	abFlightLen  = 60 // frames a shot flies
	abLayouts    = 6  // distinct target layouts
	abTargets    = 6  // targets per layout
)

// AB Evolution's locations, in declaration order after rngState.
const (
	abScore Var = iota + 1
	abLevel
	abLayout
	abTargetMask
	abStretch
	abAimDir
	abFlying
	abFlightPhase
	abShotDir
	abShotPow
	abShotSpin
	abAnim
	abCamTilt
	abTerrainMesh
)

type abEvolution struct {
	base
}

// NewABEvolution builds the AB Evolution workload.
func NewABEvolution() Game {
	g := &abEvolution{base: newBase("ABEvolution",
		[]events.Type{events.Drag, events.Swipe, events.Tap, events.Tilt, events.VSync})}
	g.Reset(1)
	return g
}

// Reset implements Game.
func (g *abEvolution) Reset(seed uint64) {
	g.resetBase(seed)
	g.declare(abScore, "score", 4, 0)
	g.declare(abLevel, "level", 2, 1)
	g.declare(abLayout, "layout", 1, int64(seed%abLayouts))
	g.declare(abTargetMask, "targetMask", 1, (1<<abTargets)-1) // alive targets
	g.declare(abStretch, "stretch", 1, 0)                      // catapult notches 0..abMaxStretch
	g.declare(abAimDir, "aimDir", 1, 0)                        // quantized launch direction 0..15
	g.declare(abFlying, "flying", 1, 0)
	g.declare(abFlightPhase, "flightPhase", 1, 0)
	g.declare(abShotDir, "shotDir", 1, 0)
	g.declare(abShotPow, "shotPow", 1, 0)   // quantized power 0..7
	g.declare(abShotSpin, "shotSpin", 1, 0) // bird tumble animation variant
	g.declare(abAnim, "anim", 1, 0)         // hit/celebration animation countdown
	g.declare(abCamTilt, "camTilt", 1, 0)   // camera angle from device tilt, coarse
	// The level terrain mesh is a large In.History blob the renderer
	// reads every frame (the paper's 119 kB History inputs).
	g.declare(abTerrainMesh, "terrainMesh", 96*units.KB, int64(trace.HashValues(1, int64(seed%abLayouts))))
}

// Clone implements Game.
func (g *abEvolution) Clone() Game {
	c := *g
	c.base = g.cloneBase()
	return &c
}

// Overrides implements Game: the AB Evolution developers mark the fields
// the impact handler branches on. The flight/impact path runs on ~2% of
// frames, too rare for a short profile to teach PFI its dependencies —
// without these, phantom shots cascade through the state.
func (g *abEvolution) Overrides() []string {
	return []string{"state.flying", "state.shotDir", "state.layout"}
}

// Process implements Game.
func (g *abEvolution) Process(e *events.Event, profile *trace.Dataset) *Execution {
	c := g.ctx(e, profile)
	switch e.Type {
	case events.Drag:
		g.drag(c, e)
	case events.Swipe:
		g.flick(c, e)
	case events.Tap:
		g.tap(c, e)
	case events.Tilt:
		g.tilt(c, e)
	case events.VSync:
		g.vsync(c)
	default:
		g.errUnhandled(e)
	}
	return c.finish()
}

func (g *abEvolution) drag(c *Ctx, e *events.Event) {
	phase := c.Event(e, "phase")
	dx := c.Event(e, "dx")
	dy := c.Event(e, "dy")
	// Catapult math runs on every drag update regardless of outcome.
	c.CPUPure("catapult-math", trace.HashValues(dx, dy, phase), 6_000_000, 48*units.KB)
	dist := isqrt64(dx*dx + dy*dy)
	stretch := dist / 48
	if stretch > abMaxStretch {
		stretch = abMaxStretch
	}
	dir := dirOf(dx, dy)
	cur := c.Read(abStretch)
	curDir := c.Read(abAimDir)
	flying := c.Read(abFlying)
	if flying != 0 {
		// Dragging while a shot is in flight does nothing.
		c.Temp("temp.drag-ignored", 8, uint64(phase))
		return
	}
	if phase == 1 { // drag update
		if stretch == cur && dir == curDir {
			// Pulling past max stretch (or jittering in place): the
			// catapult pose is already there. The paper's flagship
			// useless event.
			c.Temp("temp.band-pose", 24, trace.HashValues(stretch, dir))
			return
		}
		c.Write(abStretch, stretch)
		c.Write(abAimDir, dir)
		c.Temp("temp.band-pose", 24, trace.HashValues(stretch, dir))
		return
	}
	// phase 2: release → fire if meaningfully stretched.
	if cur < 3 {
		c.Write(abStretch, 0)
		c.Temp("temp.band-relax", 16, uint64(cur))
		return
	}
	c.Write(abFlying, 1)
	c.Write(abFlightPhase, 0)
	c.Write(abShotDir, curDir)
	c.Write(abShotPow, cur/4) // 0..6 power buckets
	c.Write(abShotSpin, c.Rand(8))
	c.Write(abStretch, 0)
	c.CPUPure("launch", trace.HashValues(curDir, cur), 4_500_000, 96*units.KB)
	c.IP(energy.AudioCodec, "launch-whoosh", trace.HashValues(cur), 900*units.Microsecond, 8*units.KB)
}

// flick: a fast swipe also releases the catapult (same as drag release).
func (g *abEvolution) flick(c *Ctx, e *events.Event) {
	dxv := c.Event(e, "x1") - c.Event(e, "x0")
	dyv := c.Event(e, "y1") - c.Event(e, "y0")
	c.CPUPure("catapult-math", trace.HashValues(dxv, dyv), 2_800_000, 48*units.KB)
	cur := c.Read(abStretch)
	flying := c.Read(abFlying)
	if flying != 0 || cur < 3 {
		c.Temp("temp.flick-ignored", 8, trace.HashValues(dxv, dyv))
		return
	}
	c.Write(abFlying, 1)
	c.Write(abFlightPhase, 0)
	c.Write(abShotDir, c.Read(abAimDir))
	c.Write(abShotPow, cur/4)
	c.Write(abShotSpin, c.Rand(8))
	c.Write(abStretch, 0)
	c.IP(energy.AudioCodec, "launch-whoosh", trace.HashValues(cur), 900*units.Microsecond, 8*units.KB)
}

func (g *abEvolution) tap(c *Ctx, e *events.Event) {
	x := c.Event(e, "x")
	y := c.Event(e, "y")
	c.CPUPure("hit-test", trace.HashValues(x, y), 1_000_000, 8*units.KB)
	// Taps mid-level only spin the idle birds: Temp eye-candy.
	c.Temp("temp.bird-poke", 16, trace.HashValues(x, y))
}

func (g *abEvolution) tilt(c *Ctx, e *events.Event) {
	beta := c.Event(e, "beta")
	c.CPUPure("camera-tilt", trace.HashValues(beta), 700_000, 8*units.KB)
	// The camera parallax follows coarse device tilt: 10° buckets.
	bucket := beta / 100
	if bucket == c.Read(abCamTilt) {
		c.Temp("temp.cam-still", 8, uint64(bucket))
		return // minor movement: ignored, useless
	}
	c.Write(abCamTilt, bucket)
	c.Temp("temp.cam-pan", 16, uint64(bucket))
}

// hitAt returns which target (bit) a shot of (dir,pow) hits at impact for
// a layout, or -1. Deterministic ballistic table.
func hitAt(layout, dir, pow int64) int64 {
	// Map the (dir,pow) pair onto a landing column 0..11; layouts place
	// targets on distinct columns.
	col := (dir*3 + pow*5) % 12
	slot := (col + layout*2) % 12
	if slot < abTargets {
		return slot
	}
	return -1
}

func (g *abEvolution) vsync(c *Ctx) {
	flying := c.Read(abFlying)
	phase := c.Read(abFlightPhase)
	stretch := c.Read(abStretch)
	aimDir := c.Read(abAimDir)
	mask := c.Read(abTargetMask)
	anim := c.Read(abAnim)
	layout := c.Read(abLayout)
	camTilt := c.Read(abCamTilt)
	score := c.Read(abScore)
	terrain := c.Read(abTerrainMesh) // full mesh streamed to the renderer
	shotDir := c.Read(abShotDir)
	shotPow := c.Read(abShotPow)

	frameHash := trace.HashValues(flying, phase, stretch, aimDir, mask, anim, layout, camTilt, score, terrain, shotDir, shotPow)
	c.CPU("scene-update", frameHash, 9_000_000, 256*units.KB)
	c.CPU("compose-3d", frameHash, 9_500_000, 768*units.KB)
	c.IP(energy.GPU, "render", frameHash, 6200*units.Microsecond, 3*units.MB)
	// Screen delta: the projectile in flight or the explosion/celebration
	// overlay. An idle aiming scene redraws identically.
	if flying != 0 {
		c.Temp("temp.overlay.flight", 48, trace.HashValues(phase, shotDir, shotPow, c.Read(abShotSpin)))
	} else if anim > 0 {
		c.Temp("temp.overlay.boom", 48, trace.HashValues(anim, mask))
	}

	if flying != 0 {
		// Ballistic physics every frame of flight.
		c.CPU("physics", trace.HashValues(shotDir, shotPow, phase), 7_500_000, 192*units.KB)
		if phase < abFlightLen-1 {
			c.Write(abFlightPhase, phase+1)
			return
		}
		// Impact.
		c.Write(abFlying, 0)
		c.Write(abFlightPhase, 0)
		t := hitAt(layout, shotDir, shotPow)
		if t >= 0 && mask&(1<<t) != 0 {
			mask &^= 1 << t
			c.Write(abTargetMask, mask)
			c.Write(abScore, score+50)
			c.Write(abAnim, 36)
			c.IP(energy.AudioCodec, "explosion", trace.HashValues(t), 1500*units.Microsecond, 16*units.KB)
			if mask == 0 {
				// Level cleared: fetch the next level pack from the CDN
				// (an In.Extern read — rare, large, and cached into
				// History thereafter), rebuild terrain, upload the score.
				c.Write(abLevel, c.Read(abLevel)+1)
				c.Write(abLayout, c.Rand(abLayouts))
				c.Write(abTargetMask, (1<<abTargets)-1)
				pack := c.Extern("levelpack", 1*units.MB,
					int64(trace.HashValues(c.Read(abLevel), c.Read(abLayout))))
				c.Write(abTerrainMesh, pack)
				c.CPU("level-load", trace.HashValues(c.Read(abLevel)), 12_000_000, 2*units.MB)
				c.IP(energy.Network, "pack-download", uint64(pack), 2500*units.Microsecond, 1*units.MB)
				c.Send("extern.score-upload", 64, uint64(score+50))
			}
		} else {
			c.Write(abAnim, 12) // dust puff where it landed
		}
		return
	}
	if anim > 0 {
		c.Write(abAnim, anim-1)
	}
	// flying==0 && anim==0: an idle aiming frame. The full 3D scene is
	// still re-rendered — useless unless the player is moving the band.
}

func dirOf(dx, dy int64) int64 {
	// Quantize the drag vector into 16 directions.
	oct := int64(0)
	ax, ay := dx, dy
	if ax < 0 {
		ax = -ax
	}
	if ay < 0 {
		ay = -ay
	}
	switch {
	case dx >= 0 && dy < 0:
		oct = 0
	case dx < 0 && dy < 0:
		oct = 4
	case dx < 0 && dy >= 0:
		oct = 8
	default:
		oct = 12
	}
	if ay > ax {
		oct += 2
	}
	if ax > 0 && ay > 0 && ax/ay < 3 && ay/ax < 3 {
		oct++
	}
	return oct % 16
}

func isqrt64(v int64) int64 {
	if v <= 0 {
		return 0
	}
	x := v
	for y := (x + 1) / 2; y < x; y = (x + v/x) / 2 {
		x = y
	}
	return x
}

// ---------------------------------------------------------------------------
// Chase Whisply [11] — the AR ghost-hunting game: the camera feed is
// processed continuously (ISP + DSP), tilting aims, tapping shoots.
// Static camera frames and missed shots change nothing.
// ---------------------------------------------------------------------------

const (
	cwGhosts     = 3
	cwGhostLoop  = 48 // ghost hover animation period
	cwAimBuckets = 24 // quantized aim positions per axis
)

// Chase Whisply's locations, in declaration order after rngState.
const (
	cwScore Var = iota + 1
	cwGhostMask
	cwGhostPhase
	cwGhostSeed
	cwBobStyle
	cwAimX
	cwAimY
	cwSceneId
	cwSceneComplexity
	cwZone
	cwSceneMesh
)

type chaseWhisply struct {
	base
}

// NewChaseWhisply builds the Chase Whisply workload.
func NewChaseWhisply() Game {
	g := &chaseWhisply{base: newBase("ChaseWhisply",
		[]events.Type{events.Tap, events.Tilt, events.CameraFrame, events.GPSFix, events.VSync})}
	g.Reset(1)
	return g
}

// Reset implements Game.
func (g *chaseWhisply) Reset(seed uint64) {
	g.resetBase(seed)
	g.declare(cwScore, "score", 4, 0)
	g.declare(cwGhostMask, "ghostMask", 1, (1<<cwGhosts)-1)
	g.declare(cwGhostPhase, "ghostPhase", 1, 0) // hover animation 0..cwGhostLoop-1
	g.declare(cwGhostSeed, "ghostSeed", 2, 3)   // placement id for the current ghost set
	g.declare(cwBobStyle, "bobStyle", 1, 0)     // hover animation variant of this set
	g.declare(cwAimX, "aimX", 1, cwAimBuckets/2)
	g.declare(cwAimY, "aimY", 1, cwAimBuckets/2)
	g.declare(cwSceneId, "sceneId", 4, 100)
	g.declare(cwSceneComplexity, "sceneComplexity", 2, 4)
	g.declare(cwZone, "zone", 2, 0) // coarse GPS zone
	// The reconstructed AR scene mesh: size tracks scene complexity and
	// is re-read by the renderer every frame (the 600 B – 119 kB History
	// spread of Fig. 7a).
	g.declare(cwSceneMesh, "sceneMesh", 40*units.KB, int64(seed*11400714819323198485+7))
}

// Clone implements Game.
func (g *chaseWhisply) Clone() Game {
	c := *g
	c.base = g.cloneBase()
	return &c
}

// Process implements Game.
func (g *chaseWhisply) Process(e *events.Event, profile *trace.Dataset) *Execution {
	c := g.ctx(e, profile)
	switch e.Type {
	case events.Tap:
		g.shoot(c, e)
	case events.Tilt:
		g.tilt(c, e)
	case events.CameraFrame:
		g.camera(c, e)
	case events.GPSFix:
		g.gps(c, e)
	case events.VSync:
		g.vsync(c)
	default:
		g.errUnhandled(e)
	}
	return c.finish()
}

func (g *chaseWhisply) camera(c *Ctx, e *events.Event) {
	scene := c.Event(e, "scene")
	surfaces := c.Event(e, "surfaces")
	feat := c.Event(e, "features")
	// The full vision pipeline runs on every frame: ISP preprocessing,
	// DSP feature extraction, CPU plane fitting.
	c.IP(energy.ISP, "isp-preprocess", uint64(feat), 7800*units.Microsecond, 4*units.MB)
	c.IP(energy.DSP, "feature-extract", uint64(feat), 5200*units.Microsecond, 1*units.MB)
	c.CPU("plane-fit", trace.HashValues(scene, surfaces, feat), 5_500_000, 512*units.KB)
	curScene := c.Read(cwSceneId)
	curCx := c.Read(cwSceneComplexity)
	if scene == curScene && surfaces == curCx {
		// The user is standing still: the frame reconstructs the same
		// surfaces. Heavy processing, no change — useless.
		c.Temp("temp.ar-overlay", 64, trace.HashValues(scene, surfaces))
		return
	}
	c.Write(cwSceneId, scene)
	c.Write(cwSceneComplexity, surfaces)
	c.Write(cwSceneMesh, int64(trace.HashValues(scene, surfaces)))
	c.CPU("mesh-rebuild", trace.HashValues(scene, surfaces), 8_000_000, 2*units.MB)
	c.Temp("temp.ar-overlay", 64, trace.HashValues(scene, surfaces))
}

func (g *chaseWhisply) tilt(c *Ctx, e *events.Event) {
	alpha := c.Event(e, "alpha")
	beta := c.Event(e, "beta")
	c.CPUPure("aim-update", trace.HashValues(alpha, beta), 2_500_000, 16*units.KB)
	// Aim reticle from coarse device orientation.
	ax := (alpha / 150) % cwAimBuckets
	ay := (beta / 150) % cwAimBuckets
	if ax < 0 {
		ax += cwAimBuckets
	}
	if ay < 0 {
		ay += cwAimBuckets
	}
	if ax == c.Read(cwAimX) && ay == c.Read(cwAimY) {
		c.Temp("temp.reticle", 8, trace.HashValues(ax, ay))
		return // hand tremor below the aim quantum: useless
	}
	c.Write(cwAimX, ax)
	c.Write(cwAimY, ay)
	c.Temp("temp.reticle", 8, trace.HashValues(ax, ay))
}

// ghostHome returns the aim bucket a ghost occupies for a placement seed.
func ghostHome(seedV, ghost int64) (x, y int64) {
	x = (seedV*7 + ghost*11) % cwAimBuckets
	y = (seedV*5 + ghost*13) % cwAimBuckets
	return
}

func (g *chaseWhisply) shoot(c *Ctx, e *events.Event) {
	x := c.Event(e, "x")
	y := c.Event(e, "y")
	_ = x
	_ = y
	mask := c.Read(cwGhostMask)
	seedV := c.Read(cwGhostSeed)
	aimX := c.Read(cwAimX)
	aimY := c.Read(cwAimY)
	c.CPUPure("raycast", trace.HashValues(mask, seedV, aimX, aimY), 3_800_000, 128*units.KB)
	c.IP(energy.AudioCodec, "pew", trace.HashValues(aimX, aimY), 600*units.Microsecond, 8*units.KB)
	hit := int64(-1)
	for gh := int64(0); gh < cwGhosts; gh++ {
		if mask&(1<<gh) == 0 {
			continue
		}
		gx, gy := ghostHome(seedV, gh)
		if absDiff(gx, aimX) <= 2 && absDiff(gy, aimY) <= 2 {
			hit = gh
			break
		}
	}
	if hit < 0 {
		c.Temp("temp.miss-flash", 16, trace.HashValues(aimX, aimY))
		return // shot into empty air: useless
	}
	mask &^= 1 << hit
	c.Write(cwGhostMask, mask)
	c.Write(cwScore, c.Read(cwScore)+25)
	c.Temp("temp.ghost-pop", 48, trace.HashValues(hit))
	c.IP(energy.AudioCodec, "ghost-pop", trace.HashValues(hit), 1000*units.Microsecond, 8*units.KB)
	if mask == 0 {
		// All ghosts caught: spawn a fresh set and sync the score.
		c.Write(cwGhostMask, (1<<cwGhosts)-1)
		c.Write(cwGhostSeed, c.Rand(17))
		c.Write(cwBobStyle, c.Rand(6))
		c.Send("extern.score-sync", 48, uint64(c.Read(cwScore)))
	}
}

func (g *chaseWhisply) gps(c *Ctx, e *events.Event) {
	lat := c.Event(e, "lat")
	lng := c.Event(e, "lng")
	c.CPUPure("geo-update", trace.HashValues(lat, lng), 600_000, 8*units.KB)
	zone := (lat/400 + lng/400) % 64
	if zone == c.Read(cwZone) {
		c.Temp("temp.geo-still", 8, uint64(zone))
		return // GPS jitter within the zone: useless
	}
	c.Write(cwZone, zone)
	// Entering a new zone pulls that area's ghost census from the game
	// service (In.Extern) and relocates the ghosts.
	area := c.Extern("area-ghosts", 512*units.KB, zone*7+3)
	c.IP(energy.Network, "area-fetch", uint64(area), 1800*units.Microsecond, 512*units.KB)
	c.Write(cwGhostSeed, c.Rand(17))
}

func (g *chaseWhisply) vsync(c *Ctx) {
	mask := c.Read(cwGhostMask)
	phase := c.Read(cwGhostPhase)
	seedV := c.Read(cwGhostSeed)
	aimX := c.Read(cwAimX)
	aimY := c.Read(cwAimY)
	scene := c.Read(cwSceneId)
	mesh := c.Read(cwSceneMesh)
	score := c.Read(cwScore)
	frameHash := trace.HashValues(mask, phase, seedV, aimX, aimY, scene, mesh, score)
	c.CPU("compose-ar", frameHash, 15_000_000, 640*units.KB)
	c.IP(energy.GPU, "render", frameHash, 7500*units.Microsecond, 3*units.MB)
	// Screen delta: the hovering ghosts over the (separately updated)
	// camera background.
	// The aim reticle is drawn by the tilt handler's own delta; the
	// ghost layer depends only on the ghost set and its hover phase.
	if mask != 0 {
		c.Temp("temp.overlay.ghosts", 48, trace.HashValues(mask, phase, seedV, c.Read(cwBobStyle)))
	}
	// Ghosts hover continuously while any are alive.
	if mask != 0 {
		c.Write(cwGhostPhase, (phase+1)%cwGhostLoop)
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// ---------------------------------------------------------------------------
// Race Kings [12] — the 3D racing game: tilt steers, tap boosts, physics
// and rendering run every frame. The heaviest workload (paper Fig. 3:
// drains the battery in ≈3 h); minor tilt jitter below the steering
// deadzone is its useless-event source.
// ---------------------------------------------------------------------------

const (
	rkTrackLen  = 840 // quantized track positions per lap
	rkLanes     = 5   // lateral lanes
	rkSpeeds    = 12  // quantized speed steps
	rkRivalStep = 3   // rival advances this many positions per frame at cruise
)

// Race Kings's locations, in declaration order after rngState.
const (
	rkTrackPos Var = iota + 1
	rkLane
	rkSpeed
	rkSteer
	rkBoost
	rkRivalGap
	rkStanding
	rkTrackMesh
)

type raceKings struct {
	base
}

// NewRaceKings builds the Race Kings workload.
func NewRaceKings() Game {
	g := &raceKings{base: newBase("RaceKings",
		[]events.Type{events.Tilt, events.Tap, events.VSync})}
	g.Reset(1)
	return g
}

// Reset implements Game.
func (g *raceKings) Reset(seed uint64) {
	g.resetBase(seed)
	g.declare(rkTrackPos, "trackPos", 2, 0) // 0..rkTrackLen-1, loops per lap
	g.declare(rkLane, "lane", 1, rkLanes/2)
	g.declare(rkSpeed, "speed", 1, 3)       // 0..rkSpeeds-1
	g.declare(rkSteer, "steer", 1, 0)       // -2..2 from tilt
	g.declare(rkBoost, "boost", 1, 0)       // boost frames remaining
	g.declare(rkRivalGap, "rivalGap", 1, 0) // rival's lead in track positions, -20..20
	g.declare(rkStanding, "standing", 1, 2)
	// Track geometry streamed to the GPU each frame.
	g.declare(rkTrackMesh, "trackMesh", 64*units.KB, int64(seed*2862933555777941757+3))
}

// Clone implements Game.
func (g *raceKings) Clone() Game {
	c := *g
	c.base = g.cloneBase()
	return &c
}

// Overrides implements Game: the physics integrator's dependencies, as
// the Race Kings developers would annotate them (§V-B Option 1) — speed
// feeds the position update and the rival gap feeds the rubber-band AI,
// but both sit near-constant in short profiles and get under-sampled.
func (g *raceKings) Overrides() []string {
	return []string{"state.speed", "state.rivalGap"}
}

// Process implements Game.
func (g *raceKings) Process(e *events.Event, profile *trace.Dataset) *Execution {
	c := g.ctx(e, profile)
	switch e.Type {
	case events.Tilt:
		g.tilt(c, e)
	case events.Tap:
		g.tap(c, e)
	case events.VSync:
		g.vsync(c)
	default:
		g.errUnhandled(e)
	}
	return c.finish()
}

func (g *raceKings) tilt(c *Ctx, e *events.Event) {
	beta := c.Event(e, "beta")
	dbeta := c.Event(e, "dbeta")
	c.CPUPure("steer-filter", trace.HashValues(beta, dbeta), 3_000_000, 24*units.KB)
	// Steering with a ±6° deadzone around level, then 12° notches.
	steer := int64(0)
	switch {
	case beta > 240:
		steer = 2
	case beta > 100:
		steer = 1
	case beta < -240:
		steer = -2
	case beta < -100:
		steer = -1
	}
	if steer == c.Read(rkSteer) {
		// Hand tremor inside the deadzone / same notch: useless.
		c.Temp("temp.steer-hud", 8, uint64(steer))
		return
	}
	c.Write(rkSteer, steer)
	c.Temp("temp.steer-hud", 8, uint64(steer))
}

func (g *raceKings) tap(c *Ctx, e *events.Event) {
	x := c.Event(e, "x")
	y := c.Event(e, "y")
	c.CPUPure("hud-hit-test", trace.HashValues(x, y), 1_100_000, 8*units.KB)
	// Boost button lives bottom-right.
	if x < screenW-420 || y < screenH-420 {
		c.Temp("temp.tap-ripple", 8, trace.HashValues(x, y))
		return
	}
	if c.Read(rkBoost) > 0 {
		c.Temp("temp.boost-denied", 8, 1)
		return // hammering the button mid-boost does nothing
	}
	c.Write(rkBoost, 45)
	c.IP(energy.AudioCodec, "boost-roar", 1, 1800*units.Microsecond, 32*units.KB)
	c.Temp("temp.boost-flame", 32, 1)
}

func (g *raceKings) vsync(c *Ctx) {
	pos := c.Read(rkTrackPos)
	lane := c.Read(rkLane)
	speed := c.Read(rkSpeed)
	steer := c.Read(rkSteer)
	boost := c.Read(rkBoost)
	rival := c.Read(rkRivalGap)
	mesh := c.Read(rkTrackMesh)
	// The lap counter and standings live only in the HUD tile; the track
	// scene repeats every lap of the circuit.
	frameHash := trace.HashValues(pos, lane, speed, steer, boost, rival, mesh)
	// The big per-frame pipeline: physics, AI, scene graph, then a long
	// GPU pass — Race Kings' hallmark.
	c.CPUPure("physics", frameHash, 17_000_000, 512*units.KB)
	c.CPU("ai-and-scene", frameHash, 16_000_000, 768*units.KB)
	c.IP(energy.GPU, "render", frameHash, 13_000*units.Microsecond, 5*units.MB)
	// Screen delta: the scrolling track view. The circuit geometry is the
	// same fixed content for every install, so the view is a pure
	// function of the race state.
	c.Temp("temp.overlay.track", 56, trace.HashValues(pos, lane, speed, steer, boost, rival))

	// Lateral movement follows the steering notch.
	newLane := lane + steer
	if newLane < 0 {
		newLane = 0
	}
	if newLane >= rkLanes {
		newLane = rkLanes - 1
	}
	if newLane != lane {
		c.Write(rkLane, newLane)
	}
	// Speed settles toward cruise (8) or boost max.
	target := int64(4)
	if boost > 0 {
		target = 7
		c.Write(rkBoost, boost-1)
	}
	if speed < target {
		c.Write(rkSpeed, speed+1)
		speed++
	} else if speed > target {
		c.Write(rkSpeed, speed-1)
		speed--
	}
	// Track position advances by the speed step; laps wrap.
	newPos := pos + speed
	if newPos >= rkTrackLen {
		newPos -= rkTrackLen
		// Position sync to the online race service at each lap line: the
		// payload carries the standings delta, not an unbounded counter.
		c.Send("extern.lap-sync", 96, trace.HashValues(rival, lane))
	}
	c.Write(rkTrackPos, newPos)
	// The rival drifts relative to the player: deterministic rubber-band
	// AI pulling the gap toward zero.
	drift := int64(0)
	switch {
	case rival > 6:
		drift = -1
	case rival < -6:
		drift = 1
	case speed > 4:
		drift = -1
	case speed < 4:
		drift = 1
	}
	if drift != 0 {
		nr := rival + drift
		c.Write(rkRivalGap, nr)
		standing := int64(1)
		if nr > 0 {
			standing = 2
		}
		if standing != c.Read(rkStanding) {
			c.Write(rkStanding, standing)
		}
	}
}
