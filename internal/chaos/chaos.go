// Package chaos is the deterministic fault-injection subsystem: it
// perturbs the simulated fleet the way production perturbs a real one —
// sensors glitch, devices stall and crash mid-run, the wire truncates
// and flips upload bodies, and an OTA push occasionally ships a poisoned
// table. Every fault is drawn from a seeded RNG that is pre-split per
// injection site (the same doctrine internal/parallel documents for the
// simulator), so a chaos run is reproducible from its profile seed and —
// more importantly — a run with chaos DISABLED consumes zero randomness
// from any other stream: all figures stay byte-identical with chaos off.
//
// The package only injects; the defenses live where the blast lands:
// internal/sensors rejects out-of-order readings with a recoverable
// error, internal/fleet isolates crashed devices and runs the mispredict
// guard, internal/trace verifies the batch CRC trailer, and
// internal/cloud caps hostile body sizes.
package chaos

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"snip/internal/obs"
	"snip/internal/rng"
	"snip/internal/sensors"
)

// Profile describes which faults to inject and how often. All rates are
// probabilities in [0, 1]; a zero rate disables that fault. The zero
// Profile injects nothing.
type Profile struct {
	// Name labels the profile in reports ("all", "wire", ...).
	Name string
	// Seed roots every fault decision; the same profile and seed replay
	// the same faults against the same workload.
	Seed uint64

	// Sensor faults, applied per reading of each session's stream.
	SensorDropRate       float64 // reading silently lost
	SensorDupRate        float64 // reading delivered twice
	SensorStuckRate      float64 // sensor latches its previous values
	SensorOutOfOrderRate float64 // hub emits a stale-timestamped reading

	// Device faults, decided per (device, session).
	DeviceCrashRate float64 // device dies; coordinator isolates it
	DeviceStallRate float64 // device freezes for DeviceStall
	DeviceStall     time.Duration

	// Wire faults, applied per HTTP request through Transport.
	WireTruncateRate float64 // request body cut short
	WireBitFlipRate  float64 // one bit of the body flipped
	WireBombRate     float64 // body replaced with a gzip bomb
	Wire5xxRate      float64 // synthetic 503 before the server is reached
	WireSlowRate     float64 // request delayed by WireSlow
	WireSlow         time.Duration

	// TablePoisonRate is the fraction of entries corrupted when an
	// OTA-fetched table passes through MaybePoisonTable.
	TablePoisonRate float64
}

// Enabled reports whether any fault is active.
func (p Profile) Enabled() bool {
	return p.SensorsEnabled() || p.DevicesEnabled() || p.WireEnabled() || p.TablePoisonRate > 0
}

// SensorsEnabled reports whether any sensor fault is active.
func (p Profile) SensorsEnabled() bool {
	return p.SensorDropRate > 0 || p.SensorDupRate > 0 ||
		p.SensorStuckRate > 0 || p.SensorOutOfOrderRate > 0
}

// DevicesEnabled reports whether any device fault is active.
func (p Profile) DevicesEnabled() bool {
	return p.DeviceCrashRate > 0 || p.DeviceStallRate > 0
}

// WireEnabled reports whether any wire fault is active.
func (p Profile) WireEnabled() bool {
	return p.WireTruncateRate > 0 || p.WireBitFlipRate > 0 ||
		p.WireBombRate > 0 || p.Wire5xxRate > 0 || p.WireSlowRate > 0
}

// Named returns one of the canned profiles: "off" (or ""), "sensors",
// "devices", "wire", "table", or "all". The rates are tuned so a short
// fleet run exercises every fault without drowning in them.
func Named(name string) (Profile, error) {
	p := Profile{Name: strings.ToLower(strings.TrimSpace(name))}
	switch p.Name {
	case "", "off":
		p.Name = "off"
	case "sensors":
		p.SensorDropRate, p.SensorDupRate = 0.05, 0.05
		p.SensorStuckRate, p.SensorOutOfOrderRate = 0.03, 0.02
	case "devices":
		p.DeviceCrashRate, p.DeviceStallRate = 0.15, 0.25
		p.DeviceStall = 2 * time.Millisecond
	case "wire":
		p.WireTruncateRate, p.WireBitFlipRate, p.WireBombRate = 0.08, 0.08, 0.04
		p.Wire5xxRate, p.WireSlowRate = 0.15, 0.10
		p.WireSlow = 5 * time.Millisecond
	case "table":
		p.TablePoisonRate = 0.75
	case "all":
		p.SensorDropRate, p.SensorDupRate = 0.05, 0.05
		p.SensorStuckRate, p.SensorOutOfOrderRate = 0.03, 0.02
		p.DeviceCrashRate, p.DeviceStallRate = 0.10, 0.20
		p.DeviceStall = 2 * time.Millisecond
		p.WireTruncateRate, p.WireBitFlipRate, p.WireBombRate = 0.05, 0.05, 0.03
		p.Wire5xxRate, p.WireSlowRate = 0.10, 0.10
		p.WireSlow = 5 * time.Millisecond
		p.TablePoisonRate = 0.75
	default:
		return Profile{}, fmt.Errorf("chaos: unknown profile %q (want off|sensors|devices|wire|table|all)", name)
	}
	return p, nil
}

// ProfileNames lists the canned profile names.
func ProfileNames() []string { return []string{"off", "sensors", "devices", "wire", "table", "all"} }

// Counts is a snapshot of every fault the injector has dealt.
type Counts struct {
	SensorDropped    int64 `json:"sensor_dropped,omitempty"`
	SensorDuplicated int64 `json:"sensor_duplicated,omitempty"`
	SensorStuck      int64 `json:"sensor_stuck,omitempty"`
	SensorOutOfOrder int64 `json:"sensor_out_of_order,omitempty"`
	DeviceCrashes    int64 `json:"device_crashes,omitempty"`
	DeviceStalls     int64 `json:"device_stalls,omitempty"`
	WireTruncated    int64 `json:"wire_truncated,omitempty"`
	WireBitFlipped   int64 `json:"wire_bit_flipped,omitempty"`
	WireBombs        int64 `json:"wire_bombs,omitempty"`
	Wire5xx          int64 `json:"wire_5xx,omitempty"`
	WireSlowed       int64 `json:"wire_slowed,omitempty"`
	TablesPoisoned   int64 `json:"tables_poisoned,omitempty"`
	EntriesPoisoned  int64 `json:"entries_poisoned,omitempty"`
}

// Map returns the non-zero tallies keyed by fault kind — the
// JSON-friendly form the public report types use.
func (c Counts) Map() map[string]int64 {
	m := make(map[string]int64)
	for _, kv := range []struct {
		k string
		v int64
	}{
		{"sensor_dropped", c.SensorDropped},
		{"sensor_duplicated", c.SensorDuplicated},
		{"sensor_stuck", c.SensorStuck},
		{"sensor_out_of_order", c.SensorOutOfOrder},
		{"device_crashes", c.DeviceCrashes},
		{"device_stalls", c.DeviceStalls},
		{"wire_truncated", c.WireTruncated},
		{"wire_bit_flipped", c.WireBitFlipped},
		{"wire_bombs", c.WireBombs},
		{"wire_5xx", c.Wire5xx},
		{"wire_slowed", c.WireSlowed},
		{"tables_poisoned", c.TablesPoisoned},
		{"entries_poisoned", c.EntriesPoisoned},
	} {
		if kv.v != 0 {
			m[kv.k] = kv.v
		}
	}
	return m
}

// Total sums every injected fault.
func (c Counts) Total() int64 {
	return c.SensorDropped + c.SensorDuplicated + c.SensorStuck + c.SensorOutOfOrder +
		c.DeviceCrashes + c.DeviceStalls +
		c.WireTruncated + c.WireBitFlipped + c.WireBombs + c.Wire5xx + c.WireSlowed +
		c.TablesPoisoned
}

// Injector deals faults according to a Profile. Safe for concurrent use:
// every injection site derives its own private rng.Source from the
// profile seed and stable identifiers (device id, session seed), so
// fault decisions do not depend on goroutine scheduling. A nil *Injector
// is valid and injects nothing.
type Injector struct {
	prof Profile

	sensorDropped    atomic.Int64
	sensorDuplicated atomic.Int64
	sensorStuck      atomic.Int64
	sensorOOO        atomic.Int64
	deviceCrashes    atomic.Int64
	deviceStalls     atomic.Int64
	wireTruncated    atomic.Int64
	wireBitFlipped   atomic.Int64
	wireBombs        atomic.Int64
	wire5xx          atomic.Int64
	wireSlowed       atomic.Int64
	tablesPoisoned   atomic.Int64
	entriesPoisoned  atomic.Int64

	// faults, when metrics are attached, mirrors the per-kind tallies
	// into snip_chaos_faults_total{kind="..."} counters. Nil-safe.
	faults map[string]*obs.Counter
}

// New builds an injector for a profile. A disabled profile still returns
// a working injector (it just never injects); callers that want "no
// chaos at all" keep a nil *Injector instead.
func New(p Profile) *Injector {
	if p.Seed == 0 {
		p.Seed = 0xC4A05 // "CHAOS"; any fixed non-zero default works
	}
	return &Injector{prof: p}
}

// Profile returns the injector's profile.
func (i *Injector) Profile() Profile {
	if i == nil {
		return Profile{Name: "off"}
	}
	return i.prof
}

// SetMetrics attaches an observability registry; the injector then
// counts every fault in snip_chaos_faults_total{kind="..."}.
func (i *Injector) SetMetrics(reg *obs.Registry) {
	if i == nil || reg == nil {
		return
	}
	i.faults = make(map[string]*obs.Counter)
	for _, kind := range []string{
		"sensor_dropped", "sensor_duplicated", "sensor_stuck", "sensor_out_of_order",
		"device_crash", "device_stall",
		"wire_truncated", "wire_bit_flipped", "wire_bomb", "wire_5xx", "wire_slow",
		"table_poisoned",
	} {
		i.faults[kind] = reg.Counter(
			`snip_chaos_faults_total{kind="`+kind+`"}`, "faults injected by the chaos subsystem")
	}
}

func (i *Injector) count(c *atomic.Int64, kind string, n int64) {
	c.Add(n)
	if ctr := i.faults[kind]; ctr != nil {
		ctr.Add(n)
	}
}

// Counts snapshots the injected-fault tallies.
func (i *Injector) Counts() Counts {
	if i == nil {
		return Counts{}
	}
	return Counts{
		SensorDropped:    i.sensorDropped.Load(),
		SensorDuplicated: i.sensorDuplicated.Load(),
		SensorStuck:      i.sensorStuck.Load(),
		SensorOutOfOrder: i.sensorOOO.Load(),
		DeviceCrashes:    i.deviceCrashes.Load(),
		DeviceStalls:     i.deviceStalls.Load(),
		WireTruncated:    i.wireTruncated.Load(),
		WireBitFlipped:   i.wireBitFlipped.Load(),
		WireBombs:        i.wireBombs.Load(),
		Wire5xx:          i.wire5xx.Load(),
		WireSlowed:       i.wireSlowed.Load(),
		TablesPoisoned:   i.tablesPoisoned.Load(),
		EntriesPoisoned:  i.entriesPoisoned.Load(),
	}
}

// Fault-site tags keep each injection site's derived stream independent:
// two sites mixing the same (seed, ids) still draw unrelated values.
const (
	tagSensors = 0x53454e53 // "SENS"
	tagDevice  = 0x44455643 // "DEVC"
	tagWire    = 0x57495245 // "WIRE"
	tagTable   = 0x5441424c // "TABL"
)

// mix64 is one splitmix64 step — the same finalizer rng.New seeds with.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// source derives the private RNG for one injection site from the profile
// seed, a site tag and the site's stable identifiers.
func (i *Injector) source(tag uint64, ids ...uint64) *rng.Source {
	x := mix64(i.prof.Seed ^ tag)
	for _, id := range ids {
		x = mix64(x ^ id)
	}
	return rng.New(x)
}

// ErrDeviceCrash marks an injected device crash. The fleet coordinator
// recognizes it like any other device failure: the device is isolated
// and reported, never the whole run.
var ErrDeviceCrash = fmt.Errorf("chaos: injected device crash")

// SessionFaults decides the device-level faults for one (device,
// session) slot: whether the device crashes before playing it, and how
// long it stalls first. Deterministic per slot regardless of scheduling.
func (i *Injector) SessionFaults(device, session int) (crash bool, stall time.Duration) {
	if i == nil || !i.prof.DevicesEnabled() {
		return false, 0
	}
	src := i.source(tagDevice, uint64(device), uint64(session))
	if i.prof.DeviceStallRate > 0 && src.Bool(i.prof.DeviceStallRate) {
		stall = i.prof.DeviceStall
		if stall <= 0 {
			stall = time.Millisecond
		}
		i.count(&i.deviceStalls, "device_stall", 1)
	}
	if i.prof.DeviceCrashRate > 0 && src.Bool(i.prof.DeviceCrashRate) {
		crash = true
		i.count(&i.deviceCrashes, "device_crash", 1)
	}
	return crash, stall
}

// PerturbStream applies the sensor faults to one session's stream:
// readings are dropped, duplicated, or latched to the previous values,
// and occasionally the hub emits a stale-timestamped reading — which the
// stream rejects with sensors.ErrOutOfOrder and the injector counts as
// recovered (this used to panic the whole run). The input stream is not
// modified. Deterministic per session seed.
func (i *Injector) PerturbStream(sessionSeed uint64, s *sensors.Stream) *sensors.Stream {
	if i == nil || !i.prof.SensorsEnabled() || s.Len() == 0 {
		return s
	}
	src := i.source(tagSensors, sessionSeed)
	out := &sensors.Stream{}
	var prev *sensors.Reading
	for _, r := range s.All() {
		if i.prof.SensorDropRate > 0 && src.Bool(i.prof.SensorDropRate) {
			i.count(&i.sensorDropped, "sensor_dropped", 1)
			continue
		}
		rr := r
		if prev != nil && i.prof.SensorStuckRate > 0 && src.Bool(i.prof.SensorStuckRate) {
			// The sensor latched: previous values arrive under the current
			// timestamp.
			rr = sensors.Reading{
				Sensor: prev.Sensor, Time: r.Time,
				Values: append([]int64(nil), prev.Values...),
			}
			i.count(&i.sensorStuck, "sensor_stuck", 1)
		}
		if end := out.End(); end > 0 && i.prof.SensorOutOfOrderRate > 0 &&
			src.Bool(i.prof.SensorOutOfOrderRate) {
			stale := rr
			stale.Time = end - 1
			if err := out.Append(stale); err != nil {
				// Rejected, counted, recovered — the failure mode this
				// subsystem exists to prove survivable.
				i.count(&i.sensorOOO, "sensor_out_of_order", 1)
			}
		}
		if err := out.Append(rr); err != nil {
			i.count(&i.sensorOOO, "sensor_out_of_order", 1)
			continue
		}
		if i.prof.SensorDupRate > 0 && src.Bool(i.prof.SensorDupRate) {
			if err := out.Append(rr); err == nil {
				i.count(&i.sensorDuplicated, "sensor_duplicated", 1)
			}
		}
		cp := rr
		prev = &cp
	}
	return out
}
