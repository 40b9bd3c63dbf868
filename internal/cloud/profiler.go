// Package cloud implements SNIP's offline profiler (§V-B): the service
// that receives events-only logs from devices, replays them against the
// emulator (our deterministic game engine plays the AOSP emulator's
// role), accumulates the full input/output profile, runs PFI, and ships
// the resulting lookup table back to devices as an OTA update. It also
// implements the continuous-learning loop of Fig. 12 and an HTTP
// transport so a real device/daemon split can be exercised end to end.
package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/parallel"
	"snip/internal/pfi"
	"snip/internal/trace"
)

// ErrBadLog marks an events-only log the emulator cannot replay: an
// event type it does not know, or a value count its type's schema does
// not have. The uploader sent a bad request; retrying cannot help.
var ErrBadLog = errors.New("cloud: bad log")

// Replay re-executes an events-only log against a fresh instance of the
// game (the emulator step): it reconstructs the full input/output profile
// that the device-side recording deliberately omitted.
//
// The log's events must carry the same seed-deterministic game content as
// the device run, which the paper achieves by replaying the recorded
// inputs "in the same manner as if the user is playing the game once
// again in the emulator"; here the game seed travels with the replay.
func Replay(gameName string, seed uint64, log *trace.EventLog) (*trace.Dataset, error) {
	g, err := games.New(gameName)
	if err != nil {
		return nil, err
	}
	g.Reset(seed)
	var handled [events.NumTypes]bool
	for _, t := range g.Types() {
		handled[t] = true
	}
	ds := &trace.Dataset{Game: gameName}
	ds.Grow(len(log.Events))
	var ev events.Event // one for every event: handlers do not retain it
	for i, le := range log.Events {
		if i == replaySample {
			ds.Grow(len(log.Events) - i) // presize the cells from the rows so far
		}
		// Unknown names mean a corrupt log; known-but-unregistered types
		// are simply not delivered, as on the device.
		t, ok := eventTypes[le.Type]
		if !ok {
			return nil, fmt.Errorf("%w: unknown event type %q", ErrBadLog, le.Type)
		}
		if !handled[t] {
			continue
		}
		// A handler indexes the values by its type's schema: a log from
		// the wire with another value count gets an error.
		if want := len(events.Schema(t)); len(le.Values) != want {
			return nil, fmt.Errorf("%w: %s event %d has %d values, want %d", ErrBadLog, le.Type, le.Seq, len(le.Values), want)
		}
		ev = events.Event{Type: t, Seq: le.Seq, Time: le.Time, Values: le.Values}
		g.Process(&ev, ds)
	}
	return ds, nil
}

// replaySample is how many events Replay runs before it presizes the
// profile's cell streams.
const replaySample = 64

// eventTypes maps every event type's name to the type.
var eventTypes = func() map[string]events.Type {
	m := make(map[string]events.Type, events.NumTypes)
	for t := events.Type(0); int(t) < events.NumTypes; t++ {
		m[t.String()] = t
	}
	return m
}()

// SessionLog is one uploaded session awaiting replay: the events-only
// log plus the seed that regenerates the game content it was played on.
type SessionLog struct {
	Seed uint64
	Log  *trace.EventLog
}

// ReplayBatch replays many sessions against the emulator fleet — the
// paper's cloud profiler runs exactly this fan-out of parallel emulator
// replays (§VI, Fig. 10). Each session replays on its own worker (each
// builds a private game instance); results come back in input order, so
// the batch is byte-identical to replaying the logs serially. workers
// <= 0 selects parallel.DefaultWorkers().
func ReplayBatch(gameName string, workers int, logs []SessionLog) ([]*trace.Dataset, error) {
	return parallel.Map(workers, len(logs), func(i int) (*trace.Dataset, error) {
		return Replay(gameName, logs[i].Seed, logs[i].Log)
	})
}

// TableUpdate is the OTA payload the cloud sends back to devices: the
// necessary-input selection and the populated lookup table. The table
// the cloud builds and the client loads is always a *memo.FlatTable:
// Rebuild writes it straight from the profile's columns with
// memo.BuildFlat, and its image is what /v1/update serves.
type TableUpdate struct {
	Game      string
	Version   int
	Selection memo.Selection
	Table     memo.Table
	// Quality captured on the profile at build time.
	Metrics pfi.Metrics
	// ProfileRecords is how many records the table was trained on.
	ProfileRecords int
}

// DefaultMaxDeltaChain is how many consecutive table deltas a profiler
// retains per game — the longest chain /v1/update will ship before
// falling back to the full image. Short on purpose: a device more than
// a few generations behind re-downloads the table outright rather than
// replaying history.
const DefaultMaxDeltaChain = 4

// Profiler is the cloud-side state for one game: the accumulated profile
// and the latest table build. Safe for concurrent use.
type Profiler struct {
	mu      sync.Mutex
	game    string
	cfg     pfi.Config
	profile *trace.Dataset
	version int
	latest  *TableUpdate

	// Delta OTA state: the latest generation's table, which the next
	// rebuild diffs against, and the verified chain of consecutive
	// deltas ending at the latest version, oldest first, at most
	// deltaCap long. frame is the encoded one-link chain of the newest
	// delta — what a device one generation behind fetches — and is nil
	// exactly when deltas is.
	flat     *memo.FlatTable
	deltas   []*trace.TableDelta
	frame    []byte
	deltaCap int
}

// NewProfiler creates a profiler for one game. PFI keeps the fields the
// game's developer marked as necessary (games.Game.Overrides) on top of
// any cfg.ForceInclude names.
func NewProfiler(game string, cfg pfi.Config) *Profiler {
	return newProfiler(game, cfg, DefaultMaxDeltaChain)
}

// newProfiler is NewProfiler with the retained delta chain bounded at
// deltaCap links (values < 1 mean DefaultMaxDeltaChain).
func newProfiler(game string, cfg pfi.Config, deltaCap int) *Profiler {
	if deltaCap < 1 {
		deltaCap = DefaultMaxDeltaChain
	}
	cfg.ForceInclude = games.ForceInclude(game, cfg.ForceInclude)
	return &Profiler{game: game, cfg: cfg, profile: &trace.Dataset{Game: game}, deltaCap: deltaCap}
}

// Game returns the game this profiler serves.
func (p *Profiler) Game() string { return p.game }

// ProfileLen returns the number of accumulated records.
func (p *Profiler) ProfileLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.profile.Len()
}

// IngestLogs replays a batch of events-only logs in parallel and merges
// the reconstructed records into the profile in upload order. workers
// <= 0 selects parallel.DefaultWorkers().
func (p *Profiler) IngestLogs(workers int, logs []SessionLog) error {
	batch, err := ReplayBatch(p.game, workers, logs)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ds := range batch {
		p.profile.Merge(ds)
	}
	return nil
}

// IngestDataset adds an already-reconstructed profile (e.g. from the
// development-time testing path rather than user uploads).
func (p *Profiler) IngestDataset(ds *trace.Dataset) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.profile.Merge(ds)
}

// Rebuild runs PFI over the accumulated profile and produces a fresh OTA
// update.
func (p *Profiler) Rebuild() (*TableUpdate, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.profile.Len() == 0 {
		return nil, fmt.Errorf("cloud: no profile data for %s", p.game)
	}
	res, err := pfi.Run(p.profile, p.cfg)
	if err != nil {
		return nil, err
	}
	flat, err := memo.BuildFlat(p.profile, res.Selection)
	if err != nil {
		return nil, fmt.Errorf("cloud: flat table build for %s: %w", p.game, err)
	}
	// Grow the delta chain: diff the previous image against this one and
	// SELF-VERIFY by splicing the delta into the previous image — only a
	// delta proven to reproduce the new image byte for byte may ever be
	// served. A diff or verify failure (or a delta no smaller than the
	// image it replaces, e.g. after a selection change rewrote every key)
	// breaks the chain instead: devices behind that point get the full
	// image. The size check's encoding is kept as the newest link's
	// frame.
	if p.flat != nil {
		d, err := diffFlat(p.game, p.version, p.version+1, p.flat, flat)
		ok := err == nil
		if ok {
			ok = memo.VerifyDelta(p.flat, flat, d) == nil
		}
		var frame bytes.Buffer
		if ok {
			err := trace.EncodeDeltaChain(&frame, &trace.DeltaChain{Game: p.game, Deltas: []trace.TableDelta{*d}})
			ok = err == nil && frame.Len() < len(flat.Image())
		}
		if ok {
			p.deltas = append(p.deltas, d)
			if len(p.deltas) > p.deltaCap {
				p.deltas = append([]*trace.TableDelta(nil), p.deltas[len(p.deltas)-p.deltaCap:]...)
			}
			p.frame = frame.Bytes()
		} else {
			p.deltas, p.frame = nil, nil
		}
	}
	p.flat = flat
	p.version++
	p.latest = &TableUpdate{
		Game:           p.game,
		Version:        p.version,
		Selection:      res.Selection,
		Table:          flat,
		Metrics:        res.Final,
		ProfileRecords: p.profile.Len(),
	}
	return p.latest, nil
}

// diffFlat is the diff Rebuild verifies and serves; a test wraps it to
// tamper with a delta before the verify.
var diffFlat = memo.DiffFlat

// Latest returns the most recent update, or nil if none was built.
func (p *Profiler) Latest() *TableUpdate {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latest
}

// DeltaChainFrom returns the encoded SNIPDLT2 frame of the consecutive
// deltas that carry a device from generation gen to the latest version,
// oldest first, or nil when the chain cannot serve it (device already
// current or ahead, never fetched a table, too far behind for the
// retained chain, or the chain was broken) — the caller then serves the
// full image. A one-link chain is the frame Rebuild already encoded;
// longer chains are encoded per call. The returned bytes are shared:
// callers must not modify them.
func (p *Profiler) DeltaChainFrom(gen int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen <= 0 || p.latest == nil || gen >= p.version {
		return nil, nil
	}
	needed := p.version - gen
	if needed > len(p.deltas) {
		return nil, nil
	}
	links := p.deltas[len(p.deltas)-needed:]
	if links[0].FromVersion != gen {
		return nil, nil
	}
	if needed == 1 {
		return p.frame, nil
	}
	c := &trace.DeltaChain{Game: p.game, Deltas: make([]trace.TableDelta, len(links))}
	for i, d := range links {
		c.Deltas[i] = *d
	}
	var buf bytes.Buffer
	if err := trace.EncodeDeltaChain(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DeltaChainLen reports how many consecutive deltas are currently
// retained (the /v1/shardz rollup).
func (p *Profiler) DeltaChainLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.deltas)
}

// Learner drives the continuous-learning loop of Fig. 12 (Option 2 in
// §V-B): each epoch, a played session's events are uploaded, the profile
// grows, PFI retrains, and the next session runs against the fresher
// table. It wraps a Profiler with the epoch bookkeeping.
type Learner struct {
	Profiler *Profiler
	// InitialTruncate, when positive, caps the profile at that many
	// records before the FIRST rebuild — the paper's artificially
	// insufficient initial profile.
	InitialTruncate int

	epochs int
}

// NewLearner builds a continuous learner over a fresh profiler.
func NewLearner(game string, cfg pfi.Config, initialTruncate int) *Learner {
	return &Learner{Profiler: NewProfiler(game, cfg), InitialTruncate: initialTruncate}
}

// Epoch ingests one more play session and rebuilds the table. On the
// first epoch, the profile is truncated to the configured insufficient
// size before training.
func (l *Learner) Epoch(session *trace.Dataset) (*TableUpdate, error) {
	l.epochs++
	if l.epochs == 1 && l.InitialTruncate > 0 {
		l.Profiler.IngestDataset(session.Truncate(l.InitialTruncate))
	} else {
		l.Profiler.IngestDataset(session)
	}
	return l.Profiler.Rebuild()
}

// Epochs returns how many sessions have been ingested.
func (l *Learner) Epochs() int { return l.epochs }

// BackendCost estimates the cloud-side processing cost of building a
// table from a profile, in the units the paper reports (§VII-C): CPU-core
// seconds on a Xeon-class server, dominated by the PFI search — per field
// and elimination round, one pass over the profile.
func BackendCost(profileRecords, inputFields int) (coreSeconds float64) {
	// One pass over R records with F fields costs ~R×F key hashes; the
	// search runs O(F²) passes (importance + elimination) at ≈5M
	// field-hashes per core-second.
	passes := float64(inputFields * inputFields)
	return passes * float64(profileRecords) * float64(inputFields) / 5e6 / 100
}
