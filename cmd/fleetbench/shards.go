package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"snip"
	"snip/internal/cloud"
	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

// The shard sweep: pre-record the same multi-game session corpus once,
// then replay it against the profiler tier at each shard count — one
// uploader goroutine per game, batch ingest followed by a rebuild of
// every game — and measure wall-clock ingest+rebuild throughput. A game
// is wholly owned by one shard (rendezvous routing), so sharding only
// helps across games; the sweep ingests several concurrently to give the
// router something to spread. Every point also fingerprints the flat
// images it fetched back: figures must be byte-identical at every shard
// count, and -validate holds each bench file to that.

// shardPoint is one shard-count measurement in a BENCH_shards.json file.
type shardPoint struct {
	Shards          int     `json:"shards"`
	IngestWallSecs  float64 `json:"ingest_wall_secs"`
	RebuildWallSecs float64 `json:"rebuild_wall_secs"`
	// SessionsPerSec is total sessions over ingest+rebuild wall time —
	// the headline ingest-throughput figure.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// Speedup is this point's throughput over the 1-shard point's.
	Speedup float64 `json:"speedup_vs_first"`
	// QueueShed counts ingest requests the shard queues turned away
	// (HTTP 429); the sweep's paced uploads should never shed.
	QueueShed int64 `json:"queue_shed"`
	// TablesFNV folds every game's rebuilt flat image (in game order)
	// through FNV-1a. Identical across shard counts or the router broke
	// determinism.
	TablesFNV uint64 `json:"tables_fnv"`
}

// shardFile is the BENCH_shards.json schema (bench "shards").
type shardFile struct {
	Bench           string       `json:"bench"` // always "shards"
	Games           []string     `json:"games"`
	SessionsPerGame int          `json:"sessions_per_game"`
	SessionSecs     int          `json:"session_secs"`
	GoMaxProcs      int          `json:"gomaxprocs"`
	Backend         string       `json:"backend"` // always "flat"
	DeltaCap        int          `json:"delta_chain_cap,omitempty"`
	Points          []shardPoint `json:"points"`
}

// runShardSweep records the corpus, sweeps the shard counts and writes
// the bench file.
func runShardSweep(spec string, gamesN, sessionsPerGame, secs, deltaCap int, out string) error {
	counts, err := parseCounts(spec)
	if err != nil {
		return err
	}
	if sessionsPerGame < 1 {
		return fmt.Errorf("need at least one session per game")
	}
	games := snip.Games()
	if gamesN < 1 || gamesN > len(games) {
		gamesN = len(games)
	}
	games = games[:gamesN]
	dur := units.Time(secs) * units.Second

	fmt.Fprintf(os.Stderr, "recording %d sessions x %d games...\n", sessionsPerGame, gamesN)
	corpus := make(map[string][]trace.SessionEvents, gamesN)
	for gi, g := range games {
		for s := 0; s < sessionsPerGame; s++ {
			seed := uint64(8200 + gi*100 + s)
			r, err := schemes.Run(schemes.Config{
				Game: g, Seed: seed, Duration: dur,
				Scheme: schemes.Baseline, CollectEventLog: true,
			})
			if err != nil {
				return fmt.Errorf("record %s: %w", g, err)
			}
			corpus[g] = append(corpus[g], trace.SessionEvents{Seed: seed, Log: r.EventLog})
		}
	}

	file := &shardFile{
		Bench: "shards", Games: games,
		SessionsPerGame: sessionsPerGame, SessionSecs: secs,
		GoMaxProcs: runtime.GOMAXPROCS(0), Backend: "flat", DeltaCap: deltaCap,
	}
	for _, n := range counts {
		pt, err := shardPointOnce(n, games, corpus, deltaCap)
		if err != nil {
			return err
		}
		if len(file.Points) > 0 {
			pt.Speedup = pt.SessionsPerSec / file.Points[0].SessionsPerSec
		} else {
			pt.Speedup = 1
		}
		file.Points = append(file.Points, pt)
		fmt.Fprintf(os.Stderr,
			"shards=%d  ingest=%.3fs rebuild=%.3fs  %.1f sessions/sec  speedup=%.2fx  shed=%d  tables=%016x\n",
			pt.Shards, pt.IngestWallSecs, pt.RebuildWallSecs, pt.SessionsPerSec,
			pt.Speedup, pt.QueueShed, pt.TablesFNV)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d points)\n", out, len(file.Points))
	return nil
}

// shardPointOnce boots a fresh sharded service, replays the corpus with
// one uploader goroutine per game, rebuilds every game concurrently and
// fingerprints the resulting tables.
func shardPointOnce(shards int, games []string, corpus map[string][]trace.SessionEvents, deltaCap int) (shardPoint, error) {
	pt := shardPoint{Shards: shards}
	svc := cloud.NewServiceWithOptions(pfi.DefaultConfig(), cloud.ServiceOptions{Shards: shards, DeltaCap: deltaCap})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pt, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String()

	// perGame fans one closure per game and returns the first error.
	perGame := func(fn func(g string) error) error {
		var wg sync.WaitGroup
		errs := make([]error, len(games))
		for i, g := range games {
			wg.Add(1)
			go func(i int, g string) {
				defer wg.Done()
				errs[i] = fn(g)
			}(i, g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	t0 := time.Now()
	if err := perGame(func(g string) error {
		_, err := cloud.NewClient(url).UploadBatch(g, corpus[g])
		return err
	}); err != nil {
		return pt, fmt.Errorf("ingest (shards=%d): %w", shards, err)
	}
	pt.IngestWallSecs = time.Since(t0).Seconds()

	t1 := time.Now()
	if err := perGame(func(g string) error {
		return cloud.NewClient(url).Rebuild(g)
	}); err != nil {
		return pt, fmt.Errorf("rebuild (shards=%d): %w", shards, err)
	}
	pt.RebuildWallSecs = time.Since(t1).Seconds()

	sessions := 0
	h := fnv.New64a()
	client := cloud.NewClient(url)
	for _, g := range games {
		sessions += len(corpus[g])
		up, err := client.FetchTable(g)
		if err != nil {
			return pt, fmt.Errorf("fetch %s (shards=%d): %w", g, shards, err)
		}
		flat, ok := up.Table.(*memo.FlatTable)
		if !ok {
			return pt, fmt.Errorf("fetch %s (shards=%d): not a flat table", g, shards)
		}
		h.Write(flat.Image())
	}
	pt.TablesFNV = h.Sum64()
	if wall := pt.IngestWallSecs + pt.RebuildWallSecs; wall > 0 {
		pt.SessionsPerSec = float64(sessions) / wall
	}
	for _, sh := range svc.Shardz().PerShard {
		pt.QueueShed += sh.QueueShed
	}
	return pt, nil
}

// validateShardSweep gates a BENCH_shards.json file: monotone shard
// counts, positive throughput, no shed ingest, and — the property the
// router exists to keep — the same table fingerprint at every count.
func validateShardSweep(b []byte) error {
	var f shardFile
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	if f.Bench != "shards" {
		return fmt.Errorf("bench %q, want \"shards\"", f.Bench)
	}
	if len(f.Games) == 0 || f.SessionsPerGame < 1 || f.SessionSecs < 1 {
		return fmt.Errorf("missing sweep settings")
	}
	if f.Backend != "flat" {
		return fmt.Errorf("backend %q, want flat", f.Backend)
	}
	if len(f.Points) == 0 {
		return fmt.Errorf("no points")
	}
	for i, p := range f.Points {
		switch {
		case p.Shards < 1:
			return fmt.Errorf("point %d: bad shard count %d", i, p.Shards)
		case i > 0 && p.Shards <= f.Points[i-1].Shards:
			return fmt.Errorf("point %d: shard counts not increasing", i)
		case p.SessionsPerSec <= 0 || p.IngestWallSecs <= 0 || p.RebuildWallSecs <= 0:
			return fmt.Errorf("point %d: missing throughput", i)
		case p.Speedup <= 0:
			return fmt.Errorf("point %d: missing speedup", i)
		case p.QueueShed != 0:
			return fmt.Errorf("point %d: shard queues shed %d paced uploads", i, p.QueueShed)
		case p.TablesFNV == 0:
			return fmt.Errorf("point %d: missing table fingerprint", i)
		case p.TablesFNV != f.Points[0].TablesFNV:
			return fmt.Errorf("point %d: tables diverged across shard counts (%016x vs %016x)",
				i, p.TablesFNV, f.Points[0].TablesFNV)
		}
	}
	return nil
}
