// Command fleetbench is the reproducible fleet-serving load harness: it
// trains a SNIP table, spins up an in-process cloud profiler, then runs
// the device fleet at each requested concurrency, measuring fleet-wide
// lookups/sec, p50/p99 probe latency, batched-upload wire bytes and the
// live OTA swap. Results go to a JSON bench file. Each sweep point also
// runs the device energy ledger, ships per-generation device telemetry
// and prints the cloud's drift / ingest-pressure verdicts from
// GET /v1/fleetz.
//
// It also hosts the lookup-only microbench: -lookup-sweep measures the
// map and flat table backends head to head across row counts (1k–10M)
// without any fleet machinery in the way.
//
// Devices run on a shared scheduler (a fixed pool of 2×GOMAXPROCS
// workers claiming device indexes), so -devices 100000 runs on one box;
// past snip.FleetDetailMax devices reports carry aggregates only. Every
// fleet speaks the 429 backpressure contract; against a
// cloud configured to shed (-shard-queue-cap, -quota-rate, -quota-burst)
// -validate proves the conservation identity offered = accepted + shed
// + dropped on both the device and cloud ledgers, with guard-class
// traffic never shed.
//
// Usage:
//
//	fleetbench -game Colorphun -devices 1,2,4,8 -out BENCH_fleet.json
//	fleetbench -devices 100000 -ota=false -quota-rate 50 -out BENCH_overload.json
//	fleetbench -lookup-sweep default -out BENCH_lookup.json
//	fleetbench -validate BENCH_fleet.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"snip"
	"snip/internal/cloud"
)

// benchFile is the BENCH_fleet.json schema. The ci.sh smoke gate runs a
// short bench and then -validate, which checks exactly these fields.
type benchFile struct {
	Bench             string `json:"bench"` // always "fleet"
	Game              string `json:"game"`
	SessionsPerDevice int    `json:"sessions_per_device"`
	SessionSecs       int    `json:"session_secs"`
	BatchSize         int    `json:"batch_size"`
	// GoMaxProcs records the runtime's GOMAXPROCS at run time (set it
	// with the GOMAXPROCS environment variable), so bench files are
	// comparable across machines and pinned runs.
	GoMaxProcs int `json:"gomaxprocs"`
	// Backend names the table backend the sweep served from: always
	// "flat", the zero-copy image.
	Backend string `json:"backend,omitempty"`
	// Shards is the cloud-side shard count each run's service was built
	// with; DeltaCap the longest delta chain /v1/update ships before
	// falling back to a full image (0 = service default); Refreshes how
	// many OTA rounds each run performed.
	Shards    int `json:"shards"`
	DeltaCap  int `json:"delta_chain_cap,omitempty"`
	Refreshes int `json:"refreshes,omitempty"`
	// Chaos names the fault-injection profile the sweep ran under (""
	// or "off" = none); ChaosSeed its seed; ShadowRate the mispredict
	// guard's sampling rate (0 = guard off). Validation relaxes the
	// strict invariants for chaos runs: crashed devices legitimately
	// play fewer sessions and corrupted uploads legitimately retry.
	Chaos      string  `json:"chaos,omitempty"`
	ChaosSeed  uint64  `json:"chaos_seed,omitempty"`
	ShadowRate float64 `json:"shadow_rate,omitempty"`
	// Workload names the behaviour-model preset the sweep ran under
	// ("" = default human play, "eventcam" = high-rate sensor overlay).
	Workload string `json:"workload,omitempty"`
	// ShardQueueCap is the per-shard ingest queue bound the cloud ran
	// with (0 = service default).
	ShardQueueCap int `json:"shard_queue_cap,omitempty"`
	// QuotaRate/QuotaBurst are the per-game bulk-ingest token-bucket
	// quota the cloud enforced (0 = no quota). A quota or a queue bound
	// means the cloud was configured to shed (see sheds): validation
	// then lets a clean run shed and drop batches and lose telemetry,
	// and requires an overloadz snapshot on every run.
	QuotaRate  float64     `json:"quota_rate,omitempty"`
	QuotaBurst float64     `json:"quota_burst,omitempty"`
	Runs       []*fleetRun `json:"runs"`
}

// fleetRun is one sweep point: the fleet report plus the cloud's
// admission-controller view (GET /v1/overloadz) captured right after
// the run.
type fleetRun struct {
	*snip.FleetReport
	Overloadz *cloud.OverloadzReply `json:"overloadz,omitempty"`
}

func main() {
	game := flag.String("game", "Colorphun", "game workload")
	devices := flag.String("devices", "1,2,4,8", "comma-separated device counts to sweep")
	sessions := flag.Int("sessions", 2, "sessions per device")
	secs := flag.Int("secs", 15, "simulated seconds per session")
	batch := flag.Int("batch", 2, "sessions per batched upload")
	profileSessions := flag.Int("profile-sessions", 4, "training sessions for the initial table")
	ota := flag.Bool("ota", true, "perform a live OTA rebuild+swap mid-run")
	refreshAfter := flag.Int("refresh-after", 0, "trigger the OTA refresh after this many uploaded sessions (0 = half the fleet's sessions)")
	refreshes := flag.Int("refreshes", 1, "OTA refresh rounds per run; rounds past the first ride the delta update path")
	shards := flag.Int("shards", 1, "cloud-side profiler shard count behind the rendezvous router")
	deltaCap := flag.Int("delta-cap", 0, "longest delta chain /v1/update ships before falling back to a full image (0 = service default)")
	shardSweep := flag.String("shard-sweep", "", `run the ingest+rebuild throughput sweep across shard counts instead of the fleet: comma-separated counts (e.g. "1,2,4,8")`)
	shardGames := flag.Int("shard-games", 6, "games ingested concurrently per shard-sweep point")
	shardSessions := flag.Int("shard-sessions", 4, "recorded sessions uploaded per game per shard-sweep point")
	chaosProf := flag.String("chaos", "", "fault-injection profile: off|sensors|devices|wire|table|all")
	chaosSeed := flag.Uint64("chaos-seed", 0, "chaos RNG seed (0 = fixed default)")
	shadowRate := flag.Float64("shadow-rate", 0, "mispredict-guard shadow-verification sample rate (0 = guard off)")
	workloadPreset := flag.String("workload", "", `behaviour-model preset: "" or "default" (human play), "eventcam" (high-rate sensor overlay, 10-100x event rate)`)
	queueCap := flag.Int("shard-queue-cap", 0, "per-shard ingest queue bound on the cloud (0 = service default, 64)")
	quotaRate := flag.Float64("quota-rate", 0, "per-game bulk-ingest quota: sustained requests/second (0 = no quota)")
	quotaBurst := flag.Float64("quota-burst", 0, "per-game quota burst capacity (0 = same as -quota-rate)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	sweep := flag.String("lookup-sweep", "", `run the lookup-only map-vs-flat microbench instead of the fleet: comma-separated row counts (k/m suffixes ok) or "default" for 1k,10k,100k,1m,10m`)
	sweepOps := flag.Int("sweep-ops", 200000, "lookups measured per sweep point and backend")
	out := flag.String("out", "BENCH_fleet.json", "bench file to write")
	metricsMode := flag.String("metrics", "", `dump the fleet-side metrics after the sweep: "text" (Prometheus exposition) or "json" (snapshot)`)
	validate := flag.String("validate", "", "validate an existing bench file and exit")
	flag.Parse()

	if *metricsMode != "" && *metricsMode != "text" && *metricsMode != "json" {
		fmt.Fprintf(os.Stderr, "fleetbench: -metrics %q: want text or json\n", *metricsMode)
		os.Exit(2)
	}

	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench: invalid:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *validate)
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatalIf(err)
		fatalIf(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memprofile)

	if *sweep != "" {
		fatalIf(runSweep(*sweep, *sweepOps, *out))
		return
	}
	if *shardSweep != "" {
		fatalIf(runShardSweep(*shardSweep, *shardGames, *shardSessions, *secs, *deltaCap, *out))
		return
	}

	counts, err := parseCounts(*devices)
	fatalIf(err)
	dur := time.Duration(*secs) * time.Second

	fmt.Fprintf(os.Stderr, "training %s table on %d sessions...\n", *game, *profileSessions)
	profile, err := snip.Profile(*game, snip.ProfileOptions{
		Sessions: *profileSessions, Duration: dur,
	})
	fatalIf(err)
	table, _, err := snip.BuildTable(profile, snip.DefaultPFIOptions())
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "table: %d rows, %d bytes (flat image %d bytes)\n",
		table.Rows(), table.SizeBytes(), table.ImageBytes())

	file := &benchFile{
		Bench: "fleet", Game: *game,
		SessionsPerDevice: *sessions, SessionSecs: *secs, BatchSize: *batch,
		GoMaxProcs: runtime.GOMAXPROCS(0), Backend: "flat",
		Shards: *shards, DeltaCap: *deltaCap, Refreshes: *refreshes,
		Chaos: *chaosProf, ChaosSeed: *chaosSeed, ShadowRate: *shadowRate,
		Workload:      *workloadPreset,
		ShardQueueCap: *queueCap, QuotaRate: *quotaRate, QuotaBurst: *quotaBurst,
	}
	// One Metrics across the sweep: the snip_fleet_* series accumulate
	// over every device count, and the span ring retains the tail of the
	// last runs' traces.
	met := snip.NewMetrics()
	for _, n := range counts {
		rep, fz, ez, err := runOnce(file, table, *ota, *refreshAfter, n, met)
		fatalIf(err)
		file.Runs = append(file.Runs, rep)
		health := "healthy"
		if rep.Health != nil && !rep.Health.Healthy {
			health = "DEGRADED"
		}
		fmt.Fprintf(os.Stderr,
			"devices=%d  %.0f lookups/sec  p50=%dns p99=%dns  hit=%.1f%%  wire=%dB (saved %.1f%%)  swaps=%d  retries=%d  %s\n",
			n, rep.LookupsPerSec, rep.P50LookupNS, rep.P99LookupNS,
			100*rep.HitRate, rep.UploadBytes, 100*rep.TransferSavings, rep.Swaps,
			rep.Retries, health)
		if rep.Chaos != nil || rep.Guard != nil {
			line := fmt.Sprintf("          failed_devices=%d", rep.FailedDevices)
			if rep.Chaos != nil {
				line += fmt.Sprintf("  faults=%d (%s)", rep.Chaos.Total, rep.Chaos.Profile)
			}
			if rep.Guard != nil {
				line += fmt.Sprintf("  guard: %d/%d mispredicts, trips=%d rollbacks=%d breaker_open=%v",
					rep.Guard.Mispredicts, rep.Guard.ShadowChecks,
					rep.Guard.Trips, rep.Guard.Rollbacks, rep.Guard.BreakerOpen)
			}
			fmt.Fprintln(os.Stderr, line)
		}
		if file.sheds() {
			fmt.Fprintf(os.Stderr,
				"          overload: offered=%d accepted=%d shed=%d dropped=%d  429s=%d  backoff=%.2fs\n",
				rep.OfferedBatches, rep.Batches, rep.BatchesShed, rep.BatchesDropped,
				rep.Shed429, float64(rep.BackoffNS)/1e9)
			if oz := rep.Overloadz; oz != nil {
				fmt.Fprintf(os.Stderr,
					"          overloadz: occupancy=%.2f shed_ratio=%.3f signal=%.3f (%s)  quota_shed=%d\n",
					oz.Occupancy, oz.ShedRatio, oz.Signal, oz.Verdict, oz.QuotaShed)
				for _, c := range oz.Classes {
					fmt.Fprintf(os.Stderr,
						"            class %-9s offered=%-6d accepted=%-6d shed=%-6d dropped=%d\n",
						c.Class, c.Offered, c.Accepted, c.Shed, c.Dropped)
				}
			}
		}
		if rep.OTAUpdates > 0 {
			fmt.Fprintf(os.Stderr,
				"          ota: %d updates, %dB wire (delta %dB / full %dB)  delta_applies=%d links=%d max_chain=%d full_fallbacks=%d\n",
				rep.OTAUpdates, rep.OTABytes, rep.OTADeltaBytes, rep.OTAFullBytes,
				rep.OTADeltaApplies, rep.OTADeltaLinks, rep.OTAMaxChain, rep.OTAFullFallbacks)
		}
		if rep.Telemetry != nil {
			fmt.Fprintf(os.Stderr, "          telemetry: %d records / %d batches (%dB wire, dropped %d)\n",
				rep.Telemetry.Records, rep.Telemetry.Batches,
				rep.Telemetry.UploadBytes, rep.Telemetry.Dropped)
		}
		if e := rep.Energy; e != nil {
			fmt.Fprintf(os.Stderr,
				"          energy: %.1fmJ (%.2fµJ/event, saved %.1fmJ)  battery=%.1fh  groups: sensors=%.1f%% mem=%.1f%% cpu=%.1f%% ips=%.1f%%\n",
				e.TotalUJ/1000, e.EnergyPerEventUJ, e.SavedUJ/1000, e.BatteryHours,
				100*e.SensorsUJ/e.TotalUJ, 100*e.MemoryUJ/e.TotalUJ,
				100*e.CPUUJ/e.TotalUJ, 100*e.IPsUJ/e.TotalUJ)
		}
		for _, g := range fz.Games {
			fmt.Fprintf(os.Stderr,
				"          fleetz: live_gen=%d prev=%d  drift=%+.3f (%s)  pressure=%.2f (%s)\n",
				g.LiveGeneration, g.PrevGeneration, g.Drift, g.DriftVerdict,
				g.Pressure, g.PressureVerdict)
			for _, gen := range g.Generations {
				fmt.Fprintf(os.Stderr,
					"            gen %-2d  %3d records / %d devices  hit=%5.1f%%  mispredict=%4.1f%%  eff=%5.1f%%\n",
					gen.Generation, gen.Records, gen.Devices, 100*gen.WindowedHitRate,
					100*gen.WindowedMispredict, 100*gen.EffectiveHitRate)
			}
		}
		for _, g := range ez.Games {
			if g.MonotoneViolations != 0 {
				fatalIf(fmt.Errorf("cloud counted %d energy monotone violations for %s (device ledger totals must only grow)",
					g.MonotoneViolations, g.Game))
			}
			fmt.Fprintf(os.Stderr,
				"          energyz: regression=%+.3f (%s)  monotone_violations=%d\n",
				g.Regression, g.RegressionVerdict, g.MonotoneViolations)
			for _, gen := range g.Generations {
				fmt.Fprintf(os.Stderr,
					"            gen %-2d  %6.2fµJ/event (net %6.2f)  battery=%.1fh\n",
					gen.Generation, gen.EnergyPerEventUJ, gen.NetPerEventUJ, gen.BatteryHours)
			}
		}
	}

	f, err := os.Create(*out)
	fatalIf(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	fatalIf(enc.Encode(file))
	fatalIf(f.Close())
	fmt.Printf("wrote %s (%d runs)\n", *out, len(file.Runs))

	switch *metricsMode {
	case "text":
		fatalIf(met.WriteText(os.Stdout))
	case "json":
		fatalIf(met.WriteJSON(os.Stdout))
	}
}

// runOnce measures one device count against a fresh in-process cloud, so
// sweep points don't feed each other's profiles. It runs the settings
// file records, plus the three inputs the file does not record: the
// table, -ota and -refresh-after. It also reads the cloud's /v1/fleetz
// and /v1/energyz rollups before the service goes away, so the drift and
// ingest-pressure verdicts the run produced are visible in the sweep
// output. Every run also captures /v1/overloadz — the
// admission controller's conservation ledger — and, against a cloud
// configured to shed, probes /v1/healthz to prove guard-class traffic is
// never shed.
func runOnce(file *benchFile, table *snip.Table, ota bool, refreshAfter, devices int, met *snip.Metrics) (*fleetRun, *cloud.FleetzReply, *cloud.EnergyzReply, error) {
	svc := snip.NewCloudService(snip.DefaultPFIOptions(), snip.CloudServiceOptions{
		Shards:          file.Shards,
		QueueCap:        file.ShardQueueCap,
		QuotaRatePerSec: file.QuotaRate,
		QuotaBurst:      file.QuotaBurst,
		DeltaCap:        file.DeltaCap,
	})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	cloudURL := "http://" + ln.Addr().String()
	opts := snip.FleetOptions{
		Game: file.Game, Workload: file.Workload,
		Devices: devices, SessionsPerDevice: file.SessionsPerDevice,
		Duration: time.Duration(file.SessionSecs) * time.Second, SeedBase: 5000,
		Table:     snip.NewSharedTable(table),
		CloudURL:  cloudURL,
		BatchSize: file.BatchSize,
		Metrics:   met,
	}
	if ota {
		// One live rebuild+swap once half the fleet's sessions are in —
		// or earlier/later when -refresh-after overrides the midpoint
		// (an early swap gives a bad OTA generation a longer live window,
		// which is what makes the drift signal visible end to end). With
		// -refreshes > 1 the refresh threshold shrinks so every round fits
		// inside the run; rounds past the first ride the delta path.
		opts.RefreshAfterSessions = (devices*file.SessionsPerDevice + 1) / 2
		if refreshAfter > 0 {
			opts.RefreshAfterSessions = refreshAfter
		}
		opts.Refreshes = file.Refreshes
		if file.Refreshes > 1 {
			if per := devices * file.SessionsPerDevice / (file.Refreshes + 1); per > 0 && refreshAfter == 0 {
				opts.RefreshAfterSessions = per
			}
		}
	}
	if file.Chaos != "" && file.Chaos != "off" {
		opts.Chaos = &snip.ChaosOptions{Profile: file.Chaos, Seed: file.ChaosSeed}
	}
	if file.ShadowRate > 0 {
		opts.Guard = &snip.GuardOptions{ShadowSampleRate: file.ShadowRate}
	}
	rep, err := snip.RunFleet(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	run := &fleetRun{FleetReport: rep}
	if file.sheds() {
		// Guard-class traffic must be admitted even while bulk is being
		// shed: probe the health endpoint right after the run, while the
		// admission controller still remembers its worst occupancy.
		if err := probeHealthz(cloudURL, 3); err != nil {
			return nil, nil, nil, err
		}
	}
	run.Overloadz = new(cloud.OverloadzReply)
	fz, ez := new(cloud.FleetzReply), new(cloud.EnergyzReply)
	for _, v := range []struct {
		path  string
		reply any
	}{{"/v1/overloadz", run.Overloadz}, {"/v1/fleetz", fz}, {"/v1/energyz", ez}} {
		if err := getJSON(cloudURL+v.path, v.reply); err != nil {
			return nil, nil, nil, fmt.Errorf("%s after run: %w", v.path, err)
		}
	}
	return run, fz, ez, nil
}

// sheds reports whether the cloud was configured to shed bulk uploads:
// a per-game quota or a shard queue bound. Only such a cloud may answer
// a clean run's uploads with 429s or a full queue.
func (f *benchFile) sheds() bool {
	return f.QuotaRate > 0 || f.ShardQueueCap > 0
}

// probeHealthz hits GET /v1/healthz n times and fails only on a 429,
// which would mean the admission controller shed guard-class traffic.
// A 503 is fine: under deliberate overload the service legitimately
// reports itself degraded (shed bulk requests count against its error
// ratio) — what matters here is that the request was ADMITTED.
func probeHealthz(base string, n int) error {
	for i := 0; i < n; i++ {
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			return fmt.Errorf("healthz probe: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			return fmt.Errorf("healthz probe %d: HTTP 429 (guard-class traffic must never be shed)", i)
		}
	}
	return nil
}

// getJSON decodes one of the in-process cloud's JSON views into reply.
// The service is local and alive, so any failure here is a harness bug,
// not weather.
func getJSON(url string, reply any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad device count %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("no device counts")
	}
	return counts, nil
}

// validateFile checks a bench file against its schema — the ci.sh smoke
// gate for the harness. Fleet sweeps and lookup sweeps share the gate;
// the "bench" field picks the schema.
func validateFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var probe struct {
		Bench string `json:"bench"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return err
	}
	if probe.Bench == "lookup" {
		return validateSweep(b)
	}
	if probe.Bench == "shards" {
		return validateShardSweep(b)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	if f.Bench != "fleet" {
		return fmt.Errorf("bench %q, want \"fleet\", \"lookup\" or \"shards\"", f.Bench)
	}
	if f.Backend != "" && f.Backend != "flat" {
		return fmt.Errorf("backend %q, want flat", f.Backend)
	}
	if f.Game == "" || f.SessionsPerDevice < 1 || f.SessionSecs < 1 {
		return fmt.Errorf("missing run settings")
	}
	if len(f.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	chaotic := f.Chaos != "" && f.Chaos != "off"
	shedding := f.sheds()
	var totalShed429 int64
	for i, r := range f.Runs {
		totalShed429 += r.Shed429
		if chaotic {
			// Under fault injection crashed devices legitimately play fewer
			// sessions, and wire corruption perturbs the upload accounting —
			// check consistency rather than the strict clean-run invariants.
			switch {
			case r.Sessions > r.Devices*f.SessionsPerDevice:
				return fmt.Errorf("run %d: sessions %d exceed devices %d * %d", i, r.Sessions, r.Devices, f.SessionsPerDevice)
			case r.Sessions < r.Devices*f.SessionsPerDevice && r.FailedDevices == 0:
				return fmt.Errorf("run %d: session shortfall without failed devices", i)
			case r.FailedDevices > r.Devices:
				return fmt.Errorf("run %d: %d failed devices out of %d", i, r.FailedDevices, r.Devices)
			}
		} else {
			switch {
			case r.Sessions != r.Devices*f.SessionsPerDevice:
				return fmt.Errorf("run %d: sessions %d != devices %d * %d", i, r.Sessions, r.Devices, f.SessionsPerDevice)
			case r.FailedDevices != 0:
				return fmt.Errorf("run %d: %d failed devices without chaos", i, r.FailedDevices)
			case r.Batches > 0 && r.UploadBytes >= r.RawUploadBytes:
				return fmt.Errorf("run %d: batching saved nothing (%dB wire vs %dB raw)", i, r.UploadBytes, r.RawUploadBytes)
			}
		}
		switch {
		case r.Lookups <= 0 || r.Events <= 0:
			return fmt.Errorf("run %d: no lookups served", i)
		case r.LookupsPerSec <= 0:
			return fmt.Errorf("run %d: missing lookups/sec", i)
		case r.P50LookupNS <= 0 || r.P99LookupNS < r.P50LookupNS:
			return fmt.Errorf("run %d: bad latency estimates p50=%d p99=%d", i, r.P50LookupNS, r.P99LookupNS)
		}
		if f.ShadowRate > 0 {
			if r.Guard == nil {
				return fmt.Errorf("run %d: shadow rate %.2f but no guard report", i, f.ShadowRate)
			}
			if r.Guard.Trips > 0 && r.Guard.Mispredicts == 0 {
				return fmt.Errorf("run %d: guard tripped with zero mispredicts", i)
			}
		}
		if err := validateOTA(i, r, &f, chaotic); err != nil {
			return err
		}
		// A cloud configured to shed may legitimately drop telemetry: a
		// shed upload (429 to the end) counts its records dropped, never
		// silently.
		if err := validateTelemetry(i, r, chaotic || shedding); err != nil {
			return err
		}
		if err := validateEnergy(i, r); err != nil {
			return err
		}
		if err := validateHealth(i, r, chaotic); err != nil {
			return err
		}
		if err := validateOverload(i, r, shedding, chaotic); err != nil {
			return err
		}
	}
	// A quota-gated sweep must actually have shed: the quota is sized to
	// refuse part of the offered load, and the client ledger counts every
	// 429 it absorbed.
	if f.QuotaRate > 0 && totalShed429 == 0 {
		return fmt.Errorf("sweep with quota rate %.1f/s absorbed zero 429s", f.QuotaRate)
	}
	return nil
}

// validateOverload checks the batch conservation identity on both
// ledgers. Device side: every offered batch ends accepted, shed, or
// dropped. Cloud side (the /v1/overloadz snapshot): the same identity
// per priority class, and the guard class — health and guard probes —
// must never have been shed, no matter how hard bulk was. shedding says
// whether the cloud was configured to shed (see sheds).
func validateOverload(i int, r *fleetRun, shedding, chaotic bool) error {
	switch {
	case r.OfferedBatches != r.Batches+r.BatchesShed+r.BatchesDropped:
		return fmt.Errorf("run %d: offered %d != accepted %d + shed %d + dropped %d",
			i, r.OfferedBatches, r.Batches, r.BatchesShed, r.BatchesDropped)
	case !shedding && r.BatchesShed != 0:
		return fmt.Errorf("run %d: %d batches shed by a cloud without a quota or queue bound", i, r.BatchesShed)
	case !shedding && r.Shed429 != 0:
		return fmt.Errorf("run %d: %d client 429s from a cloud without a quota or queue bound", i, r.Shed429)
	case !chaotic && !shedding && r.BatchesDropped != 0:
		return fmt.Errorf("run %d: %d batches dropped on a clean run", i, r.BatchesDropped)
	case r.BackoffNS < 0:
		return fmt.Errorf("run %d: negative backoff time", i)
	case r.Shed429 > 0 && r.BatchesShed == 0 && r.Batches == 0:
		return fmt.Errorf("run %d: %d client 429s but no batch outcome recorded", i, r.Shed429)
	}
	oz := r.Overloadz
	if oz == nil {
		if shedding {
			return fmt.Errorf("run %d: sweep against a shedding cloud without an overloadz snapshot", i)
		}
		return nil
	}
	if oz.QueueCap < 1 || oz.Shards < 1 {
		return fmt.Errorf("run %d: overloadz reports queue cap %d / %d shards", i, oz.QueueCap, oz.Shards)
	}
	var bulkShed int64
	for _, c := range oz.Classes {
		if c.Offered != c.Accepted+c.Shed+c.Dropped {
			return fmt.Errorf("run %d: class %s offered %d != accepted %d + shed %d + dropped %d",
				i, c.Class, c.Offered, c.Accepted, c.Shed, c.Dropped)
		}
		switch c.Class {
		case "guard":
			if c.Shed != 0 {
				return fmt.Errorf("run %d: admission shed %d guard-class requests (must never happen)", i, c.Shed)
			}
		case "bulk":
			bulkShed = c.Shed
		}
	}
	// Every 429 a device absorbed is a request the cloud's bulk ledger
	// shed; the cloud may have shed more (other callers, retries the
	// budget cut short, rebuild traffic).
	if bulkShed < r.Shed429 {
		return fmt.Errorf("run %d: devices absorbed %d 429s but the cloud ledger shed only %d bulk requests",
			i, r.Shed429, bulkShed)
	}
	return nil
}

// validateOTA checks the delta-OTA accounting every run must balance:
// delta bytes plus full-image bytes (including full-fallback transfers)
// account for every OTA wire byte, and no applied chain may exceed the
// bench's delta cap. Chaos runs keep the arithmetic checks — corruption
// changes which path a round takes, never the accounting identity.
func validateOTA(i int, r *fleetRun, f *benchFile, chaotic bool) error {
	switch {
	case r.OTABytes != r.OTADeltaBytes+r.OTAFullBytes:
		return fmt.Errorf("run %d: ota bytes %d != delta %d + full %d",
			i, r.OTABytes, r.OTADeltaBytes, r.OTAFullBytes)
	case r.OTAUpdates < 0 || r.OTADeltaApplies < 0 || r.OTAFullFallbacks < 0:
		return fmt.Errorf("run %d: negative ota counters", i)
	case r.OTADeltaApplies > 0 && r.OTADeltaLinks < r.OTADeltaApplies:
		return fmt.Errorf("run %d: %d delta applies carried only %d chain links",
			i, r.OTADeltaApplies, r.OTADeltaLinks)
	case r.OTADeltaApplies > 0 && r.OTADeltaBytes <= 0:
		return fmt.Errorf("run %d: delta applies without delta bytes", i)
	case r.OTAUpdates > 0 && r.OTABytes <= 0:
		return fmt.Errorf("run %d: %d ota updates moved no bytes", i, r.OTAUpdates)
	}
	if f.DeltaCap > 0 && r.OTAMaxChain > f.DeltaCap {
		return fmt.Errorf("run %d: applied chain length %d exceeds delta cap %d",
			i, r.OTAMaxChain, f.DeltaCap)
	}
	// Clean runs against a healthy in-process cloud never need the
	// full-image fallback: the device's base always matches the chain.
	if !chaotic && r.OTAFullFallbacks != 0 {
		return fmt.Errorf("run %d: %d full-image fallbacks without chaos", i, r.OTAFullFallbacks)
	}
	// The first round always ships the full image (the boot table has no
	// cloud generation); every later clean round must ride the delta path.
	if !chaotic && r.OTAUpdates > 1 && r.OTADeltaApplies == 0 {
		return fmt.Errorf("run %d: %d update rounds but no round rode the delta path", i, r.OTAUpdates)
	}
	return nil
}

// validateTelemetry checks the telemetry section every run carries (a
// sweep's fleet always has a cloud client): the pipeline must have
// folded records and accounted for every one of them (shipped or
// explicitly dropped — telemetry is best-effort but never silently
// lossy).
func validateTelemetry(i int, r *fleetRun, chaotic bool) error {
	t := r.Telemetry
	switch {
	case t == nil:
		return fmt.Errorf("run %d: no telemetry report", i)
	case t.Records <= 0:
		return fmt.Errorf("run %d: telemetry shipped no records", i)
	case t.Dropped > t.Records:
		return fmt.Errorf("run %d: dropped %d of %d telemetry records", i, t.Dropped, t.Records)
	case t.Batches > 0 && t.UploadBytes <= 0:
		return fmt.Errorf("run %d: %d telemetry batches but no wire bytes", i, t.Batches)
	case t.Batches == 0 && t.Dropped < t.Records:
		return fmt.Errorf("run %d: %d records neither shipped nor accounted lost", i, t.Records-t.Dropped)
	}
	// Clean runs talk to a healthy in-process cloud: best-effort loss is
	// only legitimate under fault injection.
	if !chaotic && t.Dropped != 0 {
		return fmt.Errorf("run %d: %d telemetry records dropped without chaos", i, t.Dropped)
	}
	return nil
}

// validateEnergy checks the energy ledger's conservation identities on
// the energy section every run carries — the same on chaos runs, since fault injection changes what was charged
// but never the accounting arithmetic: the Fig. 2 group fields must sum
// to the total, a run that served events must have charged energy, and
// the derived per-event and battery-hours figures must be present and
// consistent.
func validateEnergy(i int, r *fleetRun) error {
	e := r.Energy
	if e == nil {
		return fmt.Errorf("run %d: no energy report", i)
	}
	sum := e.SensorsUJ + e.MemoryUJ + e.CPUUJ + e.IPsUJ
	switch {
	case r.Events > 0 && e.TotalUJ <= 0:
		return fmt.Errorf("run %d: %d events served but no energy charged", i, r.Events)
	case math.Abs(sum-e.TotalUJ) > 1e-6*math.Max(1, e.TotalUJ):
		return fmt.Errorf("run %d: energy groups sum to %.3fµJ, total says %.3fµJ", i, sum, e.TotalUJ)
	case e.LookupOverheadUJ < 0 || e.ShadowVerifyUJ < 0 || e.SavedUJ < 0 || e.WastedUJ < 0:
		return fmt.Errorf("run %d: negative energy cause bucket", i)
	case r.Hits > 0 && e.SavedUJ <= 0:
		return fmt.Errorf("run %d: hits landed but no short-circuit energy credited", i)
	case e.ElapsedUS <= 0:
		return fmt.Errorf("run %d: energy report carries no elapsed time", i)
	case e.TotalUJ > 0 && (e.EnergyPerEventUJ <= 0 || e.BatteryHours <= 0):
		return fmt.Errorf("run %d: energy charged but per-event/battery figures missing", i)
	}
	if r.Events > 0 {
		if want := e.TotalUJ / float64(r.Events); math.Abs(e.EnergyPerEventUJ-want) > 1e-9*math.Max(1, want) {
			return fmt.Errorf("run %d: energy/event %.6f inconsistent with total/events %.6f", i, e.EnergyPerEventUJ, want)
		}
	}
	return nil
}

// validateHealth checks the health/SLO section every run must carry.
// Chaos runs are allowed to be degraded — that is the point of injecting
// faults — but the report must still be internally consistent.
func validateHealth(i int, r *fleetRun, chaotic bool) error {
	h := r.Health
	// Mega-fleets past the per-device detail bound report aggregates
	// only; smaller fleets must carry one health row per device.
	detail := r.Devices <= snip.FleetDetailMax
	switch {
	case h == nil:
		return fmt.Errorf("run %d: missing health section", i)
	case len(h.Verdicts) == 0:
		return fmt.Errorf("run %d: health carries no SLO verdicts", i)
	case detail && len(h.Devices) != r.Devices:
		return fmt.Errorf("run %d: %d device health entries, want %d", i, len(h.Devices), r.Devices)
	case !detail && len(h.Devices) != 0:
		return fmt.Errorf("run %d: %d device health entries on a compact (>%d device) run",
			i, len(h.Devices), snip.FleetDetailMax)
	case r.Hits > 0 && h.SavedInstr <= 0:
		return fmt.Errorf("run %d: hits but no saved instructions", i)
	case h.P99LookupNS != r.P99LookupNS:
		return fmt.Errorf("run %d: health p99 %d != run p99 %d", i, h.P99LookupNS, r.P99LookupNS)
	}
	if detail {
		failedInHealth := 0
		for _, d := range h.Devices {
			if d.Failed {
				failedInHealth++
			}
		}
		if failedInHealth != r.FailedDevices {
			return fmt.Errorf("run %d: health marks %d failed devices, report says %d", i, failedInHealth, r.FailedDevices)
		}
	}
	for _, v := range h.Verdicts {
		if v.Name == "" {
			return fmt.Errorf("run %d: unnamed SLO verdict", i)
		}
		if !v.OK && v.Detail == "" {
			return fmt.Errorf("run %d: failing verdict %q carries no detail", i, v.Name)
		}
		if !chaotic && !v.OK && v.Name == "failed_devices" {
			return fmt.Errorf("run %d: failed-devices verdict failing without chaos", i)
		}
	}
	return nil
}

// writeMemProfile dumps a post-GC heap profile; a no-op without a path.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fatalIf(err)
	runtime.GC()
	fatalIf(pprof.WriteHeapProfile(f))
	fatalIf(f.Close())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}
