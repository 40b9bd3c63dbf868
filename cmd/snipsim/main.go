// Command snipsim runs one simulated game session under a chosen scheme
// and prints its energy report. With -scheme snip it first profiles the
// game on training seeds and builds the PFI lookup table, reproducing the
// full Fig. 10 pipeline in one shot.
//
// Usage:
//
//	snipsim -game ABEvolution -scheme snip -secs 60
//	snipsim -game RaceKings -scheme baseline
//	snipsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"snip"
)

func main() {
	game := flag.String("game", "ABEvolution", "game workload (see -list)")
	scheme := flag.String("scheme", "baseline", "baseline | max-cpu | max-ip | snip | no-overheads")
	secs := flag.Int("secs", 45, "simulated session seconds")
	seed := flag.Uint64("seed", 1, "session seed (the user)")
	profileSessions := flag.Int("profile-sessions", 8, "training sessions for the SNIP table")
	fleetN := flag.Int("fleet", 0, "serve the built table to N concurrent devices and report lookup rates (snip scheme only)")
	list := flag.Bool("list", false, "list game workloads and exit")
	check := flag.Bool("check", true, "shadow-check short-circuit correctness (snip only)")
	shadowRate := flag.Float64("shadow-rate", 0, "sampled shadow-verification rate for memo hits, 0..1 (snip only; needs -check=false, which verifies every hit)")
	metricsMode := flag.String("metrics", "", "dump collected metrics at exit: text (Prometheus) | json")
	flag.Parse()

	if *metricsMode != "" && *metricsMode != "text" && *metricsMode != "json" {
		fmt.Fprintf(os.Stderr, "snipsim: -metrics must be text or json, got %q\n", *metricsMode)
		os.Exit(2)
	}

	if *list {
		for _, g := range snip.Games() {
			fmt.Println(g)
		}
		return
	}

	opts := snip.Options{
		Game:             *game,
		Seed:             *seed,
		Duration:         time.Duration(*secs) * time.Second,
		Scheme:           snip.Scheme(*scheme),
		CheckCorrectness: *check,
		ShadowSampleRate: *shadowRate,
	}
	var met *snip.Metrics
	if *metricsMode != "" {
		met = snip.NewMetrics()
		opts.Metrics = met
	}

	needsTable := opts.Scheme == snip.SchemeSNIP || opts.Scheme == snip.SchemeNoOverheads || *fleetN > 0
	if needsTable {
		fmt.Fprintf(os.Stderr, "profiling %s on %d training sessions...\n", *game, *profileSessions)
		profile, err := snip.Profile(*game, snip.ProfileOptions{
			Sessions: *profileSessions,
			Duration: opts.Duration,
		})
		fatalIf(err)
		pfiOpts := snip.DefaultPFIOptions()
		pfiOpts.Metrics = met
		table, sel, err := snip.BuildTable(profile, pfiOpts)
		fatalIf(err)
		fmt.Fprintf(os.Stderr, "PFI selected %dB of %dB input fields; table %d rows, %d bytes\n",
			sel.SelectedBytes, sel.TotalInputBytes, table.Rows(), table.SizeBytes())
		if met != nil {
			table.Instrument(met)
		}
		opts.Table = table
	}

	// Fleet mode: skip the energy report, serve the table concurrently.
	if *fleetN > 0 {
		rep, err := snip.RunFleet(snip.FleetOptions{
			Game: *game, Devices: *fleetN, SessionsPerDevice: 1,
			Duration: opts.Duration, SeedBase: *seed,
			Table: snip.NewSharedTable(opts.Table), Metrics: met,
		})
		fatalIf(err)
		fmt.Printf("game:            %s\n", rep.Game)
		fmt.Printf("devices:         %d\n", rep.Devices)
		fmt.Printf("events:          %d\n", rep.Events)
		fmt.Printf("lookups/sec:     %.0f\n", rep.LookupsPerSec)
		fmt.Printf("lookup latency:  p50 %d ns, p99 %d ns (1 probe in 16 timed)\n", rep.P50LookupNS, rep.P99LookupNS)
		fmt.Printf("hit rate:        %.1f%%\n", 100*rep.HitRate)
		switch *metricsMode {
		case "text":
			fatalIf(met.WriteText(os.Stderr))
		case "json":
			fatalIf(met.WriteJSON(os.Stderr))
		}
		return
	}

	// Always run the baseline too, for the saving comparison.
	baseOpts := opts
	baseOpts.Scheme = snip.SchemeBaseline
	baseOpts.Table = nil
	baseline, err := snip.Play(baseOpts)
	fatalIf(err)

	rep := baseline
	if opts.Scheme != snip.SchemeBaseline && opts.Scheme != "" {
		rep, err = snip.Play(opts)
		fatalIf(err)
	}

	fmt.Printf("game:            %s\n", rep.Game)
	fmt.Printf("scheme:          %s\n", rep.Scheme)
	fmt.Printf("events:          %d\n", rep.Events)
	fmt.Printf("simulated time:  %.1f s\n", rep.SimulatedSeconds)
	fmt.Printf("energy:          %.2f J (baseline %.2f J)\n", rep.EnergyJoules, baseline.EnergyJoules)
	fmt.Printf("saving:          %.1f%%\n", 100*rep.SavingVs(baseline))
	fmt.Printf("battery life:    %.2f h (baseline %.2f h, idle phone %.1f h)\n",
		rep.BatteryHours, baseline.BatteryHours, snip.IdlePhoneHours())
	fmt.Printf("breakdown:       Sensors %.1f%% | Memory %.1f%% | CPU %.1f%% | IPs %.1f%%\n",
		100*rep.EnergyBreakdown["Sensors"], 100*rep.EnergyBreakdown["Memory"],
		100*rep.EnergyBreakdown["CPU"], 100*rep.EnergyBreakdown["IPs"])
	if rep.Scheme == snip.SchemeBaseline {
		fmt.Printf("useless events:  %.1f%% (wasting %.1f%% of energy)\n",
			100*rep.UselessEventFraction, 100*rep.WastedEnergyFraction)
	} else {
		fmt.Printf("short-circuited: %d events, %.1f%% of execution\n",
			rep.ShortCircuited, 100*rep.Coverage)
		fmt.Printf("lookup overhead: %.1f%% of energy\n", 100*rep.LookupOverheadFraction)
		if *shadowRate > 0 {
			fmt.Printf("shadow checks:   %d (%d mispredicts)\n",
				rep.Guard.ShadowChecks, rep.Guard.Mispredicts)
		}
		if rep.ErrorFields.Predicted > 0 {
			fmt.Printf("served fields:   %d (errors: %d temp, %d history, %d extern)\n",
				rep.ErrorFields.Predicted, rep.ErrorFields.Temp,
				rep.ErrorFields.History, rep.ErrorFields.Extern)
		}
	}

	// The metrics snapshot goes to stderr so the report on stdout stays
	// byte-identical with and without instrumentation.
	switch *metricsMode {
	case "text":
		fatalIf(met.WriteText(os.Stderr))
	case "json":
		fatalIf(met.WriteJSON(os.Stderr))
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "snipsim:", err)
		os.Exit(1)
	}
}
