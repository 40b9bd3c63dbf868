// Command calibrate prints the characterization metrics of every game
// under the baseline scheme next to the paper's targets — the tool used
// to tune game mechanics, workload behaviour and the power model so the
// reproduction matches the published shape.
package main

import (
	"flag"
	"fmt"
	"os"

	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

func main() {
	secs := flag.Int("secs", 60, "simulated session length in seconds")
	seed := flag.Uint64("seed", 1, "session seed")
	withPFI := flag.Bool("pfi", false, "also run PFI + SNIP per game")
	game := flag.String("game", "", "restrict to one game")
	flag.Parse()

	dur := units.Time(*secs) * units.Second
	names := games.Names()
	if *game != "" {
		names = []string{*game}
	}
	fmt.Printf("idle phone: %.1f h\n", schemes.IdlePhoneHours(nil))
	fmt.Printf("%-13s %7s %7s %7s %7s %7s | %6s %6s %6s %6s | %6s %7s\n",
		"game", "events", "useless", "wasteE", "repeat", "redund", "sens%", "mem%", "cpu%", "ips%", "batt_h", "elapsed")
	for _, n := range names {
		res, err := schemes.Profile(n, *seed, dur)
		if err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			os.Exit(1)
		}
		d := res.Dataset
		rep := d.RepeatedFraction()
		red := d.RedundantFraction()
		b := res.Breakdown
		wasteE := float64(res.UselessEnergy) / float64(res.Energy)
		fmt.Printf("%-13s %7d %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %5.1f%% %5.1f%% %5.1f%% %5.1f%% | %6.2f %7v\n",
			n, res.Events, 100*res.UselessFraction(), 100*wasteE, 100*rep, 100*red,
			100*b[0], 100*b[1], 100*b[2], 100*b[3], res.BatteryHours(), res.Elapsed)

		if *withPFI {
			// Profile on OTHER users' sessions (different seeds); deploy
			// on this session's seed — the honest generalization test.
			profile := &trace.Dataset{Game: n}
			for ps := uint64(0xA1); ps < 0xA9; ps++ {
				p, err := schemes.Profile(n, ps, dur)
				if err != nil {
					fmt.Fprintln(os.Stderr, "profile:", err)
					os.Exit(1)
				}
				profile.Merge(p.Dataset)
			}
			pfiCfg := pfi.DefaultConfig()
			pfiCfg.ForceInclude = games.ForceInclude(n, pfiCfg.ForceInclude)
			pr, err := pfi.Run(profile, pfiCfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pfi:", err)
				os.Exit(1)
			}
			table, err := memo.BuildFlat(profile, pr.Selection)
			if err != nil {
				fmt.Fprintln(os.Stderr, "table:", err)
				os.Exit(1)
			}
			snip, err := schemes.Run(schemes.Config{
				Game: n, Seed: *seed, Duration: dur, Scheme: schemes.SNIP,
				Table: table, EvalCorrectness: true,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "snip:", err)
				os.Exit(1)
			}
			base := res.Energy
			maxCPU, _ := schemes.Run(schemes.Config{Game: n, Seed: *seed, Duration: dur, Scheme: schemes.MaxCPU})
			maxIP, _ := schemes.Run(schemes.Config{Game: n, Seed: *seed, Duration: dur, Scheme: schemes.MaxIP})
			noOv, _ := schemes.Run(schemes.Config{Game: n, Seed: *seed, Duration: dur, Scheme: schemes.NoOverheads, Table: table})
			sav := func(r *schemes.Result) float64 { return 100 * (1 - float64(r.Energy)/float64(base)) }
			fmt.Printf("    pfi: sel=%v/%v cov=%4.1f%% errNT=%.3f%% errT=%4.1f%% | snipCov=%4.1f%% save: cpu=%4.1f%% ip=%4.1f%% snip=%4.1f%% noov=%4.1f%% | tbl=%v err T/H/X=%d/%d/%d of %d\n",
				pr.SelectedBytes, pr.InputBytesTotal,
				100*pr.Final.Coverage, 100*pr.Final.NonTempError, 100*pr.Final.TempError,
				100*snip.CoverageFraction(), sav(maxCPU), sav(maxIP), sav(snip), sav(noOv),
				table.Size(), snip.Errors.ErrTemp, snip.Errors.ErrHistory, snip.Errors.ErrExtern, snip.Errors.PredictedFields)
		}
	}
}
