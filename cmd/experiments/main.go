// Command experiments regenerates every table and figure of the paper in
// one run, printing the same rows/series the paper reports alongside the
// published numbers.
//
// Usage:
//
//	experiments                # all figures at default scale
//	experiments -fig 11        # one figure
//	experiments -secs 90 -profile-sessions 12
//
// The parallel runners use GOMAXPROCS workers; every count prints the
// same bytes.
package main

import (
	"flag"
	"fmt"
	"os"

	"snip"
)

func main() {
	fig := flag.String("fig", "all", "which figure: 2,3,4,6,7,8,9,11,12,table1,backend,all")
	secs := flag.Int("secs", 45, "simulated seconds per session")
	sessions := flag.Int("profile-sessions", 8, "training sessions per game")
	epochs := flag.Int("epochs", 12, "continuous-learning epochs (fig 12)")
	flag.Parse()

	scale := snip.ExperimentScale{SessionSeconds: *secs, ProfileSessions: *sessions}
	w := os.Stdout

	var err error
	switch *fig {
	case "2":
		_, err = snip.Fig2(w, scale)
	case "3":
		_, err = snip.Fig3(w, scale)
	case "4":
		_, err = snip.Fig4(w, scale)
	case "6":
		_, err = snip.Fig6(w, scale)
	case "7":
		_, err = snip.Fig7(w, scale)
	case "8":
		_, err = snip.Fig8(w, scale)
	case "9":
		_, err = snip.Fig9(w, scale)
	case "11":
		_, err = snip.Fig11(w, scale)
	case "12":
		_, err = snip.Fig12(w, scale, *epochs)
	case "table1":
		_, err = snip.TableI(w, scale)
	case "backend":
		_, err = snip.BackendCosts(w, scale)
	case "all":
		err = snip.AllFigures(w, scale)
	default:
		err = fmt.Errorf("unknown figure %q", *fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
