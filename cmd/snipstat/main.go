// Command snipstat is a live text dashboard for a running profilerd:
// it polls /v1/healthz, /v1/metrics, /v1/shardz, /v1/overloadz,
// /v1/fleetz, /v1/energyz and /v1/tracez and renders the service's
// health verdicts, the key ingest counters, the per-shard rollup
// (ingest, queue pressure, delta-vs-full OTA serving), the admission
// controller's overload view (priority-class shed ledgers, per-game
// quotas, the autoscale signal), the fleet-telemetry rollups
// (per-generation hit-rate sparklines and the drift /
// ingest-pressure verdicts), the fleet energy ledger (Fig-2-style
// group breakdown, net-energy-per-event regression verdicts) and the
// most recent distributed traces. Each view decodes into its reply type
// in internal/cloud, the type the service encodes, so the dashboard
// cannot drift from the schema it reads.
//
// Every pane polls independently: a restarting or flapping cloud
// degrades the affected panes in place ("unavailable: ...") while the
// rest keep rendering, and the watch loop keeps polling until the
// service comes back.
//
// Usage:
//
//	snipstat -url http://localhost:8080            # refresh every 2s
//	snipstat -url http://localhost:8080 -once      # one snapshot, then exit
//	snipstat -interval 5s -traces 8
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"snip/internal/cloud"
	"snip/internal/obs"
)

func main() {
	base := flag.String("url", "http://localhost:8080", "profilerd base URL")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "print one snapshot and exit")
	traces := flag.Int("traces", 6, "recent spans to show")
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	url := strings.TrimRight(*base, "/")
	failStreak := 0
	for {
		failed, err := render(os.Stdout, client, url, *traces, !*once, failStreak)
		if failed > 0 {
			failStreak++
			if *once {
				fmt.Fprintln(os.Stderr, "snipstat:", err)
				os.Exit(1)
			}
		} else {
			failStreak = 0
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// fetch reads one endpoint. A non-2xx status other than healthz's
// deliberate 503-with-body is reported as an error so the pane degrades
// instead of rendering garbage.
func fetch(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func fetchJSON(client *http.Client, url string, v any, allow503 bool) (int, error) {
	b, code, err := fetch(client, url)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK && !(allow503 && code == http.StatusServiceUnavailable) {
		return code, fmt.Errorf("HTTP %d", code)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return code, err
	}
	return code, nil
}

// render draws one dashboard frame. Every endpoint is fetched
// independently; a failed fetch degrades its pane in place rather than
// aborting the frame, so the dashboard survives cloud restarts and
// transient errors mid-poll. It returns how many panes failed and the
// first error. clear redraws in place (ANSI home + wipe) for the watch
// loop; -once prints plainly for piping.
func render(w io.Writer, client *http.Client, base string, traces int, clear bool, failStreak int) (int, error) {
	var hz cloud.HealthzReply
	// healthz deliberately answers 503 with a JSON body when degraded —
	// that is a successful poll of an unhealthy service, not a failure.
	hzCode, hzErr := fetchJSON(client, base+"/v1/healthz", &hz, true)

	var series map[string]float64
	metBody, metCode, metErr := fetch(client, base+"/v1/metrics")
	if metErr == nil && metCode != http.StatusOK {
		metErr = fmt.Errorf("HTTP %d", metCode)
	}
	if metErr == nil {
		series = parsePrometheus(string(metBody))
	}

	var sz cloud.ShardzReply
	_, szErr := fetchJSON(client, base+"/v1/shardz", &sz, false)

	var oz cloud.OverloadzReply
	_, ozErr := fetchJSON(client, base+"/v1/overloadz", &oz, false)

	var fz cloud.FleetzReply
	_, fzErr := fetchJSON(client, base+"/v1/fleetz", &fz, false)

	var ez cloud.EnergyzReply
	_, ezErr := fetchJSON(client, base+"/v1/energyz", &ez, false)

	var tz cloud.TracezReply
	_, tzErr := fetchJSON(client, base+"/v1/tracez?limit="+strconv.Itoa(traces), &tz, false)

	out := bufio.NewWriter(w)
	defer out.Flush()
	if clear {
		fmt.Fprint(out, "\033[H\033[2J")
	}

	status := strings.ToUpper(hz.Status)
	switch {
	case hzErr != nil:
		status = "UNREACHABLE"
	case hzCode != http.StatusOK && hz.Status == "ok":
		status = fmt.Sprintf("HTTP %d", hzCode)
	}
	fmt.Fprintf(out, "snipstat  %s  —  %s  up %s  games=%d  spans=%d",
		base, status, time.Duration(hz.UptimeSeconds*float64(time.Second)).Round(time.Second),
		hz.Games, hz.SpansRetained)
	if failStreak > 0 {
		fmt.Fprintf(out, "  (degraded for %d polls)", failStreak)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "\nSLO checks")
	if hzErr != nil {
		fmt.Fprintf(out, "  (unavailable: %v)\n", hzErr)
	}
	for _, c := range hz.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(out, "  [%s] %-28s %10.3f  (threshold %.3f)", mark, c.Name, c.Value, c.Threshold)
		if c.Detail != "" {
			fmt.Fprintf(out, "  %s", c.Detail)
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintln(out, "\nIngest")
	if metErr != nil {
		fmt.Fprintf(out, "  (unavailable: %v)\n", metErr)
	} else {
		for _, row := range []struct{ label, series string }{
			{"uploads", "snip_cloud_uploads_total"},
			{"upload batches", "snip_cloud_upload_batches_total"},
			{"records ingested", "snip_cloud_records_total"},
			{"telemetry batches", "snip_cloud_telemetry_batches_total"},
			{"telemetry records", "snip_cloud_telemetry_records_total"},
			{"rebuilds", "snip_cloud_rebuilds_total"},
			{"tables served", "snip_cloud_tables_served_total"},
		} {
			fmt.Fprintf(out, "  %-20s %12.0f\n", row.label, series[row.series])
		}
		fmt.Fprintln(out, "\nRequests by endpoint")
		var eps []string
		for name := range series {
			if strings.HasPrefix(name, `snip_cloud_requests_total{endpoint="`) {
				eps = append(eps, name)
			}
		}
		sort.Strings(eps)
		for _, name := range eps {
			ep := strings.TrimSuffix(strings.TrimPrefix(name, `snip_cloud_requests_total{endpoint="`), `"}`)
			errs := series[`snip_cloud_request_errors_total{endpoint="`+ep+`"}`]
			fmt.Fprintf(out, "  %-14s %10.0f req  %6.0f err\n", ep, series[name], errs)
		}
	}

	fmt.Fprintf(out, "\nShards (%d, delta cap %d)\n", sz.Shards, sz.DeltaCap)
	if szErr != nil {
		fmt.Fprintf(out, "  (unavailable: %v)\n", szErr)
	}
	for _, sh := range sz.PerShard {
		fmt.Fprintf(out,
			"  #%-3d %-32s %6d sess / %d batches  rebuilds=%d  q=%d/%d shed=%d\n",
			sh.Shard, strings.Join(sh.Games, ","), sh.IngestSessions,
			sh.IngestBatches, sh.Rebuilds, sh.QueueDepth, sh.QueueCap, sh.QueueShed)
		if sh.OTADeltaServed+sh.OTAFullServed > 0 {
			fmt.Fprintf(out,
				"       ota: %d delta (%dB) / %d full (%dB)  max_chain=%d\n",
				sh.OTADeltaServed, sh.OTADeltaBytes,
				sh.OTAFullServed, sh.OTAFullBytes, sh.MaxDeltaChain)
		}
	}

	fmt.Fprintln(out, "\nOverload (admission control)")
	if ozErr != nil {
		fmt.Fprintf(out, "  (unavailable: %v)\n", ozErr)
	} else {
		verdict := strings.ToUpper(oz.Verdict)
		if oz.Verdict == "steady" {
			verdict = oz.Verdict
		}
		fmt.Fprintf(out, "  occupancy=%.2f shed_ratio=%.3f signal=%.3f (%s)  queue_cap=%d x %d shards\n",
			oz.Occupancy, oz.ShedRatio, oz.Signal, verdict, oz.QueueCap, oz.Shards)
		for _, c := range oz.Classes {
			fmt.Fprintf(out, "  %-10s %10d offered  %10d accepted  %8d shed  %8d dropped\n",
				c.Class, c.Offered, c.Accepted, c.Shed, c.Dropped)
		}
		if oz.QuotaRate > 0 {
			fmt.Fprintf(out, "  quota %.1f req/s (burst %.1f)  shed=%d\n",
				oz.QuotaRate, oz.QuotaBurst, oz.QuotaShed)
			for _, q := range oz.Quotas {
				fmt.Fprintf(out, "    %-14s tokens=%6.2f  shed=%d\n", q.Game, q.Tokens, q.Shed)
			}
		}
	}

	fmt.Fprintln(out, "\nFleet telemetry")
	switch {
	case fzErr != nil:
		fmt.Fprintf(out, "  (unavailable: %v)\n", fzErr)
	case len(fz.Games) == 0:
		fmt.Fprintln(out, "  (no device telemetry reported yet)")
	default:
		fmt.Fprintf(out, "  %d records in %d batches\n", fz.Records, fz.Batches)
		for _, g := range fz.Games {
			fmt.Fprintf(out, "  %-14s live_gen=%d prev=%d  drift=%+.3f (%s)  pressure=%.2f (%s)\n",
				g.Game, g.LiveGeneration, g.PrevGeneration, g.Drift, g.DriftVerdict,
				g.Pressure, g.PressureVerdict)
			for _, gen := range g.Generations {
				live := " "
				if gen.Generation == g.LiveGeneration {
					live = "*"
				}
				fmt.Fprintf(out, "   %sgen %-3d hit=%5.1f%% eff=%5.1f%% mispredict=%4.1f%%  %-16s %d dev / %d rec\n",
					live, gen.Generation, 100*gen.WindowedHitRate, 100*gen.EffectiveHitRate,
					100*gen.WindowedMispredict, sparkline(gen.HitHistory, 16), gen.Devices, gen.Records)
			}
		}
	}

	fmt.Fprintln(out, "\nFleet energy")
	switch {
	case ezErr != nil:
		fmt.Fprintf(out, "  (unavailable: %v)\n", ezErr)
	case len(ez.Games) == 0:
		fmt.Fprintln(out, "  (no energy-bearing telemetry yet — run the fleet with the ledger on)")
	default:
		for _, g := range ez.Games {
			fmt.Fprintf(out, "  %-14s live_gen=%d prev=%d  regression=%+.1f%% (%s)",
				g.Game, g.LiveGeneration, g.PrevGeneration, 100*g.Regression, g.RegressionVerdict)
			if g.MonotoneViolations > 0 {
				fmt.Fprintf(out, "  MONOTONE VIOLATIONS=%d", g.MonotoneViolations)
			}
			fmt.Fprintln(out)
			for _, gen := range g.Generations {
				live := " "
				if gen.Generation == g.LiveGeneration {
					live = "*"
				}
				pct := func(v float64) float64 {
					if gen.EnergyUJ <= 0 {
						return 0
					}
					return 100 * v / gen.EnergyUJ
				}
				fmt.Fprintf(out,
					"   %sgen %-3d net=%6.2fµJ/ev raw=%6.2f saved=%.1fmJ batt=%.1fh  %-16s sens=%2.0f%% mem=%2.0f%% cpu=%2.0f%% ips=%2.0f%%\n",
					live, gen.Generation, gen.NetPerEventUJ, gen.EnergyPerEventUJ,
					gen.SavedUJ/1000, gen.BatteryHours, rateSparkline(gen.NetHistory, 16),
					pct(gen.SensorsUJ), pct(gen.MemoryUJ), pct(gen.CPUUJ), pct(gen.IPsUJ))
			}
		}
	}

	fmt.Fprintf(out, "\nRecent traces (%d recorded, %d retained)\n", tz.Total, tz.Retained)
	if tzErr != nil {
		fmt.Fprintf(out, "  (unavailable: %v)\n", tzErr)
	}
	for _, sp := range tz.Spans {
		flag := " "
		if sp.Err {
			flag = "!"
		}
		fmt.Fprintf(out, "  %s%s  %-20s %-7s %10s\n",
			flag, sp.Trace, sp.Name, sp.Service, time.Duration(sp.WallNS).Round(time.Microsecond))
	}
	if clear {
		fmt.Fprintln(out, "\n(ctrl-c to quit)")
	}

	failed := 0
	var firstErr error
	for _, err := range []error{hzErr, metErr, szErr, ozErr, fzErr, ezErr, tzErr} {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return failed, firstErr
}

// sparkLevels are the eight block glyphs a hit-rate bucket maps onto.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the newest max buckets of a windowed ratio series
// (Sum/Count in [0,1]) as a block-glyph strip, oldest first. Empty
// buckets render as spaces so gaps in the window stay visible.
func sparkline(hist []obs.WindowBucket, max int) string {
	if len(hist) > max {
		hist = hist[len(hist)-max:]
	}
	var b strings.Builder
	for _, bk := range hist {
		if bk.Count <= 0 {
			b.WriteByte(' ')
			continue
		}
		r := float64(bk.Sum) / float64(bk.Count)
		i := int(r * float64(len(sparkLevels)))
		if i >= len(sparkLevels) {
			i = len(sparkLevels) - 1
		}
		if i < 0 {
			i = 0
		}
		b.WriteRune(sparkLevels[i])
	}
	return b.String()
}

// rateSparkline renders a windowed rate series (Sum/Count in arbitrary
// units — net µJ per event for the energy pane) normalised against the
// largest rate in view, so the strip shows the shape of the series
// rather than an absolute scale. Negative rates (net credit exceeding
// spend) clamp to the floor glyph.
func rateSparkline(hist []obs.WindowBucket, max int) string {
	if len(hist) > max {
		hist = hist[len(hist)-max:]
	}
	peak := 0.0
	for _, bk := range hist {
		if bk.Count > 0 {
			if r := float64(bk.Sum) / float64(bk.Count); r > peak {
				peak = r
			}
		}
	}
	var b strings.Builder
	for _, bk := range hist {
		if bk.Count <= 0 {
			b.WriteByte(' ')
			continue
		}
		i := 0
		if peak > 0 {
			r := float64(bk.Sum) / float64(bk.Count)
			i = int(r / peak * float64(len(sparkLevels)-1))
			if i >= len(sparkLevels) {
				i = len(sparkLevels) - 1
			}
			if i < 0 {
				i = 0
			}
		}
		b.WriteRune(sparkLevels[i])
	}
	return b.String()
}

// parsePrometheus reads text exposition format 0.0.4 into a flat
// map of "name{labels}" → last value. Comments and histogram buckets
// are kept too — callers just index the series they care about.
func parsePrometheus(body string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}
