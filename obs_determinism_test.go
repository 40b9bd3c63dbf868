package snip_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"snip"
	"snip/internal/experiments"
	"snip/internal/obs"
)

// TestMetricsDoNotPerturbSessions is the tentpole's determinism
// contract: attaching a Metrics (registry + span ring) to a session must
// leave the Report byte-identical, for every scheme. Instrumentation is
// write-only from the simulation's point of view.
func TestMetricsDoNotPerturbSessions(t *testing.T) {
	profile, err := snip.Profile("Colorphun", snip.ProfileOptions{Sessions: 2, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := snip.BuildTable(profile, snip.DefaultPFIOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range snip.Schemes() {
		opts := snip.Options{
			Game: "Colorphun", Duration: testDur, Scheme: scheme,
			CheckCorrectness: true,
		}
		if scheme == snip.SchemeSNIP || scheme == snip.SchemeNoOverheads {
			opts.Table = table
		}
		bare, err := snip.Play(opts)
		if err != nil {
			t.Fatalf("%s bare: %v", scheme, err)
		}
		met := snip.NewMetrics()
		if opts.Table != nil {
			opts.Table.Instrument(met)
		}
		opts.Metrics = met
		instrumented, err := snip.Play(opts)
		if opts.Table != nil {
			opts.Table.Instrument(nil)
		}
		if err != nil {
			t.Fatalf("%s instrumented: %v", scheme, err)
		}
		if !reflect.DeepEqual(bare, instrumented) {
			t.Errorf("%s: instrumented report differs\n bare:         %+v\n instrumented: %+v",
				scheme, bare, instrumented)
		}
		delivered := 0
		for _, sp := range met.Spans() {
			if sp.Name == "event.deliver" {
				delivered++
			}
		}
		if delivered == 0 {
			t.Errorf("%s: span buffer recorded no event.deliver spans", scheme)
		}
		// Trace IDs are pure arithmetic on (game, scheme, seed): the
		// bare and instrumented runs agree, and every recorded span
		// belongs to the report's trace.
		if bare.TraceID == "" || bare.TraceID != instrumented.TraceID {
			t.Errorf("%s: trace IDs bare=%q instrumented=%q", scheme, bare.TraceID, instrumented.TraceID)
		}
		for _, sp := range met.Spans() {
			if sp.Trace.String() != instrumented.TraceID {
				t.Errorf("%s: span %s/%s outside session trace %s", scheme, sp.Trace, sp.Name, instrumented.TraceID)
				break
			}
		}
	}
}

// TestMetricsDoNotPerturbFigures pins the figure runners: Fig2 and Fig4
// (the cross-cutting characterization paths) must return deep-equal
// results with Config.Obs set or nil.
func TestMetricsDoNotPerturbFigures(t *testing.T) {
	base := experiments.DefaultConfig()
	base.SessionSeconds = 10
	base.ProfileSessions = 2

	bareCfg, obsCfg := base, base
	obsCfg.Obs = obs.NewRegistry()
	obsCfg.Spans = obs.NewSpanBuffer(obs.DefaultSpanCapacity)

	f2bare, err := experiments.Fig2EnergyBreakdown(bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	f2obs, err := experiments.Fig2EnergyBreakdown(obsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f2bare, f2obs) {
		t.Error("Fig2 differs with Obs attached")
	}

	f4bare, err := experiments.Fig4UselessEvents(bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	f4obs, err := experiments.Fig4UselessEvents(obsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f4bare, f4obs) {
		t.Error("Fig4 differs with Obs attached")
	}
	if obsCfg.Spans.Total() == 0 {
		t.Error("figure runs recorded no spans despite Spans attached")
	}

	var sb strings.Builder
	if err := obsCfg.Obs.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"snip_events_delivered_total", "snip_events_executed_total",
		"snip_dispatch_unhandled_total", "snip_events_useless_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("figure-run exposition missing %s", want)
		}
	}
}

// TestMetricsAgreeWithReport cross-checks the counters against the
// Report quantities they mirror on an instrumented SNIP session.
func TestMetricsAgreeWithReport(t *testing.T) {
	profile, err := snip.Profile("Greenwall", snip.ProfileOptions{Sessions: 2, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := snip.BuildTable(profile, snip.DefaultPFIOptions())
	if err != nil {
		t.Fatal(err)
	}
	met := snip.NewMetrics()
	table.Instrument(met)
	defer table.Instrument(nil)
	rep, err := snip.Play(snip.Options{
		Game: "Greenwall", Duration: testDur, Scheme: snip.SchemeSNIP,
		Table: table, CheckCorrectness: true, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}

	counters := met.Registry().Snapshot().Counters
	sum := func(prefix string) int64 {
		var total int64
		for series, v := range counters {
			if strings.HasPrefix(series, prefix) {
				total += v
			}
		}
		return total
	}

	if got := sum("snip_events_delivered_total"); got != int64(rep.Events) {
		t.Errorf("delivered counters %d, report says %d events", got, rep.Events)
	}
	if got := counters["snip_events_short_circuited_total"]; got != int64(rep.ShortCircuited) {
		t.Errorf("short-circuited counter %d, report says %d", got, rep.ShortCircuited)
	}
	if got := counters["snip_shadow_checks_total"]; got != int64(rep.ShortCircuited) {
		t.Errorf("shadow checks %d, want every short-circuit checked (%d)", got, rep.ShortCircuited)
	}
	wantErrs := rep.ErrorFields.Temp + rep.ErrorFields.History + rep.ErrorFields.Extern
	if got := counters["snip_shadow_error_fields_total"]; got != wantErrs {
		t.Errorf("shadow error fields %d, report says %d", got, wantErrs)
	}
	if got := sum("snip_memo_lookups_total"); got != int64(rep.Events) {
		t.Errorf("memo lookups %d, want one per delivered event (%d)", got, rep.Events)
	}
	executed := counters["snip_events_executed_total"]
	if executed+int64(rep.ShortCircuited) != int64(rep.Events) {
		t.Errorf("executed (%d) + short-circuited (%d) != delivered (%d)",
			executed, rep.ShortCircuited, rep.Events)
	}
}

// TestEventSpansAgreeWithReport checks the per-event trace record
// against the Report of a traced SNIP session whose span ring does not
// wrap: one event.deliver span per delivered event, each probed by
// exactly one memo.lookup child, and the spans marked short-circuited
// are exactly the Report's short-circuits, each one shadow-checked.
func TestEventSpansAgreeWithReport(t *testing.T) {
	const dur = 5 * time.Second
	profile, err := snip.Profile("Greenwall", snip.ProfileOptions{Sessions: 2, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := snip.BuildTable(profile, snip.DefaultPFIOptions())
	if err != nil {
		t.Fatal(err)
	}
	met := snip.NewMetrics()
	rep, err := snip.Play(snip.Options{
		Game: "Greenwall", Duration: dur, Scheme: snip.SchemeSNIP,
		Table: table, CheckCorrectness: true, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if buf := met.SpanBuffer(); buf.Total() > int64(buf.Cap()) {
		t.Fatalf("span ring wrapped (%d spans, capacity %d): shorten the session", buf.Total(), buf.Cap())
	}

	lookups := map[obs.ID]int{}
	var deliver []obs.Span
	for _, sp := range met.Spans() {
		switch sp.Name {
		case "event.deliver":
			deliver = append(deliver, sp)
		case "memo.lookup":
			lookups[sp.Parent]++
		}
	}
	if len(deliver) != rep.Events {
		t.Fatalf("%d event.deliver spans, report says %d events", len(deliver), rep.Events)
	}
	snipped := 0
	for _, sp := range deliver {
		if n := lookups[sp.ID]; n != 1 {
			t.Fatalf("event %d (%s) has %d memo.lookup children, want 1", sp.Seq, sp.EventType, n)
		}
		if sp.EventType == "" || sp.Instr <= 0 {
			t.Fatalf("event.deliver span lacks its event facts: %+v", sp)
		}
		if sp.Hit {
			snipped++
			if !sp.ShadowChecked {
				t.Fatalf("short-circuited event %d missing its shadow check: %+v", sp.Seq, sp)
			}
		}
	}
	if snipped != rep.ShortCircuited {
		t.Errorf("event.deliver spans record %d short-circuits, report says %d", snipped, rep.ShortCircuited)
	}
	if rep.ShortCircuited == 0 {
		t.Error("session short-circuited nothing: the span checks above are vacuous")
	}
}
