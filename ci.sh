#!/bin/sh
# ci.sh — the repository's full gate. Mirrors what a CI runner executes:
# static checks, a clean build, the full test suite, and the race
# detector over every package that spawns goroutines (the parallel
# engine and its consumers).
set -eu

cd "$(dirname "$0")"

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build"
go build ./...

echo "== perfbench module (vet + build: the root ./... does not cross its module boundary)"
(cd perfbench && go vet . && go build -o /dev/null .)

echo "== go test"
go test ./...

echo "== go test -race (concurrent packages; games: clones share the state store's name index copy-on-write; trace: frames share pooled gzip writers)"
go test -race ./internal/parallel ./internal/experiments ./internal/pfi ./internal/cloud ./internal/obs ./internal/games ./internal/trace .

echo "== go test -race (fleet serving: shared table + device fleet + chaos)"
go test -race ./internal/fleet ./internal/memo ./internal/chaos

echo "== go test -race (tracing + telemetry + energy paths: span recording and fleet rollups under concurrent drains, and snipstat polling a live service)"
go test -race -run 'Span|Trace|Healthz|Telemetry|Fleetz|Window|Energy|Ledger|Energyz' ./internal/obs ./internal/cloud ./internal/fleet ./internal/energy ./cmd/snipstat

echo "== go test -race (shard router + delta OTA: queue-routed ingest, update negotiation, multi-round swaps)"
go test -race -run 'Shard|Delta|Update|OTA' ./internal/cloud ./internal/memo ./internal/trace ./internal/fleet

echo "== go test -race (overload survival: admission control, quotas, 429 backpressure, shared scheduler)"
go test -race -run 'Overload|Shed|Quota|Backpressure' ./internal/cloud ./internal/fleet

echo "== examples smoke (every examples/ program, each a client of the root API, must exit zero)"
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

echo "== fleet bench smoke (sharded cloud, multi-round delta OTA, then schema validation incl. health/SLO and delta accounting)"
go run ./cmd/fleetbench -devices 2,4 -sessions 2 -secs 5 -profile-sessions 2 \
	-shards 2 -refreshes 2 -delta-cap 4 \
	-out /tmp/snip_bench_fleet_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_fleet_smoke.json
rm -f /tmp/snip_bench_fleet_smoke.json

echo "== committed bench files (every published BENCH_*.json must pass the schema its writer checks)"
for f in BENCH_*.json; do
	go run ./cmd/fleetbench -validate "$f"
done

echo "== shard sweep smoke (figures must be byte-identical at every shard count)"
go run ./cmd/fleetbench -shard-sweep 1,2,4 -shard-games 3 -shard-sessions 2 -secs 5 \
	-out /tmp/snip_bench_shards_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_shards_smoke.json
rm -f /tmp/snip_bench_shards_smoke.json

echo "== fuzz smoke (ingest decoders must reject arbitrary bytes, never panic; the game state store must match its map-backed reference; the key-hash kernel must match its byte-loop oracle)"
go test -run '^$' -fuzz '^FuzzDecodeBatch$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzDecodeTelemetry$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzLoadFlatTable$' -fuzztime 5s ./internal/memo
go test -run '^$' -fuzz '^FuzzDecodeDelta$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzApplyDelta$' -fuzztime 5s ./internal/memo
go test -run '^$' -fuzz '^FuzzStoreOps$' -fuzztime 5s ./internal/games
go test -run '^$' -fuzz '^FuzzHashKernel$' -fuzztime 5s ./internal/trace

echo "== chaos gate (all faults + mispredict guard under the race detector, zero panics)"
go run -race ./cmd/fleetbench -chaos all -chaos-seed 7 -shadow-rate 0.25 \
	-devices 4 -sessions 2 -secs 5 -profile-sessions 2 \
	-out /tmp/snip_bench_chaos_gate.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_chaos_gate.json
rm -f /tmp/snip_bench_chaos_gate.json

echo "== overload smoke (5000 devices on the shared scheduler, tiny quota + queue: conservation on both ledgers, guard never shed)"
go run ./cmd/fleetbench -devices 5000 -sessions 1 -secs 2 -profile-sessions 2 \
	-ota=false -shard-queue-cap 2 -quota-rate 2 -quota-burst 2 \
	-out /tmp/snip_bench_overload_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_overload_smoke.json
rm -f /tmp/snip_bench_overload_smoke.json

echo "== allocation gate (memo lookup + metrics + span + telemetry-window + energy-ledger + post-delta-swap lookup + admission token-bucket + scheduler-claim + no-log handler hot paths must stay 0 allocs/op)"
# DeltaAppliedLookupHit serves from a table rebuilt via ApplyDelta: the
# patch step may allocate, the table it publishes must look up alloc-free.
# BenchmarkProcess's nolog runs are every game's handler as a device runs
# it: each game reuses one execution context.
alloc_out=$(go test -run '^$' -bench 'SnipTableLookupHit|SnipTableLookupMiss|FlatLookupHit|FlatLookupMiss|FlatLookupSweep|SharedLookupParallel|SharedLookupSpan|DeltaAppliedLookupHit|CounterInc|GaugeSet|HistogramObserve|HistogramObserveExemplar|SpanStartFinish|WindowAdd|WindowObserveNil|LedgerEventCharge|LedgerAttribute|TokenBucketTake|SchedulerClaim' \
	-benchmem -benchtime 1000x ./internal/memo ./internal/obs ./internal/energy ./internal/cloud ./internal/fleet
	go test -run '^$' -bench '^BenchmarkProcess$/.*/^nolog$' -benchmem -benchtime 1000x ./internal/games)
echo "$alloc_out"
bad=$(echo "$alloc_out" | awk '/allocs\/op/ && $(NF-1) + 0 > 0')
if [ -n "$bad" ]; then
	echo "allocation regression on the hot path:" >&2
	echo "$bad" >&2
	exit 1
fi

echo "== PFI search smoke (one pass of BenchmarkPFIRun over every game's pinned 16-session profile)"
go test -run '^$' -bench '^BenchmarkPFIRun$' -benchtime 1x -benchmem ./internal/pfi

echo "== replay smoke (one pass of BenchmarkReplay over every game's golden log)"
go test -run '^$' -bench '^BenchmarkReplay$' -benchtime 1x -benchmem ./internal/cloud

echo "== replay allocation gate (BenchmarkReplay allocs/record per game must stay within its committed bound)"
# Allocation counts are deterministic, so the bounds are hard. Each sits
# at about 1.2x what replay with one reused execution context per game
# measures when the session's Reset keeps the store the game's
# constructor filled (0.092 to 0.25 allocs/record); a store rebuilt by
# that Reset took 0.12 to 0.39, a context per event 3.19 to 4.16, and
# replay into a record list 11.2 to 12.4.
replay_out=$(go test -run '^$' -bench '^BenchmarkReplay$' -benchtime 3x ./internal/cloud)
echo "$replay_out"
echo "$replay_out" | awk '
BEGIN {
	bound["Colorphun"] = 0.16; bound["MemoryGame"] = 0.26; bound["CandyCrush"] = 0.30
	bound["Greenwall"] = 0.17; bound["ABEvolution"] = 0.14; bound["ChaseWhisply"] = 0.11
	bound["RaceKings"] = 0.13
}
/^BenchmarkReplay\// {
	split($1, name, "/"); game = name[2]; sub(/-[0-9]+$/, "", game)
	v = ""
	for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/record") v = $i
	seen[game] = 1
	if (!(game in bound) || v == "") { printf "replay allocation gate: no bound or no allocs/record for %s\n", game > "/dev/stderr"; bad = 1 }
	else if (v + 0 > bound[game]) { printf "replay allocation gate: %s allocates %s per record, bound %s\n", game, v, bound[game] > "/dev/stderr"; bad = 1 }
}
END {
	for (game in bound) if (!(game in seen)) { printf "replay allocation gate: %s not measured\n", game > "/dev/stderr"; bad = 1 }
	exit bad
}'

echo "== device allocation gate (BenchmarkDevicePlay allocs/event per game, with a table and without, must stay within its committed bound)"
# Allocation counts are deterministic, so the bounds are hard. Each sits
# at about 1.2x what one 5 s session per op measures with handle-addressed
# state, events synthesized into reused buffers and a store kept across
# the device's sessions (0.088 to 0.75 allocs/event, the same with a
# table and without: what is left is per session, most of it the sensor
# stream); an event object per synthesized event and a store rebuilt per
# Reset took 2.3 to 3.7.
play_out=$(go test -run '^$' -bench '^BenchmarkDevicePlay$' -benchtime 2x ./internal/schemes)
echo "$play_out"
echo "$play_out" | awk '
BEGIN {
	bound["Colorphun"] = 0.124; bound["MemoryGame"] = 0.106; bound["CandyCrush"] = 0.90
	bound["Greenwall"] = 0.384; bound["ABEvolution"] = 0.766; bound["ChaseWhisply"] = 0.647
	bound["RaceKings"] = 0.496
}
/^BenchmarkDevicePlay\// {
	split($1, name, "/"); game = name[2]; mode = name[3]; sub(/-[0-9]+$/, "", mode)
	v = ""
	for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/event") v = $i
	seen[game, mode] = 1
	if (!(game in bound) || v == "") { printf "device allocation gate: no bound or no allocs/event for %s/%s\n", game, mode > "/dev/stderr"; bad = 1 }
	else if (v + 0 > bound[game]) { printf "device allocation gate: %s/%s allocates %s per event, bound %s\n", game, mode, v, bound[game] > "/dev/stderr"; bad = 1 }
}
END {
	for (game in bound) for (m = 1; m <= 2; m++) {
		mode = m == 1 ? "table" : "notable"
		if (!((game, mode) in seen)) { printf "device allocation gate: %s/%s not measured\n", game, mode > "/dev/stderr"; bad = 1 }
	}
	exit bad
}'

echo "== handler smoke (one pass of BenchmarkProcess: every game, logging inputs and not)"
go test -run '^$' -bench '^BenchmarkProcess$' -benchtime 1x -benchmem ./internal/games

echo "== batch codec smoke (one pass of BenchmarkBatchCodec: encode + decode of every game's 4-session batch)"
go test -run '^$' -bench '^BenchmarkBatchCodec$' -benchtime 1x -benchmem ./internal/cloud

echo "== delta codec smoke + decode allocation gate (one pass of BenchmarkDeltaCodec: encode + decode of every game's learn-shaped delta, B/frame; decode allocs/upsert per game must stay within its committed bound)"
# The decoder allocates per string, per table and per frame, never per
# upsert: the outputs of all upserts share one array. Each run starts
# from a GC, so the pooled payload buffer is cold and the counts repeat
# exactly. Each bound sits at about 1.2x what one pass measures (0.037
# to 0.226 allocs/upsert); the gob decoder took 6.6 to 8.5.
delta_out=$(go test -run '^$' -bench '^BenchmarkDeltaCodec$' -benchtime 1x -benchmem ./internal/cloud)
echo "$delta_out"
echo "$delta_out" | awk '
BEGIN {
	bound["Colorphun"] = 0.047; bound["MemoryGame"] = 0.27; bound["CandyCrush"] = 0.26
	bound["Greenwall"] = 0.071; bound["ABEvolution"] = 0.106; bound["ChaseWhisply"] = 0.094
	bound["RaceKings"] = 0.044
}
/^BenchmarkDeltaCodec\/.*\/decode/ {
	split($1, name, "/"); game = name[2]
	v = ""
	for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/upsert") v = $i
	seen[game] = 1
	if (!(game in bound) || v == "") { printf "delta decode allocation gate: no bound or no allocs/upsert for %s\n", game > "/dev/stderr"; bad = 1 }
	else if (v + 0 > bound[game]) { printf "delta decode allocation gate: %s allocates %s per upsert, bound %s\n", game, v, bound[game] > "/dev/stderr"; bad = 1 }
}
END {
	for (game in bound) if (!(game in seen)) { printf "delta decode allocation gate: %s not measured\n", game > "/dev/stderr"; bad = 1 }
	exit bad
}'

echo "== table build gate (BenchmarkBuildFlat: BuildFlat allocs/op must stay within its committed bound, and its ns/op within 1.25x of the BuildSnip + Flatten path's, both measured now)"
# Allocation counts are deterministic, so the bound is hard; it sits at
# about 1.2x the 80 allocs/op the direct build measures (the map path
# takes 106). Both paths key the same 4096 rows into 8 entries, so the
# direct build saves little here: single runs measure 0.7x to 1.1x of
# the map path's ns/op on a shared 2-vCPU VM. The gate takes each path's
# fastest of five runs, made in one process so machine speed cancels
# out, and fails when the direct build is 1.25x slower than the path it
# replaced.
build_out=$(go test -run '^$' -bench '^BenchmarkBuildFlat$' -benchmem -benchtime 200x -count 5 ./internal/memo)
echo "$build_out"
echo "$build_out" | awk '
function field(unit,   i) { for (i = 2; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
/BuildFlat\/direct/ { v = field("ns/op") + 0; if (d == "" || v < d) d = v; a = field("allocs/op") + 0 > a ? field("allocs/op") + 0 : a }
/BuildFlat\/map/ { v = field("ns/op") + 0; if (m == "" || v < m) m = v }
END {
	if (d == "" || m == "" || a == "") { print "table build gate: BenchmarkBuildFlat did not report" > "/dev/stderr"; exit 1 }
	if (a > 96) { printf "table build gate: BuildFlat allocates %s per build, bound 96\n", a > "/dev/stderr"; bad = 1 }
	if (d / m > 1.25) { printf "table build gate: ns/op(BuildFlat) / ns/op(BuildSnip + Flatten) = %.2f, bound 1.25\n", d / m > "/dev/stderr"; bad = 1 }
	printf "BuildFlat allocs/op = %s; fastest ns/op(BuildFlat) / fastest ns/op(BuildSnip + Flatten) = %.2f\n", a, d / m
	exit bad
}'

echo "== flat load allocation gate (BenchmarkFlatLoad: B/op at 4k and 32k rows must stay within its committed bound, far below the image, and must not grow with the row count)"
# A loaded table keeps O(types + names) state beside its image; entries
# are views read from the image, so the bytes a load allocates do not
# depend on the row count. The bytes a load allocates repeat to within
# a few bytes, so the bound is hard: it sits at about 1.2x the 1,928
# B/op both sizes measure (the images are ~0.37 and ~2.95 MB). Materializing the
# entries took 3,934,040 B/op at 32k rows, and would take 8x more at
# 32k than at 4k, where the growth check allows 1.1x.
load_out=$(go test -run '^$' -bench '^BenchmarkFlatLoad$' -benchmem -benchtime 100x ./internal/memo)
echo "$load_out"
echo "$load_out" | awk '
function field(unit,   i) { for (i = 2; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
/FlatLoad\/rows=4096/ { small = field("B/op") }
/FlatLoad\/rows=32768/ { large = field("B/op") }
END {
	if (small == "" || large == "") { print "flat load allocation gate: BenchmarkFlatLoad did not report B/op at both sizes" > "/dev/stderr"; exit 1 }
	if (small + 0 > 2300 || large + 0 > 2300) { printf "flat load allocation gate: LoadFlatTable allocates %s B/op at 4k rows and %s at 32k, bound 2300\n", small, large > "/dev/stderr"; bad = 1 }
	if (large + 0 > 1.1 * small) { printf "flat load allocation gate: B/op grows with the row count: %s at 4k rows, %s at 32k\n", small, large > "/dev/stderr"; bad = 1 }
	printf "LoadFlatTable B/op: %s at 4k rows, %s at 32k rows\n", small, large
	exit bad
}'

echo "== delta apply complexity gate (rewrite shape: every key of one bucket removed and upserted; ns/op at 8k rows must stay within 8x of 2k rows, both measured now)"
# Linear apply gives a ratio of about 4, a quadratic one about 16. Both
# sizes run in one process, so machine speed cancels out of the ratio.
apply_out=$(go test -run '^$' -bench '^BenchmarkApplyDelta$/^rewrite$' ./internal/memo)
echo "$apply_out"
ratio=$(echo "$apply_out" | awk '/rewrite\/rows=2048/ { a = $3 } /rewrite\/rows=8192/ { b = $3 } END { if (a > 0 && b > 0) printf "%.2f", b / a }')
if [ -z "$ratio" ] || awk -v r="$ratio" 'BEGIN { exit !(r > 8) }'; then
	echo "delta apply is not linear in the bucket size: ns/op(8k) / ns/op(2k) = ${ratio:-missing}" >&2
	exit 1
fi
echo "rewrite ns/op(8k) / ns/op(2k) = $ratio"

echo "== key-hash kernel gate (Step.Fold ns/op at 1-byte values must stay within 0.5x of the byte-loop oracle's, both measured now)"
# The kernel folds a one-byte value with three multiplies and one table
# load where the oracle runs sixteen dependent multiplies; it measures
# about 0.2x. Both run in one process, so machine speed cancels out.
fold_out=$(go test -run '^$' -bench '^BenchmarkKeyFold$' ./internal/trace)
echo "$fold_out"
ratio=$(echo "$fold_out" | awk '/KeyFold\/kernel\/1B/ { a = $3 } /KeyFold\/oracle\/1B/ { b = $3 } END { if (a > 0 && b > 0) printf "%.2f", a / b }')
if [ -z "$ratio" ] || awk -v r="$ratio" 'BEGIN { exit !(r > 0.5) }'; then
	echo "key-hash kernel lost its shortcut: ns/op(kernel, 1B) / ns/op(oracle, 1B) = ${ratio:-missing}" >&2
	exit 1
fi
echo "key fold ns/op(kernel, 1B) / ns/op(oracle, 1B) = $ratio"

echo "== lookup regression gate (BenchmarkFlatLookupSweep: the fastest of five runs must stay within 1.10x of the map table's fastest at n=32768 and n=262144, both measured now)"
# Gated at sizes past cache capacity, where the flat layout's advantage
# is structural; at 1k rows both tables are cache-resident and the
# winner flips with machine noise, so a threshold there only flaps. The
# map table is only the reference here. Single runs on a shared 2-vCPU
# VM spread widely (125-411 ns flat and 232-957 ns map at 32k rows), so
# the gate takes each table's fastest of five runs, made in one process
# so machine speed cancels out. Eight such gates measured flat/map at
# 0.34-0.74 at 32k rows and 0.20-0.53 at 256k. A fixed -benchtime
# builds each table once per run instead of once per calibration step.
lookup_out=$(go test -run '^$' -bench 'LookupSweep$/^n=(32768|262144)$' -benchtime 1000000x -count 5 ./internal/memo)
echo "$lookup_out"
echo "$lookup_out" | awk '
/^Benchmark(Flat|Map)LookupSweep\/n=/ {
	split($1, name, "/"); n = name[2]; sub(/-[0-9]+$/, "", n)
	kind = $1 ~ /^BenchmarkFlat/ ? "flat" : "map"
	v = ""
	for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") v = $i + 0
	if (v != "" && (!((kind, n) in best) || v < best[kind, n])) best[kind, n] = v
}
END {
	split("n=32768 n=262144", sizes, " ")
	for (k = 1; k <= 2; k++) {
		n = sizes[k]
		if (!(("flat", n) in best) || !(("map", n) in best)) { printf "lookup gate: %s not measured\n", n > "/dev/stderr"; bad = 1; continue }
		printf "%s: fastest ns/op(flat) / fastest ns/op(map) = %.2f\n", n, best["flat", n] / best["map", n]
		if (best["flat", n] > 1.10 * best["map", n]) { printf "lookup gate: flat %.1f ns/op > 1.10 x map %.1f ns/op at %s\n", best["flat", n], best["map", n], n > "/dev/stderr"; bad = 1 }
	}
	exit bad
}'

echo "ci: all green"
