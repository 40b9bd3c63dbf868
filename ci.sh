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

echo "== go test -race (concurrent packages; games: clones share the state store's name index copy-on-write)"
go test -race ./internal/parallel ./internal/experiments ./internal/pfi ./internal/cloud ./internal/obs ./internal/games .

echo "== go test -race (fleet serving: shared table + device fleet + chaos)"
go test -race ./internal/fleet ./internal/memo ./internal/chaos

echo "== go test -race (tracing + telemetry + energy paths: span recording and fleet rollups under concurrent drains)"
go test -race -run 'Span|Trace|Healthz|Telemetry|Fleetz|Window|Energy|Ledger|Energyz' ./internal/obs ./internal/cloud ./internal/fleet ./internal/energy

echo "== go test -race (shard router + delta OTA: queue-routed ingest, update negotiation, multi-round swaps)"
go test -race -run 'Shard|Delta|Update|OTA' ./internal/cloud ./internal/memo ./internal/trace ./internal/fleet

echo "== go test -race (overload survival: admission control, quotas, 429 backpressure, shared scheduler)"
go test -race -run 'Overload|Shed|Quota|Backpressure' ./internal/cloud ./internal/fleet

echo "== fleet bench smoke (sharded cloud, multi-round delta OTA, then schema validation incl. health/SLO and delta accounting)"
go run ./cmd/fleetbench -devices 2,4 -sessions 2 -secs 5 -profile-sessions 2 \
	-shards 2 -refreshes 2 -delta-cap 4 \
	-out /tmp/snip_bench_fleet_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_fleet_smoke.json
rm -f /tmp/snip_bench_fleet_smoke.json

echo "== shard sweep smoke (figures must be byte-identical at every shard count)"
go run ./cmd/fleetbench -shard-sweep 1,2,4 -shard-games 3 -shard-sessions 2 -secs 5 \
	-out /tmp/snip_bench_shards_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_shards_smoke.json
rm -f /tmp/snip_bench_shards_smoke.json

echo "== fuzz smoke (ingest decoders must reject arbitrary bytes, never panic; the game state store must match its map-backed reference)"
go test -run '^$' -fuzz '^FuzzDecodeBatch$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzDecodeEventsOnly$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzDecodeTelemetry$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzDecodeUpdate$' -fuzztime 5s ./internal/cloud
go test -run '^$' -fuzz '^FuzzLoadFlatTable$' -fuzztime 5s ./internal/memo
go test -run '^$' -fuzz '^FuzzDecodeDelta$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzApplyDelta$' -fuzztime 5s ./internal/memo
go test -run '^$' -fuzz '^FuzzStoreOps$' -fuzztime 5s ./internal/games

echo "== chaos gate (all faults + mispredict guard under the race detector, zero panics)"
go run -race ./cmd/fleetbench -chaos all -chaos-seed 7 -shadow-rate 0.25 \
	-devices 4 -sessions 2 -secs 5 -profile-sessions 2 \
	-out /tmp/snip_bench_chaos_gate.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_chaos_gate.json
rm -f /tmp/snip_bench_chaos_gate.json

echo "== overload smoke (5000 devices on the shared scheduler, tiny quota + queue: conservation on both ledgers, guard never shed)"
go run ./cmd/fleetbench -devices 5000 -sessions 1 -secs 2 -profile-sessions 2 \
	-ota=false -overload -shard-queue-cap 2 -quota-rate 2 -quota-burst 2 \
	-out /tmp/snip_bench_overload_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_overload_smoke.json
rm -f /tmp/snip_bench_overload_smoke.json

echo "== allocation gate (memo lookup + metrics + span + telemetry-window + energy-ledger + post-delta-swap lookup + admission token-bucket + scheduler-claim hot paths must stay 0 allocs/op)"
# DeltaAppliedLookupHit serves from a table rebuilt via ApplyDelta: the
# patch step may allocate, the table it publishes must look up alloc-free.
alloc_out=$(go test -run '^$' -bench 'SnipTableLookupHit|SnipTableLookupMiss|FlatLookupHit|FlatLookupMiss|FlatLookupSweep|SharedLookupParallel|SharedLookupSpan|DeltaAppliedLookupHit|CounterInc|GaugeSet|HistogramObserve|HistogramObserveExemplar|SpanStartFinish|TracerRecord|WindowAdd|WindowObserveNil|LedgerEventCharge|LedgerAttribute|TokenBucketTake|SchedulerClaim' \
	-benchmem -benchtime 1000x ./internal/memo ./internal/obs ./internal/energy ./internal/cloud ./internal/fleet)
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

echo "== lookup regression gate (flat backend must stay within 10% of map, both measured now)"
# Gated at sizes past cache capacity, where the flat layout's advantage
# is structural; at 1k rows both backends are cache-resident and the
# winner flips with machine noise, so a threshold there only flaps.
go run ./cmd/fleetbench -lookup-sweep 32k,256k -sweep-ops 100000 -sweep-gate 1.10 \
	-out /tmp/snip_bench_lookup_gate.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_lookup_gate.json
rm -f /tmp/snip_bench_lookup_gate.json

echo "ci: all green"
