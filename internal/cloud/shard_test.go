package cloud

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/trace"
)

// TestShardForDeterminismAndRange pins the router contract: the owner is
// a pure function of (game, shards), always in range, and the catalog
// actually spreads across shards rather than piling onto one.
func TestShardForDeterminismAndRange(t *testing.T) {
	names := games.Names()
	for _, shards := range []int{1, 2, 4, 8, 16} {
		owned := make(map[int]int)
		for _, g := range names {
			a := ShardFor(g, shards)
			if a != ShardFor(g, shards) {
				t.Fatalf("ShardFor(%q, %d) not deterministic", g, shards)
			}
			if a < 0 || a >= shards {
				t.Fatalf("ShardFor(%q, %d) = %d out of range", g, shards, a)
			}
			owned[a]++
		}
		if shards == 1 && len(owned) != 1 {
			t.Fatalf("shards=1 used %d shards", len(owned))
		}
		if shards == 4 && len(owned) < 2 {
			t.Fatalf("catalog of %d games landed on %d of 4 shards — router not spreading", len(names), len(owned))
		}
	}
	// Rendezvous stability: growing the shard count must not move a game
	// whose old owner still wins — only games claimed by a NEW shard move.
	for _, g := range names {
		from, to := ShardFor(g, 4), ShardFor(g, 5)
		if from != to && to != 4 {
			t.Fatalf("game %q moved shard %d -> %d when adding shard 4: not rendezvous behavior", g, from, to)
		}
	}
}

// TestShardedRebuildDeterminism is the tentpole acceptance gate: the same
// uploads pushed through 1, 2, 4 and 8 shards must produce byte-identical
// flat images per game — sharding may move work, never change figures.
func TestShardedRebuildDeterminism(t *testing.T) {
	gameNames := []string{"Colorphun", "CandyCrush", "MemoryGame"}
	type sess struct {
		seed uint64
		log  *trace.EventLog
	}
	logs := make(map[string][]sess)
	for _, g := range gameNames {
		for seed := uint64(1); seed <= 2; seed++ {
			dev := record(t, g, seed)
			logs[g] = append(logs[g], sess{seed: seed, log: dev.EventLog})
		}
	}

	var baseline map[string][]byte
	for _, shards := range []int{1, 2, 4, 8} {
		svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{Shards: shards})
		srv := httptest.NewServer(svc.Handler())
		client := NewClient(srv.URL)
		imgs := make(map[string][]byte)
		for _, g := range gameNames {
			for _, sl := range logs[g] {
				if err := uploadSession(client, g, sl.seed, sl.log); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.Rebuild(g); err != nil {
				t.Fatal(err)
			}
			up, err := client.FetchTable(g)
			if err != nil {
				t.Fatal(err)
			}
			flat, ok := up.Table.(*memo.FlatTable)
			if !ok {
				t.Fatalf("shards=%d %s: fetched table not flat", shards, g)
			}
			imgs[g] = flat.Image()
		}
		srv.Close()
		svc.Close()
		if baseline == nil {
			baseline = imgs
			continue
		}
		for _, g := range gameNames {
			if !bytes.Equal(imgs[g], baseline[g]) {
				t.Fatalf("shards=%d %s: image (%d bytes) differs from the 1-shard image (%d bytes)",
					shards, g, len(imgs[g]), len(baseline[g]))
			}
		}
	}
}

// TestUpdateEndpointNegotiation drives the full generation dance over
// HTTP: 404 before any build, full image at gen 0, a delta chain once
// the device holds the previous generation, and 304 when current.
func TestUpdateEndpointNegotiation(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{Shards: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	client := NewClient(srv.URL)
	const game = "Colorphun"

	if _, err := client.FetchUpdate(game, 0, nil); err == nil {
		t.Fatal("update before any build should 404")
	}
	resp, body := get(t, srv.URL+"/v1/update?game="+game+"&gen=banana")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "bad gen") {
		t.Fatalf("bad gen: status %d body %q", resp.StatusCode, body)
	}

	dev := record(t, game, 0xC1)
	if err := uploadSession(client, game, 0xC1, dev.EventLog); err != nil {
		t.Fatal(err)
	}
	if err := client.Rebuild(game); err != nil {
		t.Fatal(err)
	}

	// gen=0: nothing to diff from, full image.
	res, err := client.FetchUpdate(game, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Format != "flat" || res.NotModified || res.Update == nil || res.Update.Version != 1 {
		t.Fatalf("gen=0 result %+v", res)
	}
	if res.FullBytes != res.WireBytes || res.DeltaBytes != 0 {
		t.Fatalf("gen=0 accounting %+v", res)
	}
	v1 := res.Update.Table.(*memo.FlatTable)

	// Grow the profile a little and rebuild: version 2, and the cloud
	// retains a v1->v2 delta.
	dev2 := record(t, game, 0xC2)
	if err := uploadSession(client, game, 0xC2, dev2.EventLog); err != nil {
		t.Fatal(err)
	}
	if err := client.Rebuild(game); err != nil {
		t.Fatal(err)
	}

	// Current device: 304.
	cur, err := client.FetchUpdate(game, 2, v1)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.NotModified || cur.Update != nil {
		t.Fatalf("current device result %+v", cur)
	}

	// Device on v1 with the true v1 table: delta chain, applied client
	// side, byte-identical to the full image.
	res2, err := client.FetchUpdate(game, 1, v1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Update == nil || res2.Update.Version != 2 {
		t.Fatalf("gen=1 result %+v", res2)
	}
	full, err := client.FetchTable(game)
	if err != nil {
		t.Fatal(err)
	}
	wantImg := full.Table.(*memo.FlatTable).Image()
	if built := svc.profiler(game).Latest().Table.(*memo.FlatTable).Image(); !bytes.Equal(wantImg, built) {
		t.Fatal("full image differs from the table the service built")
	}
	gotImg := res2.Update.Table.(*memo.FlatTable).Image()
	if !bytes.Equal(gotImg, wantImg) {
		t.Fatalf("update path image (%d bytes, format %s) differs from the full image (%d bytes)",
			len(gotImg), res2.Format, len(wantImg))
	}
	if res2.Format == "delta" {
		if res2.DeltaLinks < 1 || res2.DeltaBytes == 0 || res2.FullBytes != 0 || res2.FullFallback {
			t.Fatalf("delta accounting %+v", res2)
		}
		if int(res2.DeltaBytes) >= len(wantImg) {
			t.Fatalf("delta chain %d bytes not smaller than full image %d", res2.DeltaBytes, len(wantImg))
		}
	}
}

// TestFetchUpdateFallsBackOnBaseMismatch pins the self-healing contract:
// a device whose reported generation does not match the table it actually
// holds (the post-rollback drift case) gets the full image, not an error,
// with both the wasted delta bytes and the full bytes accounted.
func TestFetchUpdateFallsBackOnBaseMismatch(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{Shards: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	client := NewClient(srv.URL)
	const game = "CandyCrush"

	for seed := uint64(1); seed <= 2; seed++ {
		dev := record(t, game, seed)
		if err := uploadSession(client, game, seed, dev.EventLog); err != nil {
			t.Fatal(err)
		}
		if err := client.Rebuild(game); err != nil {
			t.Fatal(err)
		}
	}
	// The device claims gen 1 but holds an unrelated table.
	bogus, err := memo.Flatten(memo.SynthTable(32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.FetchUpdate(game, 1, bogus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Update == nil || res.Update.Version != 2 {
		t.Fatalf("fallback result %+v", res)
	}
	if res.DeltaLinks != 0 {
		t.Fatalf("mismatched base applied a delta: %+v", res)
	}
	// When the cloud had a delta to offer, the failed chain must be
	// visible in the accounting.
	if res.FullFallback {
		if res.DeltaBytes == 0 || res.FullBytes == 0 || res.WireBytes != res.DeltaBytes+res.FullBytes {
			t.Fatalf("fallback accounting %+v", res)
		}
	}
	full, err := client.FetchTable(game)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Update.Table.(*memo.FlatTable).Image(), full.Table.(*memo.FlatTable).Image()) {
		t.Fatal("fallback table differs from the full image")
	}
}

// TestShardQueueSheds pins the bounded-queue contract directly: with no
// worker draining, cap+1 enqueues shed the last one and count it.
func TestShardQueueSheds(t *testing.T) {
	sh := newShard(0, DefaultShardQueueCap, obs.NewRegistry())
	for i := 0; i < DefaultShardQueueCap; i++ {
		sh.queue <- ingestJob{run: func() error { return nil }, done: make(chan error, 1)}
	}
	_, shed := sh.enqueue(func() error { return nil })
	if !shed {
		t.Fatal("full queue did not shed")
	}
	if sh.met.queueShed.Value() != 1 {
		t.Fatalf("queueShed = %d, want 1", sh.met.queueShed.Value())
	}
}

// TestShardzEndpoint checks the rollup surface snipstat's shard pane
// feeds on: a row per shard, games attributed to their owners, ingest
// and OTA tallies where the traffic went.
func TestShardzEndpoint(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{Shards: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	client := NewClient(srv.URL)

	gameNames := []string{"Colorphun", "CandyCrush", "MemoryGame"}
	for _, g := range gameNames {
		dev := record(t, g, 3)
		if err := uploadSession(client, g, 3, dev.EventLog); err != nil {
			t.Fatal(err)
		}
		if err := client.Rebuild(g); err != nil {
			t.Fatal(err)
		}
		if _, err := client.FetchUpdate(g, 0, nil); err != nil {
			t.Fatal(err)
		}
	}

	resp, body := get(t, srv.URL+"/v1/shardz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shardz status %d", resp.StatusCode)
	}
	var reply ShardzReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("shardz not JSON: %v\n%s", err, body)
	}
	if reply.Shards != 4 || len(reply.PerShard) != 4 {
		t.Fatalf("shardz shape %+v", reply)
	}
	if reply.DeltaCap != DefaultMaxDeltaChain {
		t.Fatalf("delta cap %d, want %d", reply.DeltaCap, DefaultMaxDeltaChain)
	}
	var sessions, fullServed int64
	seen := make(map[string]int)
	for _, row := range reply.PerShard {
		if row.QueueCap != DefaultShardQueueCap {
			t.Fatalf("row %d queue cap %d", row.Shard, row.QueueCap)
		}
		sessions += row.IngestSessions
		fullServed += row.OTAFullServed
		for _, g := range row.Games {
			seen[g] = row.Shard
		}
	}
	if sessions != int64(len(gameNames)) {
		t.Fatalf("shardz sessions %d, want %d", sessions, len(gameNames))
	}
	if fullServed != int64(len(gameNames)) {
		t.Fatalf("shardz full served %d, want %d", fullServed, len(gameNames))
	}
	for _, g := range gameNames {
		want := ShardFor(g, 4)
		if got, ok := seen[g]; !ok || got != want {
			t.Fatalf("game %q attributed to shard %d, want %d (seen=%v)", g, got, want, seen)
		}
	}

	// Per-shard series exist in the exposition too.
	_, metrics := get(t, srv.URL+"/v1/metrics")
	for _, want := range []string{
		"snip_cloud_shards 4",
		`snip_cloud_shard_sessions_total{shard="0"}`,
		`snip_cloud_shard_ota_full_total{shard="3"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestServiceCloseIdempotent: Close drains the workers and is safe to
// call twice.
func TestServiceCloseIdempotent(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{Shards: 3})
	svc.Close()
	svc.Close()
}
