package cloud

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/trace"
)

// frameGame is the game the frame tests grow a delta chain for: each of
// its first rebuilds yields a delta smaller than its image.
const frameGame = "Colorphun"

// growChain ingests one session per rebuild for the given seeds and
// returns every flat generation's table, indexed by version.
func growChain(t *testing.T, p *Profiler, seeds ...uint64) map[int]*memo.FlatTable {
	t.Helper()
	tables := make(map[int]*memo.FlatTable)
	for _, seed := range seeds {
		if err := p.IngestLogs(1, []SessionLog{{Seed: seed, Log: recordLog(t, p.Game(), seed)}}); err != nil {
			t.Fatal(err)
		}
		up, err := p.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		if flat, ok := up.Table.(*memo.FlatTable); ok {
			tables[up.Version] = flat
		}
	}
	return tables
}

// freshFrame encodes the retained chain from gen anew, bypassing the
// frame Rebuild kept.
func freshFrame(t *testing.T, p *Profiler, gen int) []byte {
	t.Helper()
	p.mu.Lock()
	links := p.deltas[len(p.deltas)-(p.version-gen):]
	c := &trace.DeltaChain{Game: p.game}
	for _, d := range links {
		c.Deltas = append(c.Deltas, *d)
	}
	p.mu.Unlock()
	var buf bytes.Buffer
	if err := trace.EncodeDeltaChain(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyFrame decodes a served frame and applies it to base.
func applyFrame(t *testing.T, base *memo.FlatTable, frame []byte) (*memo.FlatTable, int) {
	t.Helper()
	c, err := trace.DecodeDeltaChain(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := memo.ApplyDeltaChain(base, c)
	if err != nil {
		t.Fatal(err)
	}
	return got, len(c.Deltas)
}

// A device one generation behind is served the frame Rebuild kept: the
// same bytes a fresh encode of its one-link chain gives, over HTTP too.
// A device two behind gets a freshly encoded two-link chain that
// applies onto its table.
func TestDeltaFrameReuse(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	p := svc.profiler(frameGame)
	tables := growChain(t, p, 1, 2, 3)
	if n := p.DeltaChainLen(); n != 2 {
		t.Fatalf("retained %d deltas after 3 rebuilds, want 2", n)
	}

	one, err := p.DeltaChainFrom(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshFrame(t, p, 2); !bytes.Equal(one, want) {
		t.Fatalf("one-link frame (%d bytes) differs from a fresh encode (%d bytes)", len(one), len(want))
	}
	resp, body := get(t, srv.URL+"/v1/update?game="+frameGame+"&gen=2")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Snip-Format") != "delta" || body != string(one) {
		t.Fatalf("gen=2: status %d format %q, body equal to the kept frame: %v",
			resp.StatusCode, resp.Header.Get("X-Snip-Format"), body == string(one))
	}
	if got, _ := applyFrame(t, tables[2], one); !bytes.Equal(got.Image(), tables[3].Image()) {
		t.Fatal("one-link frame does not patch v2 into v3")
	}

	two, err := p.DeltaChainFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshFrame(t, p, 1); !bytes.Equal(two, want) {
		t.Fatal("two-link frame differs from a fresh encode")
	}
	got, links := applyFrame(t, tables[1], two)
	if links != 2 || !bytes.Equal(got.Image(), tables[3].Image()) {
		t.Fatalf("two-link frame: %d links, patches v1 into v3: %v", links, bytes.Equal(got.Image(), tables[3].Image()))
	}
}

// Every event that changes or drops the chain drops the kept frame: no
// device is ever served a frame for a link the chain no longer ends in.
func TestDeltaFrameNeverStale(t *testing.T) {
	newChain := func(t *testing.T, deltaCap int) (*Profiler, map[int]*memo.FlatTable) {
		p := newProfiler(frameGame, pfi.DefaultConfig(), deltaCap)
		return p, growChain(t, p, 1, 2, 3)
	}
	// servesOnly checks which generations a frame is served for, and
	// that each served frame is the fresh encode of its chain.
	servesOnly := func(t *testing.T, p *Profiler, gens ...int) {
		t.Helper()
		want := make(map[int]bool)
		for _, g := range gens {
			want[g] = true
		}
		for gen := 0; gen <= p.version+1; gen++ {
			frame, err := p.DeltaChainFrom(gen)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case (frame != nil) != want[gen]:
				t.Fatalf("gen %d: served a frame: %v, want %v", gen, frame != nil, want[gen])
			case frame != nil && !bytes.Equal(frame, freshFrame(t, p, gen)):
				t.Fatalf("gen %d: stale frame", gen)
			}
		}
	}

	t.Run("delta cap", func(t *testing.T) {
		p, _ := newChain(t, 1)
		servesOnly(t, p, 2)
		growChain(t, p, 4)
		servesOnly(t, p, 3)
	})
	t.Run("chain break", func(t *testing.T) {
		p, _ := newChain(t, DefaultMaxDeltaChain)
		// A previous generation so much larger than the next that the
		// delta outweighs the image: the size check breaks the chain.
		big, err := memo.Flatten(memo.SynthTable(1 << 17))
		if err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		p.flat = big
		p.mu.Unlock()
		growChain(t, p, 4)
		servesOnly(t, p)
		growChain(t, p, 5)
		servesOnly(t, p, 4)
	})
}

// TestServiceDeltaCapOption: ServiceOptions.DeltaCap bounds every
// game's retained chain from construction on, as newProfiler's cap
// does in TestDeltaFrameNeverStale's delta-cap case. After three
// rebuilds a device one generation behind is served the one-link delta
// and a device two behind the full image; under the default cap the
// same service serves the two-link chain.
func TestServiceDeltaCapOption(t *testing.T) {
	formats := func(t *testing.T, opt ServiceOptions) (chainCap int, gen1, gen2 string) {
		t.Helper()
		svc := NewServiceWithOptions(pfi.DefaultConfig(), opt)
		t.Cleanup(svc.Close)
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		client := NewClient(srv.URL)
		for seed := uint64(1); seed <= 3; seed++ {
			if err := uploadSession(client, frameGame, seed, recordLog(t, frameGame, seed)); err != nil {
				t.Fatal(err)
			}
			if err := client.Rebuild(frameGame); err != nil {
				t.Fatal(err)
			}
		}
		format := func(gen int) string {
			resp, body := get(t, srv.URL+"/v1/update?game="+frameGame+"&gen="+strconv.Itoa(gen))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("gen %d: status %d body %q", gen, resp.StatusCode, body)
			}
			return resp.Header.Get("X-Snip-Format")
		}
		return svc.Shardz().DeltaCap, format(1), format(2)
	}

	if n, gen1, gen2 := formats(t, ServiceOptions{DeltaCap: 1}); n != 1 || gen1 != "flat" || gen2 != "delta" {
		t.Fatalf("DeltaCap 1: cap %d, gen 1 served %q, gen 2 served %q; want 1, flat, delta", n, gen1, gen2)
	}
	if n, gen1, gen2 := formats(t, ServiceOptions{}); n != DefaultMaxDeltaChain || gen1 != "delta" || gen2 != "delta" {
		t.Fatalf("default cap: cap %d, gen 1 served %q, gen 2 served %q; want %d, delta, delta",
			n, gen1, gen2, DefaultMaxDeltaChain)
	}
}

// A Rebuild racing /v1/update: every fetch either applies a chain that
// lands on the cloud's table for the version it reports or falls back
// to the full image, and never errors.
func TestDeltaFrameRebuildRacesUpdate(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	client := NewClient(srv.URL)
	p := svc.profiler(frameGame)
	tables := growChain(t, p, 1, 2)
	var logs []SessionLog
	for seed := uint64(3); seed <= 6; seed++ {
		logs = append(logs, SessionLog{Seed: seed, Log: recordLog(t, frameGame, seed)})
	}

	// Fetchers from generations 1 and 2 keep fetching until the rebuilds
	// are done.
	var wg sync.WaitGroup
	done := make(chan struct{})
	results := make([][]*UpdateResult, 3) // by the generation fetched from
	for gen := 1; gen <= 2; gen++ {
		base := tables[gen]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := client.FetchUpdate(frameGame, gen, base)
				if err != nil {
					t.Error(err)
					return
				}
				results[gen] = append(results[gen], res)
			}
		}()
	}
	var rebuildErr error
	for _, l := range logs {
		if rebuildErr = p.IngestLogs(1, []SessionLog{l}); rebuildErr != nil {
			break
		}
		up, err := p.Rebuild()
		if rebuildErr = err; err != nil {
			break
		}
		tables[up.Version] = up.Table.(*memo.FlatTable)
	}
	close(done)
	wg.Wait()
	if rebuildErr != nil {
		t.Fatal(rebuildErr)
	}
	for gen, rs := range results {
		for _, res := range rs {
			if res.NotModified {
				continue
			}
			want := tables[res.Update.Version]
			if res.Update.Version <= gen || want == nil || !bytes.Equal(res.Update.Table.(*memo.FlatTable).Image(), want.Image()) {
				t.Fatalf("gen %d: %s update to version %d does not match that version's table", gen, res.Format, res.Update.Version)
			}
		}
	}
}

// A device reporting a generation the service has not reached — its
// table came from a service instance that lost its state on restart —
// gets the full image, while a device on the current generation still
// gets 304.
func TestUpdateDeviceAheadGetsFullImage(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	client := NewClient(srv.URL)
	tables := growChain(t, svc.profiler(frameGame), 1)

	res, err := client.FetchUpdate(frameGame, 5, tables[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.NotModified || res.Format != "flat" || res.Update == nil || res.Update.Version != 1 {
		t.Fatalf("device ahead: %+v", res)
	}
	if !bytes.Equal(res.Update.Table.(*memo.FlatTable).Image(), tables[1].Image()) {
		t.Fatal("device ahead got an image other than the latest")
	}
	cur, err := client.FetchUpdate(frameGame, 1, tables[1])
	if err != nil {
		t.Fatal(err)
	}
	if !cur.NotModified || cur.Update != nil {
		t.Fatalf("current device: %+v", cur)
	}
	resp, _ := get(t, srv.URL+"/v1/update?game="+frameGame+"&gen="+strconv.Itoa(1))
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("gen == version: status %d, want 304", resp.StatusCode)
	}
}

// TestRebuildRejectsTamperedDelta: the self-verify breaks the chain for
// a delta that does not reproduce the new image, even when every edit
// still fits the base and the delta still promises the new image's CRC.
// Each case alters the fresh delta before the verify: one upsert's
// output value, or one removal dropped. Only the byte comparison can
// catch either, so the table is served as a full image; untouched, the
// same rebuilds keep a one-link chain.
func TestRebuildRejectsTamperedDelta(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(t *testing.T, d *trace.TableDelta)
	}{
		{"untouched", func(*testing.T, *trace.TableDelta) {}},
		{"upsert output value", func(t *testing.T, d *trace.TableDelta) {
			for i := range d.Upserts {
				if u := &d.Upserts[i]; len(u.Outputs) > 0 {
					u.Outputs = append([]trace.Field(nil), u.Outputs...)
					u.Outputs[0].Value ^= 1
					return
				}
			}
			t.Fatal("no upsert with outputs to alter")
		}},
		{"removal dropped", func(t *testing.T, d *trace.TableDelta) {
			if len(d.Removed) == 0 {
				t.Fatal("no removal to drop")
			}
			d.Removed = d.Removed[1:]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfiler(frameGame, pfi.DefaultConfig())
			growChain(t, p, 1, 2)
			diffFlat = func(game string, from, to int, old, new *memo.FlatTable) (*trace.TableDelta, error) {
				d, err := memo.DiffFlat(game, from, to, old, new)
				if err == nil {
					tc.tamper(t, d)
				}
				return d, err
			}
			t.Cleanup(func() { diffFlat = memo.DiffFlat })
			growChain(t, p, 3)
			frame, err := p.DeltaChainFrom(2)
			if err != nil {
				t.Fatal(err)
			}
			if kept := frame != nil; kept != (tc.name == "untouched") {
				t.Fatalf("served a delta frame: %v (chain of %d)", kept, p.DeltaChainLen())
			}
		})
	}
}
