package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/trace"
	"snip/internal/units"
)

// The shard tier: N in-process profiler replicas behind a deterministic
// router. A game is wholly owned by one shard — its profile, PFI state
// and ingest queue live there and nowhere else — so rebuild output is a
// function of the uploads alone and stays byte-identical at every shard
// count (pinned by TestShardedRebuildDeterminism). What sharding buys
// is throughput: ingest replay and PFI rebuilds for different games run
// on different shard workers instead of contending on one service.
//
// Routing is rendezvous (highest-random-weight) hashing: each shard
// scores Combine(hash(game), shard salt) and the highest score owns the
// game. Unlike modulo placement, growing the shard count only moves the
// games whose new shard actually wins — there is no global reshuffle.

// DefaultShardQueueCap bounds each shard's ingest queue unless the
// service is built with an explicit cap (ServiceOptions.QueueCap,
// profilerd/fleetbench -shard-queue-cap). A full queue sheds load
// (HTTP 429 + Retry-After) instead of queueing unboundedly — the
// device backs off, the shard stays bounded.
const DefaultShardQueueCap = 64

// ShardFor returns the shard owning a game under rendezvous hashing
// over the given shard count. Deterministic in (game, shards); every
// router replica computes the same owner with no shared state.
func ShardFor(game string, shards int) int {
	if shards <= 1 {
		return 0
	}
	gh := trace.HashString(game)
	best, bestW := 0, uint64(0)
	for i := 0; i < shards; i++ {
		w := trace.Combine(gh, trace.HashString("snip-shard-"+strconv.Itoa(i)))
		if i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// ingestJob is one unit of shard work: the closure runs on the shard's
// worker, its error lands on done.
type ingestJob struct {
	run  func() error
	done chan error
}

// shardMetrics are the per-shard series (snip_cloud_shard_*), labeled
// by shard id at construction so every series exists from the first
// scrape.
type shardMetrics struct {
	batches    *obs.Counter
	sessions   *obs.Counter
	records    *obs.Counter
	rebuilds   *obs.Counter
	queueShed  *obs.Counter
	queueDepth *obs.Gauge
	otaDelta   *obs.Counter
	otaFull    *obs.Counter
	deltaBytes *obs.Counter
	fullBytes  *obs.Counter
}

// shard owns a partition of the games: their profilers plus a bounded
// ingest queue drained by one worker goroutine. Handlers enqueue and
// wait, so request semantics are unchanged — the queue is what
// serializes a shard's replay/PFI work onto its own worker instead of
// the shared handler pool.
type shard struct {
	id        int
	cap       int
	mu        sync.Mutex
	profilers map[string]*Profiler
	queue     chan ingestJob
	met       shardMetrics
}

func newShard(id, queueCap int, reg *obs.Registry) *shard {
	if queueCap < 1 {
		queueCap = DefaultShardQueueCap
	}
	l := `{shard="` + strconv.Itoa(id) + `"}`
	return &shard{
		id:        id,
		cap:       queueCap,
		profilers: make(map[string]*Profiler),
		queue:     make(chan ingestJob, queueCap),
		met: shardMetrics{
			batches:    reg.Counter(`snip_cloud_shard_batches_total`+l, "batch uploads ingested by this shard"),
			sessions:   reg.Counter(`snip_cloud_shard_sessions_total`+l, "sessions ingested by this shard"),
			records:    reg.Counter(`snip_cloud_shard_records_total`+l, "profile records reconstructed by this shard"),
			rebuilds:   reg.Counter(`snip_cloud_shard_rebuilds_total`+l, "PFI rebuilds completed by this shard"),
			queueShed:  reg.Counter(`snip_cloud_shard_queue_shed_total`+l, "ingest requests shed because the shard queue was full"),
			queueDepth: reg.Gauge(`snip_cloud_shard_queue_depth`+l, "ingest jobs waiting on the shard queue"),
			otaDelta:   reg.Counter(`snip_cloud_shard_ota_delta_total`+l, "OTA updates served as delta chains"),
			otaFull:    reg.Counter(`snip_cloud_shard_ota_full_total`+l, "OTA updates served as full tables"),
			deltaBytes: reg.Counter(`snip_cloud_shard_ota_delta_bytes_total`+l, "bytes served as delta chains"),
			fullBytes:  reg.Counter(`snip_cloud_shard_ota_full_bytes_total`+l, "bytes served as full tables"),
		},
	}
}

// run drains the shard queue until Close closes it.
func (sh *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for job := range sh.queue {
		job.done <- job.run()
		sh.met.queueDepth.Set(int64(len(sh.queue)))
	}
}

// enqueue hands work to the shard worker and waits for it. shed=true
// means the bounded queue was full and the job never ran — the caller
// answers 429.
func (sh *shard) enqueue(run func() error) (err error, shed bool) {
	job := ingestJob{run: run, done: make(chan error, 1)}
	select {
	case sh.queue <- job:
		sh.met.queueDepth.Set(int64(len(sh.queue)))
		return <-job.done, false
	default:
		sh.met.queueShed.Inc()
		return nil, true
	}
}

// profiler returns (creating if needed) the shard's profiler for game.
func (sh *shard) profiler(game string, cfg pfi.Config, deltaCap int) *Profiler {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.profilers[game]
	if !ok {
		p = newProfiler(game, cfg, deltaCap)
		sh.profilers[game] = p
	}
	return p
}

// games returns the shard's game names, sorted.
func (sh *shard) games() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	names := make([]string, 0, len(sh.profilers))
	for g := range sh.profilers {
		names = append(names, g)
	}
	sort.Strings(names)
	return names
}

// ShardzShard is one shard's row in the /v1/shardz rollup.
type ShardzShard struct {
	Shard          int      `json:"shard"`
	Games          []string `json:"games"`
	IngestBatches  int64    `json:"ingest_batches"`
	IngestSessions int64    `json:"ingest_sessions"`
	IngestRecords  int64    `json:"ingest_records"`
	Rebuilds       int64    `json:"rebuilds"`
	QueueDepth     int64    `json:"queue_depth"`
	QueueCap       int      `json:"queue_cap"`
	QueueShed      int64    `json:"queue_shed"`
	OTADeltaServed int64    `json:"ota_delta_served"`
	OTAFullServed  int64    `json:"ota_full_served"`
	OTADeltaBytes  int64    `json:"ota_delta_bytes"`
	OTAFullBytes   int64    `json:"ota_full_bytes"`
	MaxDeltaChain  int      `json:"max_delta_chain"`
}

// ShardzReply is the GET /v1/shardz JSON schema.
type ShardzReply struct {
	Shards   int           `json:"shards"`
	DeltaCap int           `json:"delta_chain_cap"`
	PerShard []ShardzShard `json:"per_shard"`
}

// Shardz snapshots the per-shard rollup served at /v1/shardz — the feed
// for snipstat's shard pane.
func (s *Service) Shardz() ShardzReply {
	reply := ShardzReply{Shards: len(s.shards), DeltaCap: s.deltaCap}
	for _, sh := range s.shards {
		row := ShardzShard{
			Shard:          sh.id,
			Games:          sh.games(),
			IngestBatches:  sh.met.batches.Value(),
			IngestSessions: sh.met.sessions.Value(),
			IngestRecords:  sh.met.records.Value(),
			Rebuilds:       sh.met.rebuilds.Value(),
			QueueDepth:     sh.met.queueDepth.Value(),
			QueueCap:       sh.cap,
			QueueShed:      sh.met.queueShed.Value(),
			OTADeltaServed: sh.met.otaDelta.Value(),
			OTAFullServed:  sh.met.otaFull.Value(),
			OTADeltaBytes:  sh.met.deltaBytes.Value(),
			OTAFullBytes:   sh.met.fullBytes.Value(),
		}
		sh.mu.Lock()
		for _, p := range sh.profilers {
			if n := p.DeltaChainLen(); n > row.MaxDeltaChain {
				row.MaxDeltaChain = n
			}
		}
		sh.mu.Unlock()
		reply.PerShard = append(reply.PerShard, row)
	}
	return reply
}

// handleUpdate is the generation-negotiated OTA endpoint, and the only
// one that serves tables:
//
//	GET /v1/update?game=G&gen=N
//
// gen is the table version the device currently serves (0 or absent:
// none). Responses: 404 no table built; 304 the device is current; else
// a delta chain (X-Snip-Format: delta) when the retained chain covers
// gen and is smaller than the image, otherwise the full flat image
// (X-Snip-Format: flat). A device ahead of the service (its table came
// from a service instance that has since lost its state) gets the full
// image too.
func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	game, ok := gameParam(w, r)
	if !ok {
		return
	}
	gen := 0
	if q := r.URL.Query().Get("gen"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "bad gen", http.StatusBadRequest)
			return
		}
		gen = n
	}
	p := s.profiler(game)
	up := p.Latest()
	if up == nil {
		http.Error(w, "no table built yet", http.StatusNotFound)
		return
	}
	if gen == up.Version {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	sh := s.shardFor(game)
	img := up.Table.(*memo.FlatTable).Image()
	frame, err := p.DeltaChainFrom(gen)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Serving a chain larger than the image it reconstructs would be
	// delta theater; prefer the full image.
	if frame == nil || len(frame) >= len(img) {
		writeTable(w, up, "flat", img, func() {
			s.met.tablesServed.Inc()
			sh.met.otaFull.Inc()
			sh.met.fullBytes.Add(int64(len(img)))
		})
		return
	}
	writeTable(w, up, "delta", frame, func() {
		sh.met.otaDelta.Inc()
		sh.met.deltaBytes.Add(int64(len(frame)))
	})
}

// writeTable answers a table request with payload in the given
// X-Snip-Format. A flat image's bytes ARE the serving structure, so the
// device validates the header + CRC and probes straight out of the
// buffer; the update's metadata rides the X-Snip-* headers. The reply
// states its length, so a client may have all of it before the handler
// returns: served, which counts it, runs before the payload is written.
func writeTable(w http.ResponseWriter, up *TableUpdate, format string, payload []byte, served func()) {
	pm, err := json.Marshal(up.Metrics)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Snip-Format", format)
	w.Header().Set("X-Snip-Game", up.Game)
	w.Header().Set("X-Snip-Version", strconv.Itoa(up.Version))
	w.Header().Set("X-Snip-Records", strconv.Itoa(up.ProfileRecords))
	w.Header().Set("X-Snip-Pfi", string(pm))
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	served()
	_, _ = w.Write(payload)
}

// UpdateResult describes how FetchUpdate brought the device current.
type UpdateResult struct {
	// Update is the freshly applicable table, nil when NotModified.
	Update *TableUpdate
	// Format is how the final table arrived: "delta" (a chain patched
	// onto the device's table) or "flat" (the full image). Empty when
	// NotModified.
	Format string
	// NotModified reports the device was already current.
	NotModified bool
	// WireBytes counts every OTA byte the exchange moved, including a
	// delta chain that failed to apply before the full-image fallback.
	WireBytes units.Size
	// DeltaBytes and FullBytes split WireBytes by path.
	DeltaBytes units.Size
	FullBytes  units.Size
	// DeltaLinks is how many chain links were applied.
	DeltaLinks int
	// FullFallback reports that a delta response could not be applied
	// (base mismatch after a rollback, corrupt chain) and the full image
	// was fetched instead.
	FullFallback bool
}

// FetchTable downloads the latest full table: GET /v1/update with
// gen=0, which the service always answers with the full flat image. The
// image is validated and served out of the downloaded buffer directly.
func (c *Client) FetchTable(game string) (*TableUpdate, error) {
	resp, body, err := c.getUpdate(game, 0)
	if err != nil {
		return nil, err
	}
	return fullUpdate(resp, game, body)
}

// FetchUpdate negotiates an OTA update: it reports the generation the
// device serves (haveVersion, with have as the local flat table) and
// applies whatever comes back — a delta chain patched onto have with
// full LoadFlatTable validation (ApplyDeltaChain), or the full flat
// image. A delta chain that fails to decode or apply is not an error:
// the client makes one gen=0 request for the full image and reports the
// fallback in the result, so a device whose real generation drifted
// from what it reported (e.g. after a guard rollback) self-heals at the
// next fetch.
func (c *Client) FetchUpdate(game string, haveVersion int, have *memo.FlatTable) (*UpdateResult, error) {
	if have == nil {
		haveVersion = 0
	}
	resp, body, err := c.getUpdate(game, haveVersion)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotModified {
		return &UpdateResult{NotModified: true}, nil
	}
	res := &UpdateResult{WireBytes: units.Size(len(body))}
	if resp.Header.Get("X-Snip-Format") != "delta" {
		up, err := fullUpdate(resp, game, body)
		if err != nil {
			return nil, err
		}
		res.Update, res.Format, res.FullBytes = up, "flat", res.WireBytes
		return res, nil
	}
	res.DeltaBytes = res.WireBytes
	up, links, derr := deltaUpdate(resp, game, body, have)
	if derr == nil {
		res.Update, res.Format, res.DeltaLinks = up, "delta", links
		return res, nil
	}
	// The chain is unusable on this base. Fetch the full table; the
	// wasted chain bytes stay counted.
	resp, body, err = c.getUpdate(game, 0)
	if err == nil {
		up, err = fullUpdate(resp, game, body)
	}
	if err != nil {
		return nil, fmt.Errorf("cloud: full-image fallback after delta failure (%v): %w", derr, err)
	}
	res.Update, res.Format, res.FullFallback = up, "flat", true
	res.FullBytes = units.Size(len(body))
	res.WireBytes += res.FullBytes
	return res, nil
}

// getUpdate issues GET /v1/update for a game and generation and reads
// the reply (readBody, at most trace.DefaultMaxDecodedDelta bytes). A
// 304 comes back with a nil body; any other status but 200 is an error.
func (c *Client) getUpdate(game string, gen int) (*http.Response, []byte, error) {
	u := c.endpoint("/v1/update", url.Values{
		"game": {game}, "gen": {strconv.Itoa(gen)},
	})
	resp, _, err := c.do(http.MethodGet, u, "", nil, obs.SpanContext{})
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return resp, nil, nil
	}
	if err := errFromResponse(resp); err != nil {
		return nil, nil, err
	}
	body, err := readBody(resp, trace.DefaultMaxDecodedDelta)
	if err != nil {
		return nil, nil, fmt.Errorf("cloud: read update: %w", err)
	}
	return resp, body, nil
}

// readBody reads a reply body of a stated length of at most limit bytes
// into one buffer of exactly that length, which a loaded table keeps as
// its image. A body of no stated length, or longer than limit or than
// its stated length, is an error.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > limit {
		return nil, fmt.Errorf("body of stated length %d: want 0 to the %d-byte cap", n, limit)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	if k, _ := resp.Body.Read(make([]byte, 1)); k > 0 {
		return nil, fmt.Errorf("body runs past its stated %d bytes", n)
	}
	return body, nil
}

// fullUpdate loads a full-table reply: a flat image, validated by
// LoadFlatTable. Any other reply — a 304, a delta chain, another
// format — is an error.
func fullUpdate(resp *http.Response, game string, body []byte) (*TableUpdate, error) {
	if f := resp.Header.Get("X-Snip-Format"); resp.StatusCode != http.StatusOK || f != "flat" {
		return nil, fmt.Errorf("cloud: full table reply is %q with status %d, want a flat image", f, resp.StatusCode)
	}
	t, err := memo.LoadFlatTable(body)
	if err != nil {
		return nil, fmt.Errorf("cloud: flat table payload: %w", err)
	}
	return updateFromFlatHeaders(resp, game, t)
}

// deltaUpdate decodes a delta-chain reply and patches it onto have,
// returning the patched table and how many links it applied.
func deltaUpdate(resp *http.Response, game string, body []byte, have *memo.FlatTable) (*TableUpdate, int, error) {
	chain, err := trace.DecodeDeltaChain(bytes.NewReader(body), trace.DefaultMaxDecodedDelta)
	if err != nil {
		return nil, 0, err
	}
	patched, err := memo.ApplyDeltaChain(have, chain)
	if err != nil {
		return nil, 0, err
	}
	up, err := updateFromFlatHeaders(resp, game, patched)
	if err != nil {
		return nil, 0, err
	}
	if last := chain.Deltas[len(chain.Deltas)-1].ToVersion; last != up.Version {
		return nil, 0, fmt.Errorf("cloud: delta chain ends at version %d, header says %d", last, up.Version)
	}
	return up, len(chain.Deltas), nil
}

// updateFromFlatHeaders assembles a TableUpdate around a flat table from
// the X-Snip-* response headers (the metadata a raw-image response
// cannot carry in-band).
func updateFromFlatHeaders(resp *http.Response, game string, t *memo.FlatTable) (*TableUpdate, error) {
	up := &TableUpdate{Game: resp.Header.Get("X-Snip-Game"), Selection: t.Selection(), Table: t}
	if up.Game == "" {
		up.Game = game
	}
	if v, err := strconv.Atoi(resp.Header.Get("X-Snip-Version")); err == nil {
		up.Version = v
	}
	if n, err := strconv.Atoi(resp.Header.Get("X-Snip-Records")); err == nil {
		up.ProfileRecords = n
	}
	if pm := resp.Header.Get("X-Snip-Pfi"); pm != "" {
		if err := json.Unmarshal([]byte(pm), &up.Metrics); err != nil {
			return nil, fmt.Errorf("cloud: bad X-Snip-Pfi header: %w", err)
		}
	}
	return up, nil
}
