package snip

import (
	"io"
	"log/slog"
	"net/http"
	"time"

	"snip/internal/cloud"
	"snip/internal/memo"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

// CloudService is the cloud-side profiler of Fig. 10, exposed over HTTP:
// devices upload events-only logs in session batches, the service
// replays them in the emulator, runs PFI and serves OTA lookup tables
// (the full flat image, or a delta chain to a device a few generations
// behind). Games are partitioned across in-process shard replicas
// behind a deterministic rendezvous router; each shard owns its games'
// profiles and drains its own bounded ingest queue. Figures are
// byte-identical at every shard count; sharding only moves work. Every
// ingest endpoint runs behind the admission controller, whose live view
// is served at GET /v1/overloadz.
type CloudService struct {
	svc *cloud.Service
}

// CloudServiceOptions configures the service on top of its PFI options.
// The zero value is one shard, the default queue capacity and delta
// chain bound, and no ingest quota.
type CloudServiceOptions struct {
	// Shards is the profiler replica count (default 1).
	Shards int
	// QueueCap bounds each shard's ingest queue (default 64); a full
	// queue sheds with 429 + Retry-After.
	QueueCap int
	// QuotaRatePerSec, when > 0, gates bulk ingest per game with a
	// token bucket: sustained requests/second allowed per game.
	QuotaRatePerSec float64
	// QuotaBurst is the bucket capacity (defaults to QuotaRatePerSec).
	QuotaBurst float64
	// DeltaCap bounds every game's retained delta chain — the longest
	// chain GET /v1/update ships before falling back to the full image
	// (default 4).
	DeltaCap int
}

// NewCloudService builds the profiler service. The options are fixed
// for its lifetime. Call Close when done.
func NewCloudService(o PFIOptions, co CloudServiceOptions) *CloudService {
	return &CloudService{svc: cloud.NewServiceWithOptions(o.config(), cloud.ServiceOptions{
		Shards:   co.Shards,
		QueueCap: co.QueueCap,
		Quota:    cloud.QuotaConfig{RatePerSec: co.QuotaRatePerSec, Burst: co.QuotaBurst},
		DeltaCap: co.DeltaCap,
	})}
}

// Close stops the shard workers and drains in-flight ingest work. Call
// after the HTTP server has stopped accepting requests.
func (s *CloudService) Close() { s.svc.Close() }

// Shards returns the shard count behind the router.
func (s *CloudService) Shards() int { return s.svc.Shards() }

// Handler returns the HTTP handler to mount. Besides the profiler
// endpoints it serves GET /v1/metrics: a Prometheus-text exposition of
// the service's request, upload, rebuild and PFI-search series.
func (s *CloudService) Handler() http.Handler { return s.svc.Handler() }

// SetLogger attaches a structured logger for request and rebuild
// events; nil disables logging.
func (s *CloudService) SetLogger(l *slog.Logger) { s.svc.SetLogger(l) }

// WriteMetricsText writes the service's metrics in Prometheus text
// exposition format (the same content GET /v1/metrics serves).
func (s *CloudService) WriteMetricsText(w io.Writer) error {
	return s.svc.Metrics().WritePrometheus(w)
}

// WriteMetricsJSON writes a JSON snapshot of the service's metrics.
func (s *CloudService) WriteMetricsJSON(w io.Writer) error {
	return s.svc.Metrics().WriteJSON(w)
}

// CloudClient is the device side: record a session, upload it, fetch the
// refreshed table.
type CloudClient struct {
	c *cloud.Client
}

// NewCloudClient builds a client for a CloudService base URL.
func NewCloudClient(baseURL string) *CloudClient {
	return &CloudClient{c: cloud.NewClient(baseURL)}
}

// RecordAndUpload plays one session (baseline, recording only the event
// log — the device's lightweight instrumentation) and uploads it as a
// one-session batch.
func (c *CloudClient) RecordAndUpload(game string, seed uint64, duration time.Duration) error {
	r, err := schemes.Run(schemes.Config{
		Game: game, Seed: seed, Duration: units.Time(duration / time.Microsecond),
		Scheme: schemes.Baseline, CollectEventLog: true,
	})
	if err != nil {
		return err
	}
	_, err = c.c.UploadBatch(game, []trace.SessionEvents{{Seed: seed, Log: r.EventLog}})
	return err
}

// Rebuild asks the cloud to retrain PFI and rebuild the table.
func (c *CloudClient) Rebuild(game string) error { return c.c.Rebuild(game) }

// FetchTable downloads the latest OTA table for a game.
func (c *CloudClient) FetchTable(game string) (*Table, *Selection, error) {
	up, err := c.c.FetchTable(game)
	if err != nil {
		return nil, nil, err
	}
	return &Table{t: up.Table.(*memo.FlatTable)}, &Selection{
		SelectedBytes:   up.Selection.TotalWidth().Bytes(),
		Coverage:        up.Metrics.Coverage,
		PersistentError: up.Metrics.NonTempError,
		TempError:       up.Metrics.TempError,
	}, nil
}

// Learner runs the continuous-learning loop (Fig. 12) in-process: each
// Epoch ingests one more session and retrains.
type Learner struct {
	l    *cloud.Learner
	game string
}

// NewLearner builds a learner for a game. initialRecords caps the FIRST
// epoch's profile to model an insufficient initial profile (0 disables).
func NewLearner(game string, o PFIOptions, initialRecords int) *Learner {
	return &Learner{l: cloud.NewLearner(game, o.config(), initialRecords), game: game}
}

// Epoch plays one session with the current table, reports its error rate
// and coverage, then uploads the session and retrains.
func (l *Learner) Epoch(seed uint64, duration time.Duration) (errorRate, coverage float64, err error) {
	d := units.Time(duration / time.Microsecond)
	if up := l.l.Profiler.Latest(); up != nil {
		r, err := schemes.Run(schemes.Config{
			Game: l.game, Seed: seed, Duration: d,
			Scheme: schemes.SNIP, Table: up.Table, EvalCorrectness: true,
		})
		if err != nil {
			return 0, 0, err
		}
		errorRate = r.Errors.FieldErrorRate()
		coverage = r.CoverageFraction()
	}
	ground, err := schemes.Profile(l.game, seed, d)
	if err != nil {
		return 0, 0, err
	}
	if _, err := l.l.Epoch(ground.Dataset); err != nil {
		return 0, 0, err
	}
	return errorRate, coverage, nil
}

// ProfileRecords returns the accumulated profile size.
func (l *Learner) ProfileRecords() int { return l.l.Profiler.ProfileLen() }
