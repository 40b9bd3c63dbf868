// Command profilerd runs SNIP's cloud profiler as an HTTP daemon: devices
// POST batches of events-only session logs, the daemon replays them against the
// emulator (the deterministic game engine), runs PFI, and serves OTA
// lookup tables.
//
// With -shards N the daemon partitions games across N in-process shard
// replicas behind a deterministic rendezvous router; figures are
// byte-identical at every shard count.
//
// Usage:
//
//	profilerd -addr 127.0.0.1:8370 -shards 4 -delta-cap 4 \
//		-shard-queue-cap 64 -quota-rate 50 -quota-burst 100
//
// Every flag is optional; zero values take the service defaults.
//
// Endpoints (the full list is in internal/cloud/http.go):
//
//	POST /v1/upload-batch?game=G     (body: SNIPBTCH3 session batch: a header, then each event field in its own delta-coded stream)
//	POST /v1/rebuild?game=G
//	GET  /v1/update?game=G&gen=N     (CRC-guarded delta chain from gen N, or the full flat image; gen=0 always gets the image)
//	GET  /v1/status?game=G
//	GET  /v1/shardz                  (per-shard ingest/queue/OTA rollup)
//	GET  /v1/overloadz               (admission controller: classes, quotas, autoscale signal)
//	GET  /v1/fleetz?game=G&limit=N   (device telemetry: drift, pressure and energy verdicts; per-generation hit-rate and energy rollups)
//	GET  /v1/metrics                 (Prometheus text exposition)
//
// -shard-queue-cap bounds each shard's ingest queue and -quota-rate /
// -quota-burst gate bulk ingest per game; overflow is shed with 429 +
// Retry-After, never blocking guard- or telemetry-class requests.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"snip"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8370", "listen address")
	metricsMode := flag.String("metrics", "", "dump collected metrics to stderr at exit: text (Prometheus) | json")
	drain := flag.Duration("drain", 5*time.Second, "how long to let in-flight uploads finish on SIGINT/SIGTERM")
	shards := flag.Int("shards", 1, "in-process profiler shard replicas behind the rendezvous router")
	deltaCap := flag.Int("delta-cap", 0, "longest delta chain /v1/update ships before falling back to a full image (0 = default)")
	queueCap := flag.Int("shard-queue-cap", 0, "bound on each shard's ingest queue; a full queue sheds with 429 + Retry-After (0 = default 64)")
	quotaRate := flag.Float64("quota-rate", 0, "per-game bulk-ingest quota in requests/second; 0 disables the token bucket")
	quotaBurst := flag.Float64("quota-burst", 0, "per-game quota bucket capacity (0 = same as -quota-rate)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *metricsMode != "" && *metricsMode != "text" && *metricsMode != "json" {
		logger.Error("bad -metrics mode", "mode", *metricsMode)
		os.Exit(2)
	}

	if *shards < 1 {
		logger.Error("bad -shards", "shards", *shards)
		os.Exit(2)
	}
	if *queueCap < 0 || *quotaRate < 0 || *quotaBurst < 0 {
		logger.Error("bad overload knob", "shard-queue-cap", *queueCap, "quota-rate", *quotaRate, "quota-burst", *quotaBurst)
		os.Exit(2)
	}
	svc := snip.NewCloudService(snip.DefaultPFIOptions(), snip.CloudServiceOptions{
		Shards:          *shards,
		QueueCap:        *queueCap,
		QuotaRatePerSec: *quotaRate,
		QuotaBurst:      *quotaBurst,
		DeltaCap:        *deltaCap,
	})
	defer svc.Close()
	svc.SetLogger(logger)

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("profilerd listening", "addr", *addr, "shards", svc.Shards())

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logger.Info("shutting down", "drain", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
	}

	switch *metricsMode {
	case "text":
		if err := svc.WriteMetricsText(os.Stderr); err != nil {
			logger.Error("metrics dump failed", "err", err)
		}
	case "json":
		if err := svc.WriteMetricsJSON(os.Stderr); err != nil {
			logger.Error("metrics dump failed", "err", err)
		}
	}
}
