// surged serve: host a detector as a long-running HTTP service.
//
// Endpoints (see surge/client for the wire schema):
//
//	POST /v1/ingest     NDJSON or CSV object batches
//	GET  /v1/best       current bursty region
//	GET  /v1/topk?k=N   greedy top-k over the live windows, O(1) from the
//	                    continuously maintained answer; N <= -topk
//	GET  /v1/subscribe  SSE stream of bursty-region and top-k changes;
//	                    Last-Event-ID resumes after a disconnect
//	POST /v1/snapshot   detector checkpoint (octet-stream)
//	POST /v1/restore    replace state from a checkpoint
//	GET  /v1/stats      typed JSON telemetry: latency histograms for every
//	                    pipeline stage, counters and runtime health
//	GET  /healthz       health summary
//	GET  /metrics       Prometheus text metrics
//
// The server is multi-query: POST /v1/queries registers additional named
// queries over the same ingest stream (GET lists them, DELETE removes one)
// and every single-query endpoint above has a per-query twin under
// /v1/queries/{id}/. The paths above address the query named "default".
// -queries seeds named queries at boot from a JSON file.
//
// Every query is one detector plus one maintained top-k chain: /best is the
// chain's rank 1, /topk a prefix of its answer. The served algorithms are
// therefore the ones a chain reproduces bitwise — CCS, B-CCS, Base, GAPS and
// MGAPS; aG2 and Oracle remain library and surgebench baselines.
//
// Lifecycle events (startup, checkpoint, restore, degraded-mode
// transitions, shutdown) are structured logs on stderr; -log-format picks
// text or JSON.
//
// With -data-dir the server is durable: every acknowledged ingest batch is
// appended to a write-ahead log in the directory before its 200 goes out,
// and boot recovers the exact acknowledged state by replaying the log tail
// on top of the newest checkpoint — a kill -9 loses nothing that was
// acked. -wal-sync picks the fsync policy (what a *machine* crash can
// lose) and -checkpoint-every paces the background checkpoints that keep
// the log compact. See the package surge doc's Durability section.
//
// On SIGINT/SIGTERM the server checkpoints to -checkpoint (if set), stops
// accepting work and shuts the HTTP listener down gracefully.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"surge"
	"surge/internal/server"
	"surge/internal/wal"
)

func runServe(args []string) error {
	fs := flag.NewFlagSet("surged serve", flag.ExitOnError)
	var (
		addr    = fs.String("addr", ":7077", "listen address")
		algo    = fs.String("algo", "CCS", "algorithm: CCS, GAPS or MGAPS (B-CCS and Base are accepted and serve the same maintained kCCS chain as CCS)")
		width   = fs.Float64("width", 0.01, "query rectangle width")
		height  = fs.Float64("height", 0.01, "query rectangle height")
		win     = fs.Float64("window", 3600, "window length |Wc| (= |Wp| unless -past-window)")
		pastW   = fs.Float64("past-window", 0, "past window length |Wp| (0 = same as -window)")
		alpha   = fs.Float64("alpha", 0.5, "burst-score balance parameter in [0,1)")
		shards  = fs.Int("shards", 0, "engine shards: 1 = single engine, 0 = one per CPU")
		blkCols = fs.Int("block-cols", 0, "ownership block width in query-width columns (0 = default)")
		batch   = fs.Int("batch", 512, "objects per detector synchronisation on ingest")
		topk    = fs.Int("topk", 5, "k of the continuously maintained top-k chain: the largest k /v1/topk answers (>= 1)")
		ring    = fs.Int("notify-ring", 256, "recent SSE notifications retained for Last-Event-ID reconnect backfill")
		policy  = fs.String("time-policy", "clamp", "out-of-order ingest timestamps: clamp (lift to the stream clock, safe for concurrent ingesters) or strict (reject)")
		subBuf  = fs.Int("sub-buffer", 64, "per-subscriber notification buffer before oldest-first drops")
		ckptOut = fs.String("checkpoint", "", "write a checkpoint to this file on shutdown")
		ckptIn  = fs.String("restore", "", "seed the detector from this checkpoint file at boot")
		pprofOn = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling; leave off unless the listener is access-controlled)")
		logFmt  = fs.String("log-format", "text", "structured log format on stderr: text or json")

		readHdrT = fs.Duration("read-header-timeout", 10*time.Second, "close connections whose request headers take longer than this to arrive (slowloris guard)")
		idleT    = fs.Duration("idle-timeout", 120*time.Second, "close idle keep-alive connections after this long")

		queries  = fs.String("queries", "", "JSON file declaring named queries registered at boot beside \"default\" (an array of /v1/queries create bodies)")
		qMaxSubs = fs.Int("query-max-subs", 0, "cap on concurrent SSE subscribers per query; past it a subscribe fails with 429 quota_exceeded (0 = unlimited)")

		dataDir  = fs.String("data-dir", "", "durable mode: write-ahead log and checkpoints live here; boot recovers the acknowledged state from it")
		walSync  = fs.String("wal-sync", "always", "WAL fsync policy: always (fsync before each ack), off (never), or an interval like 100ms (background fsync; a machine crash can lose up to one interval)")
		ckptEvry = fs.Duration("checkpoint-every", time.Minute, "durable mode: background checkpoint period (compacts the covered WAL); <0 disables")
		walSegMB = fs.Int("wal-segment-mb", 64, "durable mode: WAL segment rotation size in MiB")
		maxPend  = fs.Int("max-pending", 256, "admission control: shed ingest chunks with 429 once this many wait on the event loop; <0 disables")
	)
	fs.Parse(args)

	// Reject the flag conflict before any work (parsing files, opening the
	// data directory) happens on either side of it.
	if *ckptIn != "" && *dataDir != "" {
		return fmt.Errorf("-restore and -data-dir are mutually exclusive: the data directory defines the state (POST a checkpoint to /v1/restore instead)")
	}

	alg, err := parseAlgo(*algo)
	if err != nil {
		return err
	}
	tp, err := server.ParseTimePolicy(*policy)
	if err != nil {
		return err
	}
	nShards := *shards
	if nShards == 0 {
		nShards = runtime.NumCPU()
	}
	if nShards < 1 {
		return fmt.Errorf("invalid -shards %d", *shards)
	}
	if *topk < 1 {
		return fmt.Errorf("invalid -topk %d (want >= 1: every query is served from its maintained top-k chain)", *topk)
	}
	if *qMaxSubs < 0 {
		return fmt.Errorf("invalid -query-max-subs %d", *qMaxSubs)
	}
	var logger *slog.Logger
	switch *logFmt {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		return fmt.Errorf("invalid -log-format %q (want text or json)", *logFmt)
	}
	cfg := server.Config{
		Algorithm: alg,
		Options: surge.Options{
			Width: *width, Height: *height,
			Window: *win, PastWindow: *pastW, Alpha: *alpha,
			Shards: nShards, ShardBlockCols: *blkCols,
		},
		TopK:                *topk,
		NotifyRing:          *ring,
		TimePolicy:          tp,
		BatchSize:           *batch,
		SubscriberBuffer:    *subBuf,
		MaxPending:          *maxPend,
		QueryMaxSubscribers: *qMaxSubs,
		EnablePprof:         *pprofOn,
		Logger:              logger,
	}
	if *ckptIn != "" {
		data, err := os.ReadFile(*ckptIn)
		if err != nil {
			return err
		}
		cfg.Checkpoint = data
	}
	if *queries != "" {
		data, err := os.ReadFile(*queries)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &cfg.Queries); err != nil {
			return fmt.Errorf("parsing -queries %s: %w", *queries, err)
		}
	}
	var s *server.Server
	if *dataDir != "" {
		if *walSegMB < 1 {
			return fmt.Errorf("invalid -wal-segment-mb %d", *walSegMB)
		}
		sync, every, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			return err
		}
		s, err = server.NewDurable(cfg, server.DurableConfig{
			Dir:             *dataDir,
			Sync:            sync,
			SyncEvery:       every,
			SegmentBytes:    int64(*walSegMB) << 20,
			CheckpointEvery: *ckptEvry,
		})
		if err != nil {
			return err
		}
	} else if s, err = server.New(cfg); err != nil {
		return err
	}

	// No blanket read/write timeouts: ingest streams and SSE subscriptions
	// are legitimately long-lived. The header and idle timeouts (plus a
	// header size cap) bound what a misbehaving client can pin.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: *readHdrT,
		IdleTimeout:       *idleT,
		MaxHeaderBytes:    1 << 20,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Report the effective query options: a -restore checkpoint defines
	// the geometry, overriding the width/height/window/alpha flags.
	eff := s.DetectorOptions()
	errc := make(chan error, 1)
	go func() {
		logger.Info("surged serving",
			"algorithm", alg.String(), "shards", nShards, "addr", *addr,
			"width", eff.Width, "height", eff.Height,
			"window", eff.Window, "past_window", eff.PastWindow, "alpha", eff.Alpha)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: Shutdown stops accepting work *before* the
	// checkpoint is taken, so every acknowledged ingest is in the file and
	// SSE subscribers disconnect, letting the listener drain.
	logger.Info("surged shutting down")
	if *ckptOut != "" || *dataDir != "" {
		// In durable mode Shutdown also persists the final checkpoint to the
		// data directory, so the next boot replays nothing.
		data, err := s.Shutdown()
		if err != nil {
			logger.Error("checkpoint failed", "err", err)
		} else if *ckptOut != "" {
			if err := wal.WriteFileAtomic(*ckptOut, data, 0o644); err != nil {
				logger.Error("writing checkpoint file failed", "path", *ckptOut, "err", err)
			} else {
				logger.Info("checkpoint written", "path", *ckptOut, "bytes", len(data))
			}
		}
	}
	if err := s.Close(); err != nil {
		logger.Error("detector close failed", "err", err)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
