// Package server hosts surge detectors behind HTTP: surged serve. It turns
// the embeddable, single-goroutine TopKDetector into a long-running service —
// network ingestion, push-based change notification, snapshots and
// observability — without giving up the library's exactness guarantees.
//
// # Multi-query tenancy
//
// One server hosts a registry of named queries over one shared spatial
// stream. Each ingested object is parsed, admitted and (on a durable
// server) logged exactly once, then fanned out to every registered query.
// Queries are created and deleted at runtime (/v1/queries); the bare
// single-query paths (/v1/best, ...) address the registry's "default" query.
// Queries whose configurations agree share engine state (boot-time dedup),
// so a thousand identical dashboards cost one engine, and boot queries
// whose windows agree share one window (windowGroup), so eight query sizes
// on one stream keep one live set and generate its events once.
//
// # Concurrency model
//
// Engine state lives in slots, each owned by a single-writer event loop:
// one goroutine receives closures over a channel and is the only code that
// initiates detector mutations. HTTP handlers parse request bodies
// concurrently (the hot path — NDJSON/CSV decoding dominates ingest cost)
// and submit fixed-size object batches to the loop, which feeds each batch
// into every window once, fans the window events out to the registry's
// slots over a fixed worker pool (one submission per slot, pinned per slot
// so a slot's applies stay single-threaded; the slots of one window read
// the same event slice) and waits at the pool barrier. Concurrent
// ingesters therefore serialise at the loop, inherit its backpressure, and
// observe a single global stream order.
// The loop owns one stream clock and decides every chunk against it once,
// before the chunk is logged or fanned out: the Strict policy rejects a
// chunk that would run the clock backwards, the Clamp policy lifts late
// timestamps to the clock, so independent ingesters never violate the
// library's time-ordering contract. Every query — including one created
// mid-stream or restored from an older checkpoint — sees the stream as the
// server decided it.
//
// # Consistency
//
// Because every mutation flows through the loop and a Feed with its
// Consume is PushBatch, which is answer-equivalent to per-object Push, each
// query's SSE notification stream is exactly the sequence of answer
// changes a single-process run of the same object sequence (with the same
// batch boundaries) would observe — down to the bit pattern of the scores
// for the schedule-independent engines (CCS, B-CCS, Base, GAPS, MGAPS). N
// tenants of identical configuration answer bitwise identically to N
// independent single-query servers fed the same stream, and so do tenants
// that share a window.
//
// Reads never wait on ingest: after every batch, before its ack, the loop
// publishes one immutable view per query (see view), and every read
// surface is one atomic load of it.
package server

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"surge"
	"surge/client"
	"surge/internal/obs"
	"surge/internal/shard"
)

// ErrClosed is returned by server methods after Close.
var ErrClosed = errors.New("server: closed")

// TimePolicy selects how ingested timestamps that precede the stream clock
// are handled.
type TimePolicy int

const (
	// Strict rejects every ingest chunk holding an out-of-order object,
	// preserving the library's contract verbatim. Single-ingester
	// deployments keep exact time semantics this way.
	Strict TimePolicy = iota
	// Clamp lifts late timestamps to the current stream clock, so any
	// number of concurrent ingesters can stream without coordinating.
	Clamp
)

// ParseTimePolicy parses "strict" or "clamp".
func ParseTimePolicy(s string) (TimePolicy, error) {
	switch s {
	case "strict":
		return Strict, nil
	case "clamp":
		return Clamp, nil
	default:
		return 0, fmt.Errorf("server: unknown time policy %q (want strict or clamp)", s)
	}
}

// Config configures a Server. Algorithm and Options configure the default
// query's engine (Options.Shards >= 2 serves it from the sharded pipeline)
// and are the inherited defaults for every entry of Queries.
//
// Every query is served by one standalone maintained top-k chain
// (surge.NewTopK, or surge.RestoreTopKSharded from a checkpoint): /best is
// its rank 1, /topk a prefix of its answer. Algorithm must therefore be one
// whose score the chain's rank 1 reproduces bitwise — CCS, B-CCS, Base, GAPS
// or MGAPS (see chainFor).
type Config struct {
	Algorithm surge.Algorithm
	Options   surge.Options
	// TopK is the k of the maintained chain: the default and the largest k
	// /v1/topk answers (0 = 5).
	TopK int
	// Queries declares named queries registered at boot alongside the
	// default query (surged serve -queries). Zero fields inherit the
	// defaults above; more queries can be added at runtime via
	// POST /v1/queries.
	Queries []client.QueryConfig
	// QueryMaxSubscribers caps the concurrent SSE subscribers per query;
	// further subscribes are rejected with 429 code "quota_exceeded"
	// (0 = unlimited).
	QueryMaxSubscribers int
	// NotifyRing is the number of recent SSE events retained per query for
	// Last-Event-ID reconnect backfill (0 = 256).
	NotifyRing int
	// TimePolicy handles out-of-order ingest timestamps (default Strict).
	TimePolicy TimePolicy
	// BatchSize is the number of objects per detector synchronisation on
	// the ingest path (0 = 512).
	BatchSize int
	// SubscriberBuffer is the per-subscriber notification buffer; a
	// subscriber that falls further behind loses oldest-first, with the
	// loss accounted in Notification.Dropped (0 = 64).
	SubscriberBuffer int
	// MaxPending is the admission-control watermark: when this many ingest
	// chunks are already submitted and waiting on the event loop, further
	// chunks are shed with 429 and a Retry-After hint instead of queueing
	// unboundedly (0 = 256; negative disables shedding).
	MaxPending int
	// Checkpoint optionally seeds the default query's chain from a
	// snapshot instead of starting empty. The checkpoint's recorded query
	// options (width, height, windows, alpha, area) define the chain — only
	// Shards and ShardBlockCols are taken from Options. Inspect
	// DetectorOptions for the effective configuration.
	Checkpoint []byte
	// EnablePprof mounts net/http/pprof under /debug/pprof/ so hot-path
	// regressions can be profiled in place. Off by default: the handlers
	// expose internals and cost memory, so only enable them on instances
	// whose listener is access-controlled.
	EnablePprof bool
	// Logger receives structured lifecycle logs: startup, checkpoint,
	// restore, shutdown and degraded-mode transitions. Nil discards them
	// (the library stays silent by default; surged wires -log-format here).
	Logger *slog.Logger
}

// Server hosts a registry of queries over one shared stream. Create with
// New, expose Handler on an http.Server, and Close on shutdown.
type Server struct {
	cfg      Config
	batch    int
	subBuf   int
	mux      *http.ServeMux
	reqs     chan func()
	quit     chan struct{} // closed by Close: rejects new work, ends SSE
	done     chan struct{} // closed when the loop exits
	start    time.Time
	stopping sync.Once
	closing  sync.Once
	closeErr error

	// pool runs the per-slot batch applies: fixed workers, one pinned to
	// each slot, with the event loop as the only submitter.
	pool *shard.Pool

	// Query registry. The event loop owns all mutations (create, delete,
	// restore-swap); tenMu guards the map and order for concurrent readers
	// (routing, stats, metrics). slots is the loop-owned unique-slot fan-out
	// list and groups the windows those slots consume, both rebuilt whenever
	// a binding changes.
	tenMu      sync.RWMutex
	tenants    map[string]*tenant
	order      []*tenant
	slots      []*engineSlot
	groups     []*windowGroup
	nextWorker int
	defTenant  *tenant // the "default" query; never nil, never deleted

	// Loop-owned: the stream clock, the newest decided timestamp (decide,
	// advance); boot and restore reset it from the slots (resetClock).
	clock float64

	ringCap      int
	queryMaxSubs int
	hubOcc       *obs.Histogram

	// epoch identifies this server process's notification streams: SSE event
	// ids are rendered "epoch.eid", so a Last-Event-ID cursor taken before a
	// process restart (whose rings are gone and whose eids restart from 1) is
	// recognised and answered with a fresh hello instead of a bogus resume.
	// Random and nonzero; constant for the server's lifetime, including
	// across /v1/restore (the rings stay continuous there) and shared by
	// every query (each query has its own eid space within the epoch).
	epoch uint64

	// chunkPool recycles the per-request ingest chunk buffers (capacity
	// s.batch) across requests, keeping the ingest hot path allocation-free.
	chunkPool sync.Pool

	// wal is the durability attachment (NewDurable); nil on a plain server.
	// Its log is appended on the event loop inside applyLogged.
	wal   *walState
	ckpts atomic.Uint64 // durable checkpoints written

	// Durability degradation state machine (ok -> degraded -> recovered):
	// degraded is set on the first WAL append/fsync failure and cleared by a
	// successful repair. While set, ingest is shed with 503 (one atomic load
	// on the hot path); queries, SSE and scrapes keep serving. Always false
	// on a plain server.
	degraded      atomic.Bool
	degradedCount atomic.Uint64 // ok -> degraded transitions
	repairedCount atomic.Uint64 // degraded -> recovered transitions
	degradedSince atomic.Int64  // nano wall clock of the current spell; 0 when healthy
	degradedNano  atomic.Int64  // cumulative nanos of completed degraded spells
	ckptErrs      atomic.Uint64 // failed durable checkpoint attempts
	shedDegraded  atomic.Uint64 // ingest chunks shed with 503 while degraded
	faultMsg      atomic.Pointer[string]

	// Ingest-Seq dedupe: per-source sequence state for idempotent retries.
	seqMu sync.Mutex
	seqs  map[string]*sourceSeq

	// Admission control: chunks submitted to the loop and not yet applied.
	maxPending    int64
	pendingChunks atomic.Int64
	throttled     atomic.Uint64 // chunks shed with 429

	// Server-wide counters (atomics so /metrics and handlers read them
	// lock-free); each tenant additionally keeps its own.
	objects   atomic.Uint64 // objects applied
	clamped   atomic.Uint64 // objects lifted to the stream clock (Clamp policy)
	batches   atomic.Uint64 // ingest-path synchronisations
	notifs    atomic.Uint64 // notifications published (all queries)
	dropped   atomic.Uint64 // notifications lost to slow subscribers (all queries)
	ingestErr atomic.Uint64 // failed ingest requests
	snapshots atomic.Uint64
	restores  atomic.Uint64

	topkFast   atomic.Uint64 // topk queries answered (all from the maintained snapshot)
	topkNotifs atomic.Uint64 // top-k notifications published (all queries)

	log           *slog.Logger  // never nil; discards when Config.Logger is nil
	degradedOnce  bool          // loop-owned: degraded transition logged
	healthTimeout time.Duration // /healthz event-loop probe budget

	// Latency histograms (process-wide obs.Default registry; the shard
	// pipeline and top-k chain register theirs from internal/shard).
	mAck        *obs.Histogram // ingest chunk submit -> applied & acked
	mParse      *obs.Histogram // ingest request parse time (total - ack waits)
	mBatchObjs  *obs.Histogram // objects per applied batch
	mQueueWait  *obs.Histogram // do() submit -> closure starts
	mApply      *obs.Histogram // applyBatch duration on the loop (all slots)
	mLag        *obs.Histogram // loop lag probe
	mSSEDeliver *obs.Histogram // publish -> written to subscriber

	lastIngestNano atomic.Int64 // wall clock of the last applied batch
	lastTickNano   atomic.Int64 // wall clock of the last loop-lag probe completion
}

// New builds the query registry and starts the event loop.
func New(cfg Config) (*Server, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	seeds, err := bootSeeds(cfg)
	if err != nil {
		return nil, err
	}
	return newServer(cfg, seeds)
}

// resolve applies the TopK default and rejects, before anything is built or
// opened, a TopK below 1 and a default algorithm no chain serves.
func (cfg *Config) resolve() error {
	if cfg.TopK == 0 {
		cfg.TopK = 5
	}
	if cfg.TopK < 1 {
		return fmt.Errorf("server: invalid TopK %d", cfg.TopK)
	}
	_, err := chainFor(cfg.Algorithm)
	return err
}

// newServer assembles a server from a boot registry: build one engine slot
// per seed group (seeds that agree on configuration and checkpoint lineage
// share a slot), bind a tenant per seed, and start the loops.
func newServer(cfg Config, seeds []tenantSeed) (*Server, error) {
	s := &Server{
		cfg:     cfg,
		batch:   cfg.BatchSize,
		subBuf:  cfg.SubscriberBuffer,
		reqs:    make(chan func()),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		start:   time.Now(),
		epoch:   newEpoch(),
		tenants: make(map[string]*tenant),
		seqs:    make(map[string]*sourceSeq),

		log:           cfg.Logger,
		healthTimeout: defaultHealthTimeout,
		queryMaxSubs:  cfg.QueryMaxSubscribers,
		mAck:          obs.Default.Duration(obs.MIngestAck, "Ingest chunk latency: submit to applied and acknowledged."),
		mParse:        obs.Default.Duration(obs.MIngestParse, "Ingest request time spent parsing the body (excludes ack waits)."),
		mBatchObjs:    obs.Default.Values(obs.MIngestBatch, "Objects per batch applied to the detectors."),
		mQueueWait:    obs.Default.Duration(obs.MLoopQueueWait, "Event-loop queue wait: submit to closure start."),
		mApply:        obs.Default.Duration(obs.MLoopApply, "Batch apply duration on the event loop."),
		mLag:          obs.Default.Duration(obs.MLoopLag, "Event-loop lag: self-timed probe from send to execution."),
		mSSEDeliver:   obs.Default.Duration(obs.MSSEDelivery, "SSE delivery latency: publish to written to the subscriber."),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if s.batch <= 0 {
		s.batch = 512
	}
	if s.subBuf <= 0 {
		s.subBuf = 64
	}
	switch {
	case cfg.MaxPending > 0:
		s.maxPending = int64(cfg.MaxPending)
	case cfg.MaxPending == 0:
		s.maxPending = 256
	}
	s.ringCap = cfg.NotifyRing
	if s.ringCap <= 0 {
		s.ringCap = 256
	}
	s.chunkPool.New = func() any {
		c := make([]surge.Object, 0, s.batch)
		return &c
	}
	s.hubOcc = obs.Default.Values(obs.MSSEBuffer, "Per-subscriber buffer occupancy observed at broadcast.")
	s.pool = shard.NewPool(runtime.GOMAXPROCS(0))

	// Group seeds: one engine slot per (configuration key, checkpoint
	// lineage) — identical fresh queries share, and queries restored from
	// the same persisted slot share again. Fresh slots of equal windows
	// consume one window; a restored slot keeps its own.
	groups := make(map[string]*engineSlot)
	wins := make(map[string]*engineSlot) // the first fresh slot on each window
	t0 := time.Now()
	for _, sd := range seeds {
		gk := strconv.Itoa(sd.slotTag) + "|" + sd.cfg.key()
		sl := groups[gk]
		if sl == nil {
			var on *engineSlot
			if sd.ckpt == nil {
				on = wins[sd.cfg.windowKey()]
			}
			var err error
			sl, err = s.buildSlot(sd.cfg, sd.ckpt, on)
			if err != nil {
				for _, b := range groups {
					b.close()
				}
				s.pool.Close()
				return nil, err
			}
			if sd.ckpt == nil && on == nil {
				wins[sd.cfg.windowKey()] = sl
			}
			sl.worker = s.nextWorker
			s.nextWorker++
			groups[gk] = sl
		}
		t := s.newTenant(sd.id, sd.cfg, sl)
		t.isDefault = sd.id == DefaultQueryID
		if t.isDefault {
			s.defTenant = t
		}
		s.tenants[sd.id] = t
		s.order = append(s.order, t)
	}
	s.rebuildSlots()
	s.resetClock()
	// The slots hold the restored state; the checkpoint bytes are dead.
	s.cfg.Checkpoint = nil
	dv := s.defTenant.view.Load().state
	log := s.log
	if cfg.Checkpoint != nil {
		log = log.With("restore_sec", time.Since(t0).Seconds(), "live", dv.Live)
	}
	s.routes()
	go s.loop()
	go s.lagLoop()
	log.Info("server started",
		"algorithm", cfg.Algorithm.String(),
		"shards", dv.Shards,
		"topk", cfg.TopK,
		"restored", cfg.Checkpoint != nil,
		"queries", len(s.order),
		"engine_slots", len(s.slots))
	return s, nil
}

const (
	// defaultHealthTimeout bounds how long /healthz waits for the event
	// loop before reporting it stalled.
	defaultHealthTimeout = 2 * time.Second
	// lagProbeInterval paces the self-timed event-loop lag probe.
	lagProbeInterval = 500 * time.Millisecond
)

// buildVersion is the module version baked into the binary, "dev" for
// plain source builds.
var buildVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}()

// lagLoop self-times the event loop: every probe sends a closure and the
// loop records how long it sat in the queue — the externally observable
// scheduling delay an ingest submission would see right now.
func (s *Server) lagLoop() {
	t := time.NewTicker(lagProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.probeLag()
		case <-s.quit:
			return
		}
	}
}

// probeLag fires one lag probe without waiting for it to run (a wedged
// loop must not wedge the prober; the probe records itself whenever the
// loop gets to it).
func (s *Server) probeLag() {
	t0 := time.Now()
	select {
	case s.reqs <- func() {
		s.mLag.Observe(time.Since(t0))
		s.lastTickNano.Store(time.Now().UnixNano())
	}:
	case <-s.quit:
	}
}

// noteBatch runs on the event loop after a batch lands on every slot:
// stamp the ingest clock and price the apply (an ingest batch that did not
// panic: t0 is nonzero) and log the first degraded-mode transition.
func (s *Server) noteBatch(t0 time.Time, err error) {
	if !t0.IsZero() {
		now := time.Now()
		s.lastIngestNano.Store(now.UnixNano())
		s.mApply.Observe(now.Sub(t0))
	}
	if err != nil && !s.degradedOnce {
		s.degradedOnce = true
		s.log.Error("pipeline degraded: batch apply failed, the failed query serves stale answers", "err", err)
	}
}

// newEpoch draws the random nonzero stream epoch for a server instance.
// Two distinct processes (or two Servers in one process) get different
// epochs with overwhelming probability, so a client cursor from one never
// silently resumes mid-ring on another.
func newEpoch() uint64 {
	var b [8]byte
	for i := 0; i < 4; i++ {
		if _, err := rand.Read(b[:]); err != nil {
			break
		}
		if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// loop is the single-writer event loop: the only goroutine that initiates
// detector mutations.
func (s *Server) loop() {
	defer close(s.done)
	for {
		select {
		case fn := <-s.reqs:
			s.runLoopOp(fn)
		case <-s.quit:
			// Drain work that already won the submission race.
			for {
				select {
				case fn := <-s.reqs:
					s.runLoopOp(fn)
				default:
					return
				}
			}
		}
	}
}

// runLoopOp is the loop's panic backstop: a panicking op must not kill the
// event loop — that would wedge every do() caller behind a dead channel and
// take queries down with it. The submitted closure's own defer unblocks its
// caller during the unwind; the recover here keeps the loop alive for the
// next op. Slot applies additionally recover their own panics into errors
// so a panicking apply is a rejected batch, never a zero-valued false ack.
func (s *Server) runLoopOp(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.log.Error("panic in event-loop op recovered", "panic", r, "stack", string(debug.Stack()))
		}
	}()
	fn()
}

// do runs fn on the event loop and waits for it. The queue wait — submit to
// closure start — is recorded per call; the timestamp rides the closure the
// call allocates anyway, so the hot path gains no allocation.
func (s *Server) do(fn func()) error {
	ran := make(chan struct{})
	t0 := time.Now()
	select {
	case s.reqs <- func() {
		s.mQueueWait.Observe(time.Since(t0))
		defer close(ran)
		fn()
	}:
	case <-s.quit:
		return ErrClosed
	}
	<-ran
	return nil
}

// errLoopStalled reports a /healthz probe the event loop failed to answer
// inside the timeout: the process is up but the stream pipeline is wedged.
var errLoopStalled = errors.New("server: event loop stalled")

// probeLoop is /healthz's liveness barrier: an empty op the event loop must
// run within d.
func (s *Server) probeLoop(d time.Duration) error {
	ran := make(chan struct{})
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case s.reqs <- func() { close(ran) }:
	case <-s.quit:
		return ErrClosed
	case <-timer.C:
		return errLoopStalled
	}
	select {
	case <-ran:
		return nil
	case <-timer.C:
		return errLoopStalled
	}
}

// stopLoop stops accepting work and waits for the event loop to drain:
// afterwards nothing touches the detectors concurrently, in-flight requests
// that were not applied get ErrClosed (never a 200), and SSE subscribers
// disconnect.
func (s *Server) stopLoop() {
	s.stopping.Do(func() {
		close(s.quit)
		<-s.done
	})
}

// Shutdown stops accepting work, then checkpoints the final state of every
// registered query. Stopping first closes the acknowledgement window: every
// ingest acked with a 200 is in the returned checkpoint, every one rejected
// with 503 is not. On a durable server the full registry checkpoint is also
// persisted to the data directory (and the WAL compacted), so the next boot
// restores every query and replays nothing. The returned bytes are the
// default query's detector checkpoint (the legacy -checkpoint artefact).
// The caller should still Close.
func (s *Server) Shutdown() ([]byte, error) {
	s.stopLoop()
	if s.wal != nil {
		if s.wal.loopDone != nil {
			// Join the background checkpointer: its in-flight iteration ends
			// once the loop drains, and waiting here means no stale persist can
			// race the final checkpoint below.
			<-s.wal.loopDone
		}
		if s.wal.repairDone != nil {
			<-s.wal.repairDone
		}
		if s.degraded.Load() {
			// Best-effort final repair so the checkpoint below can compact a
			// writable log; the checkpoint itself re-establishes the floor.
			if err := s.wal.log.Repair(); err == nil {
				s.exitDegraded()
			}
		}
	}
	s.snapshots.Add(1)
	// The loop is drained: nothing else touches the detectors or appends to
	// the WAL, so reading everything here is race-free and mutually
	// consistent across tenants.
	rc, err := s.captureRegistry()
	if err != nil {
		s.log.Error("shutdown checkpoint failed", "err", err)
		return nil, err
	}
	data := rc.blobs[rc.defSlot]
	s.log.Info("shutdown: final state checkpointed",
		"bytes", len(data), "objects", s.objects.Load(), "queries", len(rc.metas), "engine_slots", len(rc.blobs))
	if s.wal != nil {
		if werr := s.persistCheckpoint(rc, s.wal.log.LastLSN(), s.wal.ckptGen.Add(1)); werr != nil {
			s.log.Error("shutdown durable checkpoint failed", "err", werr)
			return data, werr
		}
	}
	return data, nil
}

// Close stops the event loop, disconnects subscribers and closes every
// engine slot (and the WAL on a durable server). It is idempotent.
func (s *Server) Close() error {
	s.closing.Do(func() {
		s.stopLoop()
		s.pool.Close()
		for _, sl := range s.slots {
			if err := sl.close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.wal != nil {
			if s.wal.loopDone != nil {
				// Join the background checkpointer before closing the log so
				// an in-flight persist never races the close.
				<-s.wal.loopDone
			}
			if s.wal.repairDone != nil {
				// Join the repair loop too: a repair rotates and reopens
				// segment files and must not race the close below.
				<-s.wal.repairDone
			}
			if werr := s.wal.log.Close(); werr != nil && s.closeErr == nil {
				s.closeErr = werr
			}
		}
		s.log.Info("server closed", "objects", s.objects.Load(), "uptime_sec", time.Since(s.start).Seconds(), "err", s.closeErr)
	})
	return s.closeErr
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// DetectorOptions returns the default query's effective engine
// configuration, which differs from Config.Options when the server was
// seeded from (or live-restored to) a checkpoint with different query
// options. A chain's options are immutable, so this reads them off-loop.
func (s *Server) DetectorOptions() surge.Options {
	return s.defTenant.slot.Load().det.Options()
}

// tenantHandler is an HTTP handler scoped to one registered query.
type tenantHandler func(t *tenant, w http.ResponseWriter, r *http.Request)

// handleTenant mounts h on each pattern, "METHOD path". The {id} path value
// picks the query — empty, as on the /v1/<verb> paths that carry none, means
// the default query — and an id the registry does not hold answers 404 with
// code "unknown_query". Once the server is closed every query route
// answers 503.
func (s *Server) handleTenant(h tenantHandler, patterns ...string) {
	for _, p := range patterns {
		s.mux.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-s.quit:
				writeError(w, http.StatusServiceUnavailable, ErrClosed, 0)
				return
			default:
			}
			t := s.defTenant
			if id := r.PathValue("id"); id != "" {
				s.tenMu.RLock()
				t = s.tenants[id]
				s.tenMu.RUnlock()
				if t == nil {
					writeErrorCode(w, http.StatusNotFound, client.CodeUnknownQuery, 0,
						fmt.Errorf("server: unknown query %q", id), 0)
					return
				}
			}
			h(t, w, r)
		})
	}
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.handleTenant(s.handleBest, "GET /v1/best", "GET /v1/queries/{id}/best")
	s.handleTenant(s.handleTopK, "GET /v1/topk", "GET /v1/queries/{id}/topk")
	s.handleTenant(s.handleSubscribe, "GET /v1/subscribe", "GET /v1/queries/{id}/subscribe")
	s.handleTenant(s.handleSnapshot, "POST /v1/snapshot", "POST /v1/queries/{id}/snapshot")
	s.handleTenant(s.handleRestore, "POST /v1/restore", "POST /v1/queries/{id}/restore")
	s.handleTenant(s.handleQueryStats, "GET /v1/queries/{id}/stats")
	s.handleTenant(s.handleQueryInfo, "GET /v1/queries/{id}")
	s.handleTenant(s.handleQueryDelete, "DELETE /v1/queries/{id}")
	s.mux.HandleFunc("GET /v1/queries", s.handleQueryList)
	s.mux.HandleFunc("POST /v1/queries", s.handleQueryCreate)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// getChunk borrows an ingest chunk buffer from the pool.
func (s *Server) getChunk() *[]surge.Object {
	return s.chunkPool.Get().(*[]surge.Object)
}

// putChunk returns an ingest chunk buffer. The loop lifts late objects in
// place and the slots only read the chunk during applyBatch, so recycling
// the backing array is safe once the request is done with it.
func (s *Server) putChunk(c *[]surge.Object) {
	*c = (*c)[:0]
	s.chunkPool.Put(c)
}

// errPipeline marks a batch whose apply failed inside a detector pipeline
// (or panicked) rather than by request fault: the handler reports it as a
// 500, and the failed query serves its last good answer from then on.
var errPipeline = errors.New("server: pipeline failed")

// batchMode says who drives a batch. Only live ingest publishes answers
// and feeds the ingest histograms and clock; boot replay publishes once at
// its end (replayLog).
type batchMode uint8

const (
	ingestBatch batchMode = iota // live ingest
	replayBatch                  // boot replay, applied exactly (an Ingest-Seq record)
	quietBatch                   // boot replay through TopKDetector.Replay: no read
)

// decide runs the time policy over a chunk against the stream clock,
// changing nothing. An object is late when it is earlier than the clock or
// than an object before it. Under Strict a late object rejects the whole
// chunk; under Clamp decide counts them. It returns the clock after the chunk.
func (s *Server) decide(objs []surge.Object) (late int, clock float64, err error) {
	clock = s.clock
	for _, o := range objs {
		if o.Time >= clock {
			clock = o.Time
			continue
		}
		if s.cfg.TimePolicy != Clamp {
			return 0, 0, fmt.Errorf("server: out-of-order object at t=%v before t=%v (strict policy)", o.Time, clock)
		}
		late++
	}
	return late, clock, nil
}

// advance commits a decided chunk: it lifts the late objects to the clock
// in place and moves the clock to the one decide returned.
func (s *Server) advance(objs []surge.Object, late int, clock float64) {
	if late > 0 {
		c := s.clock
		for i := range objs {
			if objs[i].Time < c {
				objs[i].Time = c
			} else {
				c = objs[i].Time
			}
		}
		s.clamped.Add(uint64(late))
	}
	s.clock = clock
}

// resetClock sets the stream clock to the newest of the slots' engine
// clocks: at boot, before any replay, and after a restore swapped a slot in.
func (s *Server) resetClock() {
	for i, sl := range s.slots {
		if now := sl.det.Now(); i == 0 || now > s.clock {
			s.clock = now
		}
	}
}

// applyBatch runs on the event loop: feed the shared, decided batch into
// every window once, fan the window events out to every engine slot over
// the worker pool, wait at the barrier, then publish each tenant's view and
// its answer changes. The slots only read the events, so one parse and one
// window feed serve every query on that window. The counters count every
// mode.
//
// Failure isolation: a slot whose apply fails or panics keeps serving its
// last good state, with the error in its tenants' views; the other slots
// publish normally. The ingest ack fails only when no slot accepted the
// batch — with a single registered query this reproduces the
// single-detector server's semantics exactly.
func (s *Server) applyBatch(objs []surge.Object, mode batchMode) (res surge.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = surge.Result{}
			err = fmt.Errorf("%w: batch apply panicked: %v", errPipeline, r)
			s.log.Error("panic in batch apply recovered; batch rejected",
				"panic", r, "stack", string(debug.Stack()))
			s.noteBatch(time.Time{}, err)
		}
	}()
	var t0 time.Time
	if mode == ingestBatch {
		t0 = time.Now()
		s.mBatchObjs.Record(uint64(len(objs)))
	}
	quiet := mode == quietBatch
	for _, g := range s.groups {
		g.evs, g.err = g.slots[0].det.Feed(objs)
	}
	if len(s.slots) == 1 {
		// Single-slot registry: apply inline, no pool hop — the dominant
		// deployment stays on the legacy zero-overhead path.
		s.slots[0].apply(quiet)
	} else {
		for _, sl := range s.slots {
			sl := sl
			s.pool.Submit(sl.worker, func() { sl.apply(quiet) })
		}
		s.pool.Wait()
	}
	s.batches.Add(1)
	var firstErr error
	anyOK := false
	for _, sl := range s.slots {
		if sl.pendErr != nil {
			if firstErr == nil {
				firstErr = sl.pendErr
			}
		} else {
			anyOK = true
		}
	}
	if mode == ingestBatch {
		for _, t := range s.order {
			s.publish(t, t.slot.Load())
		}
	}
	if d := s.defTenant.slot.Load(); !d.pendPanicked {
		res = d.pendRes
	}
	if anyOK {
		s.objects.Add(uint64(len(objs)))
	} else {
		err = firstErr
	}
	s.noteBatch(t0, firstErr)
	return res, err
}

// publish runs on the event loop after a batch, a restore or boot replay:
// store the tenant's new view, then broadcast the answer changes it covers.
// Change detection is exact (bitwise on the score), so each query's
// notification stream matches an offline run bit-for-bit. The slot's top-k
// snapshot pointer is the top-k change signal (the slot rebuilds it only on
// a bitwise answer change); a content-equal snapshot from a different slot —
// a restore that reproduced the same answer — is adopted silently.
//
// The view goes out before its frames: a subscriber that joins the hub and
// then loads a view with Events = E is sent every frame above E, and drops
// the ones at or below E that the hello already covers (handleSubscribe).
//
// A failed chain serves its last good answer, so its tenants keep their
// last good view and gain the error; nothing calls into a panicked engine.
func (s *Server) publish(t *tenant, sl *engineSlot) {
	old := t.view.Load()
	if err := sl.pendErr; sl.pendPanicked || sl.det.Err() != nil {
		if err == nil {
			err = sl.det.Err() // the chain failed on the read that ends boot replay
		}
		if e := err.Error(); e != old.err {
			v := *old
			v.err = e
			t.view.Store(&v)
		}
		return
	}
	var fs [2]frame
	n := 0
	wire := old.state.Result
	if res := sl.pendRes; res != t.last {
		t.last = res
		wire = client.FromResult(res)
		t.seq++
		t.eid++
		t.notifs.Add(1)
		s.notifs.Add(1)
		fs[n] = frame{eid: t.eid, burst: client.Notification{Seq: t.seq, Result: wire}}
		n++
	}
	if snap := sl.tkSnap; snap != old.topk && !topkWireEqual(old.topk, snap) {
		t.tkSeq++
		t.eid++
		t.topkNotifs.Add(1)
		s.topkNotifs.Add(1)
		fs[n] = frame{eid: t.eid, topk: true, tk: client.TopKNotification{Seq: t.tkSeq, K: snap.K, Results: snap.Results}}
		n++
	}
	v := s.viewOf(t, sl, wire)
	t.view.Store(v)
	pub := time.Now()
	for i := range fs[:n] {
		f := &fs[i]
		f.burst.Time, f.tk.Time, f.pub = v.state.Now, v.state.Now, pub
		d := t.hub.broadcast(*f)
		t.dropped.Add(d)
		s.dropped.Add(d)
	}
}

// viewOf assembles a tenant's view from its slot's chain, with res as the
// rank-1 answer: the one place read state is built. It runs on the event
// loop, or at boot before the loop starts. Right after a push, Stats is the
// chain's cached sum (no pipeline barrier), so it is read every time.
func (s *Server) viewOf(t *tenant, sl *engineSlot, res client.Result) *view {
	now := sl.det.Now()
	if now == -math.MaxFloat64 {
		// The empty window's sentinel: no object is decided yet. The loop's
		// clock keeps it (negative times are valid); reads say 0.
		now = 0
	}
	st := sl.det.Stats()
	v := &view{
		state: client.State{
			Seq:    t.seq,
			Epoch:  s.epoch,
			Events: t.eid,
			Now:    now,
			Live:   sl.det.Live(),
			Shards: sl.det.Shards(),
			Result: res,
			Stats: client.EngineStats{
				Events:       st.Events,
				Searches:     st.Searches,
				SearchEvents: st.SearchEvents,
				SweepEntries: st.SweepEntries,
				CellsTouched: st.CellsTouched,
			},
		},
		topk: sl.tkSnap,
	}
	if sl.pendErr != nil {
		v.err = sl.pendErr.Error()
	}
	return v
}

// topkEqual compares two top-k answers bitwise (scores, regions, found).
func topkEqual(a, b []surge.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// topkWireEqual compares two wire top-k snapshots bitwise.
func topkWireEqual(a, b *client.TopK) bool {
	if a.K != b.K || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.Found != rb.Found || ra.Score != rb.Score {
			return false
		}
		if (ra.Region == nil) != (rb.Region == nil) {
			return false
		}
		if ra.Region != nil && *ra.Region != *rb.Region {
			return false
		}
	}
	return true
}

// Snapshot checkpoints the default query's detector (consistent: it runs
// on the event loop, between ingest batches).
func (s *Server) Snapshot() ([]byte, error) {
	return s.snapshotTenant(s.defTenant)
}

// snapshotTenant checkpoints one query's detector on the event loop.
func (s *Server) snapshotTenant(t *tenant) ([]byte, error) {
	var data []byte
	var err error
	if derr := s.do(func() {
		if t.dead {
			err = errUnknownQuery
			return
		}
		data, err = t.slot.Load().det.Checkpoint()
		s.snapshots.Add(1)
		t.snapshots.Add(1)
	}); derr != nil {
		return nil, derr
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Restore replaces the default query's engine state with the checkpointed
// state, restored into the query's configured shard count. See
// restoreTenant for the mechanics.
func (s *Server) Restore(data []byte) error {
	return s.restoreTenant(s.defTenant, data)
}

// restoreTenant replaces one query's engine state with a checkpoint. The
// replay — one pass of the live set into a fresh maintained top-k chain —
// happens off the event loop in a brand-new slot; only the binding swap
// synchronises with ingest. Other queries are untouched: if the restored
// query was sharing its slot, the swap unshares it (the old slot keeps
// serving its remaining tenants), and a failed restore leaves the old slot
// serving as before.
func (s *Server) restoreTenant(t *tenant, data []byte) error {
	sl, err := s.buildSlot(t.cfg, data, nil)
	if err != nil {
		return err
	}
	var durCkpt regCapture
	var durLSN, durGen uint64
	var durErr error
	var closeOld *engineSlot
	var now float64 // the restored state, read before ingest can move it
	var live int
	derr := s.do(func() {
		if t.dead {
			err = errUnknownQuery
			return
		}
		now, live = sl.det.Now(), sl.det.Live()
		old := t.slot.Load()
		sl.worker = old.worker
		t.slot.Store(sl)
		sl.refs.Add(1)
		if old.refs.Add(-1) == 0 {
			closeOld = old
		}
		s.rebuildSlots()
		// A single-query registry rewinds to the checkpoint's clock; a
		// checkpoint newer than the stream advances it for every query.
		s.resetClock()
		s.restores.Add(1)
		t.restores.Add(1)
		s.publish(t, sl)
		if s.wal != nil {
			// Capture the restored registry and the WAL position inside the
			// swap, so the durable checkpoint written below supersedes every
			// pre-restore WAL frame: a crash after a restore must never
			// replay the old stream over the restored state.
			durCkpt, durErr = s.captureRegistry()
			durLSN = s.wal.log.LastLSN()
			durGen = s.wal.ckptGen.Add(1)
		}
	})
	if derr != nil {
		// Only reachable when the server is shutting down concurrently; the
		// loop is gone, so there is no maintained state left to repair.
		sl.close()
		return derr
	}
	if err != nil {
		sl.close()
		return err
	}
	if closeOld != nil {
		closeOld.close()
	}
	if s.wal != nil {
		if durErr == nil {
			durErr = s.persistCheckpoint(durCkpt, durLSN, durGen)
		}
		if durErr != nil {
			s.ckptErrs.Add(1)
			return fmt.Errorf("server: restore applied but durable checkpoint failed (a crash before the next checkpoint replays the pre-restore log): %w", durErr)
		}
	}
	s.log.Info("restored from checkpoint", "query", t.id, "bytes", len(data),
		"shards", sl.det.Shards(), "now", now, "live", live)
	return nil
}

// handleBest serves one query's state from its view.
func (s *Server) handleBest(t *tenant, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, t.view.Load().state)
}

// handleTopK serves one query's top-k bursty regions from its view's
// snapshot — O(1) per request, off the loop. The greedy chain is
// prefix-stable (rank i never depends on ranks > i), so any k up to the
// maintained one is a prefix of the snapshot; a larger k is a 400 (register
// a query with a larger topk).
func (s *Server) handleTopK(t *tenant, w http.ResponseWriter, r *http.Request) {
	out := *t.view.Load().topk
	if qk := r.URL.Query().Get("k"); qk != "" {
		k, err := strconv.Atoi(qk)
		if err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: invalid k %q", qk), 0)
			return
		}
		if k > out.K {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("server: k=%d exceeds the maintained k=%d of query %q", k, out.K, t.id), 0)
			return
		}
		out.K, out.Results = k, out.Results[:k]
	}
	t.topkFast.Add(1)
	s.topkFast.Add(1)
	writeJSON(w, out)
}

func (s *Server) handleSnapshot(t *tenant, w http.ResponseWriter, r *http.Request) {
	data, err := s.snapshotTenant(t)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		if errors.Is(err, errUnknownQuery) {
			writeErrorCode(w, http.StatusNotFound, client.CodeUnknownQuery, 0, err, 0)
			return
		}
		writeError(w, status, err, 0)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (s *Server) handleRestore(t *tenant, w http.ResponseWriter, r *http.Request) {
	data, err := readBody(r, 1<<30)
	if err != nil {
		writeError(w, http.StatusBadRequest, err, 0)
		return
	}
	if err := s.restoreTenant(t, data); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		if errors.Is(err, errUnknownQuery) {
			writeErrorCode(w, http.StatusNotFound, client.CodeUnknownQuery, 0, err, 0)
			return
		}
		writeError(w, status, err, 0)
		return
	}
	writeJSON(w, t.view.Load().state)
}

// tenantList copies the registry order for a reader off the loop.
func (s *Server) tenantList() []*tenant {
	s.tenMu.RLock()
	defer s.tenMu.RUnlock()
	return slices.Clone(s.order)
}

// subscriberCount sums open subscriptions across every query's hub.
func (s *Server) subscriberCount() int {
	s.tenMu.RLock()
	defer s.tenMu.RUnlock()
	n := 0
	for _, t := range s.order {
		n += t.hub.count()
	}
	return n
}

// queryCount returns the number of registered queries.
func (s *Server) queryCount() int {
	s.tenMu.RLock()
	defer s.tenMu.RUnlock()
	return len(s.order)
}

// slotCount returns the number of distinct engine slots backing the
// registry. It dedupes through the tenants' atomic slot pointers rather
// than reading the loop-owned s.slots list, so it is safe off-loop.
func (s *Server) slotCount() int {
	s.tenMu.RLock()
	defer s.tenMu.RUnlock()
	seen := make(map[*engineSlot]bool, len(s.order))
	for _, t := range s.order {
		seen[t.slot.Load()] = true
	}
	return len(seen)
}

// handleHealthz reports the default query's view, the first query whose
// view carries an error, and whether the event loop runs an empty probe
// within the health timeout — the one loop round trip of any read.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	dv := s.defTenant.view.Load().state
	h := client.Health{
		Algorithm:   s.cfg.Algorithm.String(),
		Version:     buildVersion,
		GoVersion:   runtime.Version(),
		UptimeSec:   time.Since(s.start).Seconds(),
		Subscribers: s.subscriberCount(),
		Queries:     s.queryCount(),
		EngineSlots: s.slotCount(),
		Shards:      dv.Shards,
		Now:         dv.Now,
		Live:        dv.Live,
	}
	if s.wal != nil {
		h.Durable = true
		h.RecoveredBatches = s.wal.recBatches
		h.RecoverySec = s.wal.recSec
		h.WALTornBytes = s.wal.torn
		h.Durability = s.durabilityString()
		h.DegradedCount = s.degradedCount.Load()
		h.RepairedCount = s.repairedCount.Load()
		h.DegradedSec = s.degradedSec()
	}
	// Last-ingest age lets probes detect a stalled *stream* (no data
	// arriving) separately from a stalled process; -1 means "never".
	h.LastIngestAgeSec = -1
	if t := s.lastIngestNano.Load(); t != 0 {
		h.LastIngestAgeSec = time.Since(time.Unix(0, t)).Seconds()
	}
	// A recorded pipeline error on any query means that query (or its
	// maintained top-k chain) serves a stale answer it can no longer
	// refresh: report unhealthy so orchestrators recycle the instance
	// instead of trusting the frozen result. The other queries keep serving
	// in the meantime.
	for _, t := range s.tenantList() {
		if e := t.view.Load().err; e != "" {
			h.Err = fmt.Sprintf("query %q: %s", t.id, e)
			break
		}
	}
	if err := s.probeLoop(s.healthTimeout); err != nil {
		h.Err = err.Error()
	}
	h.OK = h.Err == ""
	if h.OK && s.degraded.Load() {
		// Durability lost: ingest is shed, so the instance is not healthy —
		// but the process keeps serving queries while the repair loop works.
		h.OK = false
		h.Err = "durability degraded: " + s.faultString()
	}
	if !h.OK {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(h)
		return
	}
	writeJSON(w, h)
}

// handleMetrics renders the Prometheus scrape. It never round-trips the
// event loop: every value comes from atomics, the queries' views or
// histogram snapshots, so the scrape stays up — and keeps reporting — when
// the loop is wedged, which is exactly when the numbers matter most. The
// unlabelled legacy gauges report the default query; per-query series carry
// a query label and are assembled at scrape time, so deleted queries leave
// no stale series behind.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	dv := s.defTenant.view.Load().state
	found := 0.0
	if dv.Result.Found {
		found = 1
	}
	writeMetric(w, "surge_objects_ingested_total", "counter", "Objects applied to the detectors.", float64(s.objects.Load()))
	writeMetric(w, "surge_objects_clamped_total", "counter", "Late objects lifted to the stream clock (clamp policy).", float64(s.clamped.Load()))
	writeMetric(w, "surge_ingest_batches_total", "counter", "Detector synchronisations on the ingest path.", float64(s.batches.Load()))
	writeMetric(w, "surge_ingest_errors_total", "counter", "Failed ingest requests.", float64(s.ingestErr.Load()))
	writeMetric(w, "surge_notifications_total", "counter", "Bursty-region change notifications published (all queries).", float64(s.notifs.Load()))
	writeMetric(w, "surge_notifications_dropped_total", "counter", "Notifications lost to slow subscribers (all queries).", float64(s.dropped.Load()))
	writeMetric(w, "surge_topk_fast_queries_total", "counter", "Top-k requests served from a maintained snapshot.", float64(s.topkFast.Load()))
	writeMetric(w, "surge_topk_notifications_total", "counter", "Top-k change notifications published (all queries).", float64(s.topkNotifs.Load()))
	writeMetric(w, "surge_topk_k", "gauge", "k of the default query's maintained top-k detector.", float64(s.cfg.TopK))
	writeMetric(w, "surge_snapshots_total", "counter", "Checkpoints taken.", float64(s.snapshots.Load()))
	writeMetric(w, "surge_restores_total", "counter", "Checkpoints restored.", float64(s.restores.Load()))
	writeMetric(w, "surge_subscribers", "gauge", "Open notification subscriptions (all queries).", float64(s.subscriberCount()))
	writeMetric(w, "surge_queries", "gauge", "Registered queries in the registry.", float64(s.queryCount()))
	writeMetric(w, "surge_shards", "gauge", "Engine shards processing the default query.", float64(dv.Shards))
	writeMetric(w, "surge_live_objects", "gauge", "Objects inside the default query's sliding windows.", float64(dv.Live))
	writeMetric(w, "surge_stream_time", "gauge", "The default query's stream clock: its newest decided timestamp (0 before the first).", dv.Now)
	writeMetric(w, "surge_best_found", "gauge", "Whether the default query currently has a bursty region.", found)
	writeMetric(w, "surge_best_score", "gauge", "Burst score of the default query's current bursty region.", dv.Result.Score)
	writeMetric(w, "surge_engine_events_total", "counter", "Window events processed by the default query's engines (halo replicas counted per shard).", float64(dv.Stats.Events))
	writeMetric(w, "surge_engine_searches_total", "counter", "Snapshot searches run by the default query's engines.", float64(dv.Stats.Searches))
	writeMetric(w, "surge_engine_search_events_total", "counter", "Events that triggered at least one search.", float64(dv.Stats.SearchEvents))
	writeMetric(w, "surge_engine_sweep_entries_total", "counter", "Sweep entries processed by the default query's engines.", float64(dv.Stats.SweepEntries))
	writeMetric(w, "surge_engine_cells_touched_total", "counter", "Grid cells touched by the default query's engines.", float64(dv.Stats.CellsTouched))
	writeMetric(w, "surge_ingest_throttled_total", "counter", "Ingest chunks shed with 429 by admission control.", float64(s.throttled.Load()))
	writeMetric(w, "surge_ingest_pending_chunks", "gauge", "Ingest chunks submitted and not yet applied.", float64(s.pendingChunks.Load()))
	s.writeQueryMetrics(w)
	if s.wal != nil {
		writeMetric(w, "surge_wal_last_sync_age_seconds", "gauge", "Seconds since the last completed WAL fsync.", s.wal.log.LastSyncAge())
		writeMetric(w, "surge_wal_checkpoints_total", "counter", "Durable checkpoints written.", float64(s.ckpts.Load()))
		writeMetric(w, "surge_wal_recovered_batches", "gauge", "WAL batches replayed at the last boot.", float64(s.wal.recBatches))
		writeMetric(w, "surge_wal_recovered_objects", "gauge", "Objects replayed from the WAL at the last boot.", float64(s.wal.recObjects))
		writeMetric(w, "surge_wal_recovery_seconds", "gauge", "Boot WAL replay duration.", s.wal.recSec)
		writeMetric(w, "surge_wal_torn_bytes", "gauge", "Bytes discarded by torn-tail truncation at the last boot.", float64(s.wal.torn))
		deg := 0.0
		if s.degraded.Load() {
			deg = 1
		}
		writeMetric(w, obs.MDegraded, "gauge", "Whether ingest is currently shed because durability is lost.", deg)
		writeMetric(w, obs.MDegradedTot, "counter", "Transitions into the degraded (durability lost) state.", float64(s.degradedCount.Load()))
		writeMetric(w, obs.MRepairedTot, "counter", "Successful repairs (degraded to recovered transitions).", float64(s.repairedCount.Load()))
		writeMetric(w, obs.MDegradedSec, "counter", "Cumulative seconds spent in the degraded state.", s.degradedSec())
		writeMetric(w, obs.MCkptErrors, "counter", "Failed durable checkpoint attempts.", float64(s.ckptErrs.Load()))
		writeMetric(w, "surge_ingest_shed_degraded_total", "counter", "Ingest chunks shed with 503 while durability was degraded.", float64(s.shedDegraded.Load()))
	}
	writeMetric(w, "surge_uptime_seconds", "gauge", "Seconds since the server started.", time.Since(s.start).Seconds())
	writeMetric(w, "surge_last_ingest_age_seconds", "gauge", "Seconds since the last applied batch (-1 before the first).", s.lastIngestAge())
	writeMetric(w, "surge_loop_tick_age_seconds", "gauge", "Seconds since the event loop last answered a lag probe (-1 before the first).", ageSec(s.lastTickNano.Load()))
	fmt.Fprintf(w, "# HELP surge_build_info Build metadata; the value is always 1.\n# TYPE surge_build_info gauge\nsurge_build_info{version=%q,go_version=%q,algorithm=%q,shards=%q} 1\n",
		buildVersion, runtime.Version(), s.cfg.Algorithm.String(), strconv.Itoa(dv.Shards))
	obs.Default.WritePrometheus(w)
	obs.ReadRuntime().WritePrometheus(w)
}

// writeQueryMetrics renders the per-query metric families, one labelled
// row per registered query. The rows are assembled at scrape time from the
// live registry, so a deleted query's series disappear with it.
func (s *Server) writeQueryMetrics(w http.ResponseWriter) {
	type family struct {
		name, kind, help string
		val              func(t *tenant, v *view) float64
	}
	families := []family{
		{"surge_query_notifications_total", "counter", "Bursty-region change notifications published per query.",
			func(t *tenant, _ *view) float64 { return float64(t.notifs.Load()) }},
		{"surge_query_notifications_dropped_total", "counter", "Notifications lost to this query's slow subscribers.",
			func(t *tenant, _ *view) float64 { return float64(t.dropped.Load()) }},
		{"surge_query_topk_notifications_total", "counter", "Top-k change notifications published per query.",
			func(t *tenant, _ *view) float64 { return float64(t.topkNotifs.Load()) }},
		{"surge_query_subscribers", "gauge", "Open notification subscriptions per query.",
			func(t *tenant, _ *view) float64 { return float64(t.hub.count()) }},
		{"surge_query_live_objects", "gauge", "Objects inside this query's sliding windows.",
			func(_ *tenant, v *view) float64 { return float64(v.state.Live) }},
		{"surge_query_stream_time", "gauge", "This query's stream clock (0 before the first object).",
			func(_ *tenant, v *view) float64 { return v.state.Now }},
		{"surge_query_best_score", "gauge", "Burst score of this query's current bursty region (0 when none).",
			func(_ *tenant, v *view) float64 { return v.state.Result.Score }},
	}
	tenants := s.tenantList()
	views := make([]*view, len(tenants))
	for i, t := range tenants {
		views[i] = t.view.Load()
	}
	rows := make([]obs.LabeledValue, 0, len(tenants))
	for _, fam := range families {
		rows = rows[:0]
		for i, t := range tenants {
			rows = append(rows, obs.LabeledValue{
				Labels: []string{"query", t.id},
				Value:  fam.val(t, views[i]),
			})
		}
		obs.WriteLabeled(w, fam.name, fam.kind, fam.help, rows)
	}
}

// lastIngestAge returns seconds since the last applied batch, -1 before
// any ingest.
func (s *Server) lastIngestAge() float64 {
	return ageSec(s.lastIngestNano.Load())
}

// ageSec converts a stored wall-clock nanosecond stamp to an age in
// seconds, -1 when the stamp was never set.
func ageSec(nano int64) float64 {
	if nano == 0 {
		return -1
	}
	return time.Since(time.Unix(0, nano)).Seconds()
}

func writeMetric(w http.ResponseWriter, name, kind, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error, accepted int) {
	writeErrorCode(w, status, "", 0, err, accepted)
}

// writeErrorCode is writeError with a machine-readable code and an
// optional Retry-After hint (seconds; also sent as the HTTP header so
// generic clients back off without parsing the body).
func writeErrorCode(w http.ResponseWriter, status int, code string, retryAfterSec int, err error, accepted int) {
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(client.Error{
		Err:           err.Error(),
		Code:          code,
		Accepted:      accepted,
		RetryAfterSec: float64(retryAfterSec),
	})
}
