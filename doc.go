// Package surge continuously detects bursty regions over a stream of
// weighted spatial objects, implementing the SURGE problem and the full
// algorithm suite of
//
//	Feng, Guo, Cong, Bhowmick, Ma.
//	"SURGE: Continuous Detection of Bursty Regions Over a Stream of
//	Spatial Objects." ICDE 2018.
//
// # Problem
//
// A spatial object is a weighted point with a creation time. Given a query
// rectangle size W x H and two consecutive sliding windows — the current
// window Wc and the past window Wp — the burst score of a region r is
//
//	S(r) = alpha*max(f(r,Wc) - f(r,Wp), 0) + (1-alpha)*f(r,Wc)
//
// where f(r, W) is the total weight of the objects inside r created during W,
// normalised by the window length. SURGE continuously reports the position of
// the W x H region with the maximum burst score; the top-k variant reports k
// regions such that every object contributes to at most one of them.
//
// # Detectors
//
// Seven interchangeable detectors are provided, selected by Algorithm:
//
//	CellCSPOT   exact; grid cells + upper bounds + lazy sweep (the paper's CCS)
//	StaticBound exact; static upper bound only (ablation, the paper's B-CCS)
//	Baseline    exact; re-search affected cells per event (the paper's Base)
//	AG2         exact; adapted continuous-MaxRS baseline (the paper's aG2)
//	GridApprox  approximate; query-aligned grid of candidate cells (GAP-SURGE)
//	MultiGrid   approximate; best of four shifted grids (MGAP-SURGE)
//	Oracle      exact; from-scratch sweep per query (reference implementation)
//
// The approximate detectors process an object in O(log n) and guarantee a
// burst score of at least (1-alpha)/4 of the optimum; in practice they reach
// 73-94% (paper Tables III-IV; `go run ./cmd/surgebench` regenerates them).
//
// # Usage
//
//	det, err := surge.New(surge.CellCSPOT, surge.Options{
//	    Width: 0.01, Height: 0.01, // query rectangle size
//	    Window: 3600,              // 1h sliding windows
//	    Alpha:  0.5,
//	})
//	...
//	for obj := range stream {
//	    res, err := det.Push(surge.Object{X: obj.Lon, Y: obj.Lat, Weight: 1, Time: obj.T})
//	    if res.Found {
//	        fmt.Println("bursty region:", res.Region, "score:", res.Score)
//	    }
//	}
//
// Times are float64 values in any consistent unit; objects must be pushed in
// non-decreasing time order. Use NewTopK for the top-k detectors.
//
// # Sharded concurrent pipeline
//
// With Options.Shards >= 2 the detector runs as a sharded pipeline: the
// plane is partitioned into query-width column blocks striped round-robin
// over the shards, and each shard runs its own detection engine on a
// dedicated goroutine fed by a buffered event channel. A shard owns the
// candidate bursty points whose column floor(x/Width) falls in its blocks; a
// merger takes the maximum score over the shards, ties broken
// deterministically by the lowest shard index.
//
// The partitioning preserves exactness through the halo invariant: a region
// anchored at a point in column m spans only columns m-1 and m, so the
// router replicates every window event to the owners of the columns its
// coverage rectangle touches — a halo exactly one query width wide to the
// left of each owned block. The owning shard of any candidate therefore
// scores it over complete data, while the engines' ownership filter
// (core.ColumnSet) keeps a shard from ever reporting a candidate it only has
// halo data for. As a result the sharded detector returns the same best
// scores as the single-engine path, bit for bit, for every algorithm except
// AG2 (which has no sharded variant and falls back to one engine).
//
// Push on a sharded detector synchronises the pipeline on every call; the
// batch API amortises that:
//
//	det, _ := surge.New(surge.CellCSPOT, surge.Options{
//	    Width: 0.01, Height: 0.01, Window: 3600, Alpha: 0.5,
//	    Shards: 8,
//	})
//	defer det.Close()
//	for batch := range batches { // e.g. 512 objects at a time
//	    res, err := det.PushBatch(batch)
//	    ...
//	}
//
// PushBatch is also worthwhile on the single-engine path: window transitions
// are applied one by one, but the lazy engines defer their snapshot searches
// to a single query at the end of the batch.
//
// The top-k detector shards the same way (NewTopK with Options.Shards; its
// shard workers run the chain's engines only): every shard maintains the greedy chain's candidate state —
// bounds, candidates and visibility levels per problem — for its owned
// columns plus the halo, and each query runs the chain globally. Rank by
// rank, the coordinator collects every shard's best owned candidate for the
// current problem, selects the global winner (ties broken canonically:
// score, then region coordinates), and commits it back so the objects it
// covers are masked out of the higher-ranked problems; only the shards whose
// blocks the winner's coverage rectangle can reach apply the mask and
// re-solve the next problem — a shard outside that set provably holds no
// affected object, so its cached answer stands and block-boundary regions
// resolve exactly as in the single-engine chain. The merged answer is
// bitwise the single-engine answer for kCCS (and the naive oracle), and the
// same regions with canonical fold scores for kGAPS/kMGAPS — up to exact
// equal-score ties, the same caveat as the single-region pipeline: the
// coordinator breaks ties canonically (score, then region coordinates)
// while an engine's internal search resolves them in heap order, so
// streams with bitwise-tied candidates (e.g. unit weights) can mask a
// different tied region than a single engine would. Cross-count
// restore works like the single-region path: checkpoints record the shape,
// RestoreTopK honours it and RestoreTopKSharded overrides it.
//
// # Performance
//
// The steady-state ingest path is allocation-free from the HTTP body to the
// engines, and regression-guarded: testing.AllocsPerRun tests assert zero
// amortised allocations per Push for the CCS and GAPS engines and for the
// server's NDJSON line decoder (run by the ordinary test suite, i.e. by
// `make check`). The pooling contract behind that:
//
//   - The engines recycle their per-cell storage: a cell emptied by expiry
//     is reset and reused for the next cell born anywhere on the grid, so
//     cell churn under a moving stream costs no heap traffic. Recycled
//     state is byte-identical to a fresh cell's, so reuse cannot perturb
//     the bit-identical score guarantees.
//   - The continuous top-k maintenance path is allocation-free per event in
//     the steady state too, guarded by an AllocsPerRun test on the
//     single-engine path (the cross-shard chain additionally allocates a
//     few small op headers per merge round, amortised over the batch).
//     Three structural optimisations keep its per-event
//     cost near a single-region engine's despite the k chained problems:
//     cells share one bound/candidate slot until a level change actually
//     splits them (almost every cell, since levels only change around the
//     current top-k regions); heap positions are stored in the cells
//     instead of hash maps; and heap-key refreshes are deferred to a dirty
//     queue flushed once per query instead of per visibility operation.
//   - The exact top-k engine keeps one 72-byte record per live object in a
//     ring (position, weight, level, and the cells holding it), and its
//     cells hold 4-byte references into the ring instead of copies, so
//     Grown and Expired events go straight to the object's cells without a
//     map probe. A cell is a FIFO like the window queues: expiry removes its
//     oldest reference by advancing a head index, the flush before each
//     query compacts the expired prefix in place, and the per-problem state
//     of the few split cells lives behind a pointer. On exact-1shard's
//     stream the engine retains about 120 bytes of references and records
//     per live object, against about 300 when each cell copied the object
//     (BenchmarkMaintain in internal/topk reports it as B/live-obj).
//   - The CCS engine, the grid approximations and the top-k engines share
//     one packed cell layout: cells are addressed by a single uint64 key
//     (grid.Cell.Pack, two sign-extended int32 coordinates) instead of a
//     two-field struct key, and each cell records its own heap position, so
//     the hot per-event sequence — map lookup, bound update, heap sift —
//     runs on machine words with no composite-key hashing and no position
//     map. The cell index is the only hash map an event touches.
//   - The window engine's two FIFO queues are the live set: every live
//     object sits in exactly one of them (still in Wc, or already in Wp), in
//     arrival order. Checkpoint walks the queues (window.Source.Each), so
//     the detectors keep no index of their own beside the windows and a
//     checkpoint needs no sort. A restore refills them and builds the kCCS
//     chain in one pass, ≈2 µs per live object (BenchmarkRestoreTopK).
//   - The shard router recycles its event batches through a sync.Pool —
//     shard workers hand slices back after applying them — and sizes each
//     flush by the receiving shard's backlog: small batches while a shard's
//     channel is empty (low detection latency), doubling up to the maximum
//     as the channel fills (fewer synchronisations exactly when they are
//     most contended). Batch sizing never changes which events a shard sees
//     or their order, so it cannot change an answer. `surged -batch auto`
//     picks the PushBatch chunking (1 single-engine, 512 sharded).
//   - The server decodes NDJSON/CSV ingest bodies with a zero-copy field
//     scanner over the request buffer (exotic lines fall back to
//     encoding/json, so accepted inputs are unchanged) and recycles the
//     per-request chunk buffers.
//
// The served system is measured by one harness: `go run ./benchmark` builds
// surged, runs it as a subprocess and drives four fixed workloads over
// loopback, checking every answer bitwise against an in-process replay
// (benchmark/README.md describes the run shape and every metric;
// `make bench` runs ten seeds and compares them with
// benchmark/baseline/seed.json, CI runs `make bench-smoke` on every PR).
// The committed baseline medians on a 2-vCPU VM: exact-1shard (CCS, ~104k
// live objects) saturates at 72.2k obj/s for 13.7 µs of server CPU per
// object with an 8.4 ms ack p50 and 256 MiB RSS; exact-2shard, fed the same
// bytes, 84.7k obj/s, 14.3 µs, 6.9 ms; approx-durable (GAPS with a WAL
// fsynced every 100 ms) 177.9k obj/s, 5.4 µs, 4.2 ms, 35 MiB;
// multiquery-read (eight GAPS queries on two workers) 50.1k obj/s, 30.5 µs,
// 13.7 ms. benchmark/baseline/seed-trace.json splits each of them into 52
// per-layer metrics. surgebench stays the harness for the paper's own
// tables and figures.
// For profiling a live instance, `surged serve -pprof` mounts
// net/http/pprof under /debug/pprof/ (off by default).
//
// # Serving
//
// surged serve hosts a detector as a long-running HTTP service
// (internal/server), turning continuous detection from a polled library
// call into a pushed notification stream. The endpoints:
//
//	POST /v1/ingest     NDJSON {"time","x","y","weight"} or CSV
//	                    "time,x,y,weight" object batches
//	GET  /v1/best       current bursty region, stream clock, engine stats:
//	                    rank 1 of the query's maintained top-k chain
//	GET  /v1/topk?k=N   greedy top-k over the live windows, answered O(1)
//	                    as a prefix of the continuously maintained answer;
//	                    N above the maintained k (surged -topk) is a 400
//	GET  /v1/subscribe  Server-Sent Events: a "hello" event with the
//	                    current state, then one "burst" event per bursty-
//	                    region change and one "topk" event per top-k
//	                    change; Last-Event-ID resumes after a disconnect
//	POST /v1/snapshot   detector checkpoint (restorable by Restore)
//	POST /v1/restore    replace the server's state from a checkpoint
//	GET  /v1/stats      typed JSON telemetry snapshot (client.StatsSnapshot):
//	                    latency histograms for every pipeline stage,
//	                    counters, Go runtime health and one row per query
//	GET  /v1/queries    query registry: list, POST to create, DELETE
//	                    /v1/queries/{id} to retire (see Multi-tenancy)
//	.../v1/queries/{id}/best|topk|subscribe|stats|snapshot|restore
//	                    the per-query serving surface; the bare /v1/*
//	                    paths above alias query "default"
//	GET  /healthz       health summary with build info and last-ingest age
//	GET  /metrics       Prometheus text exposition
//
// The wire schema is defined (and consumed) by the typed surge/client
// package; see examples/server for an end-to-end tour. Lifecycle events —
// startup, checkpoint, restore, shutdown, degraded-mode transitions — are
// structured slog records; surged -log-format selects text or json on
// stderr (library embedders wire server.Config.Logger).
//
// Served algorithms: CCS, B-CCS, Base, GAPS and MGAPS — the ones whose
// score is bitwise that of rank 1 of a maintained chain (kCCS for the exact
// family, kGAPS and kMGAPS for the grid approximations). aG2 and Oracle have no such
// chain; surged serve -algo, server.New and POST /v1/queries reject them, and
// they remain library (surge.New) and surgebench baselines.
//
// Consistency guarantees: the detector is owned by a single-writer event
// loop — handlers parse request bodies concurrently and the loop applies
// them in batches, each PushBatch's two halves: one Feed of the window,
// then every chain's Consume (queries registered at boot with equal
// windows share one window; a created or restored query has its own, see
// Multi-tenancy) — so concurrent ingesters serialise into one
// global stream order and the SSE notification stream equals the answer
// changes of a single-process run of that order, bit for bit in the
// scores. The server keeps one stream clock for all of its queries and
// decides every ingest chunk against it once, before the chunk is logged:
// an object earlier than its predecessor or than the clock makes the
// "strict" policy reject the whole chunk (which then leaves the clock
// where it was), and the "clamp" policy lifts it to the clock. Every query
// sees the stream as the server decided it: a query created mid-stream, or
// restored from a checkpoint older than the stream, is held to the
// server's clock, not a clock of its own, and a restore from a newer
// checkpoint advances the clock for every query (restoring a single-query
// server sets the clock to the checkpoint's).
//
// Reads serve the last batch's view. After every applied batch, before the
// batch is acknowledged, the loop publishes one immutable view per query —
// its state (sequence, event count, clock, live objects, shards, rank-1
// answer, engine counters), its top-k snapshot and its error — and
// /v1/best, /v1/topk, the SSE hello, the /v1/restore reply, the stats and
// registry rows, the /metrics gauges and /healthz each read it with one
// atomic load. So a read never queues behind ingest, a read that follows
// an ack reflects that batch, and every surface reports the same state; of
// the reads, only /healthz's liveness probe and snapshots wait on the loop.
// A hello with events=E reflects every event up to E and the stream
// continues at exactly E+1. The clock reads 0 until the first object is
// decided. A query whose engine failed keeps serving its last good view,
// with the error. A subscriber that falls
// behind its buffer loses
// oldest-first notifications, with the loss counted on the next delivered
// notification — never silently; a subscriber that reconnects with the
// standard Last-Event-ID header is backfilled from a bounded ring of
// recent events (surged -notify-ring) with the same exact loss accounting
// instead of being restarted from the hello state. Event ids carry the
// server's stream epoch — a random per-process identifier announced in the
// hello frame and rendered into every SSE id as "epoch.eid" — so a cursor
// from before a process restart is never confused with a position on the
// new process's stream: a resume whose epoch matches is honoured exactly,
// while a foreign-epoch cursor (the server restarted, e.g. from a
// checkpoint) degrades to a fresh subscription whose hello resynchronises
// the client (client.Subscription.Cursor / SubscribeFromCursor / Resynced
// round-trip this without the caller parsing ids). On SIGTERM the server
// checkpoints before the listener drains, and a later "surged serve
// -restore" resumes the stream, into any shard count (RestoreTopKSharded).
//
// # Multi-tenancy
//
// One server hosts a registry of named queries over one shared spatial
// stream: ingest parsing, admission control, ordering and the WAL append
// happen once per chunk, and the event loop fans the decoded batch out to
// every query's engine. The per-object ingest cost is therefore paid per
// stream, not per query. Queries registered at boot whose windows are
// equal (Window, PastWindow, CountWindows) share one sliding window: the
// loop pushes each batch into it once and every query's chain consumes the
// same read-only window events (surge.NewTopKOn, TopKDetector.Feed and
// Consume), so they keep one live set between them instead of one each. A
// query created at runtime or restored from a checkpoint has a window of
// its own. The multiquery-read workload of `go run ./benchmark` measures
// the fan-out with eight queries of different sizes on one window.
//
// Lifecycle: queries exist from boot (server.Config.Queries, surged serve
// -queries file.json) or are created and deleted at runtime through the
// /v1/queries CRUD surface (client.CreateQuery / Client.Query /
// Query.Delete). Query "default" is the server's own configuration, always
// exists, cannot be deleted, and serves every bare /v1/* path, so a
// single-query deployment never notices the registry. Each query owns a
// detector configuration (algorithm, cell size, window, top-k, shard
// count), its own SSE hub with the full cursor/epoch/drop accounting of
// the single-query server, its own snapshot/restore endpoints (checkpoints
// move between queries and between servers), and its own telemetry row
// (client.QueryStats in /v1/stats, per-query labelled families in
// /metrics). A request for an unregistered id fails with 404/"unknown_query"
// — typed client.ErrUnknownQuery, never retried by WithRetry.
//
// Engine sharing: boot-registry queries whose resolved configurations are
// identical are backed by ONE engine slot (QueryInfo.Shared), so thousands
// of dashboards watching the same query cost one detector. Sharing is an
// internal deduplication, not a visible state: every shared query — of a
// slot or of a window — answers, and checkpoints, exactly as if it ran its
// own engine on its own window, and a restore into one of them first splits
// it onto a private slot with a private window. Deleting a query leaves the
// others on its window fed. Runtime-created queries always get a private
// engine and window — they join at the current stream position with empty
// windows, which can never equal an engine that has already seen data.
// Engines ride the existing shard workers (each slot is pinned to a
// worker), so tenancy scales with cores rather than goroutines-per-query.
//
// Isolation and equivalence: a slow subscriber, an engine error or a
// panicking pipeline in one query charges only that query's drop counters
// and error surface; other tenants' answers, notifications and stats are
// unperturbed, and ingest keeps acking as long as any engine accepts the
// batch (per-query errors surface in that query's stats row). N
// identically-configured queries on one server answer bit-for-bit the same
// as N independent single-query servers fed the same stream — across
// shard counts, checkpoint/restore and kill -9 crash recovery (the
// multi-query crash harness pins this). Per-query subscriber quotas
// (Config.QueryMaxSubscribers, surged -query-max-subs) bound the SSE cost
// a single tenant can impose; past the quota a subscribe fails with
// 429/"quota_exceeded" (typed client.ErrQuotaExceeded) instead of
// degrading the query's existing subscribers.
//
// Durability is tenant-aware with zero extra WAL traffic: log frames stay
// per-chunk (one append covers every query), while checkpoints carry the
// full registry — each query's configuration plus its engine state, with
// shared slots stored once. Recovery rebuilds the registry and replays
// the WAL tail into every engine, restoring runtime-created queries and
// keeping deleted ones dead across crashes. A pre-registry ("SURGEDC1")
// checkpoint file is no longer read: boot fails naming the remedy (boot the
// previous release on the directory once; it rewrites the file).
//
// # Durability
//
// surged serve -data-dir makes the server durable: every acknowledged
// ingest chunk is appended to a write-ahead log in the directory before
// its 200 goes out, on the same single-writer loop that applies it, so log
// order equals apply order. Frames are length-prefixed and CRC32C-checked
// in fixed-size segments; each frame records the chunk's objects as they
// arrived, before the clamp lifts them (a chunk the strict policy rejects
// is never logged), and replay decides every frame again against a stream
// clock that starts at the restored one, so it lifts the same objects and
// recovers bit-identical state. Boot loads the newest checkpoint
// (surge.ckpt, written atomically: temp file, fsync, rename, directory
// fsync), replays the log tail past
// its LSN, and truncates at the first torn record — a partially written
// tail from a crash mid-append, counted in /healthz as wal_torn_bytes.
//
// Replay is one event-loop operation. Unsequenced records go through
// TopKDetector.Replay, which holds new objects back from the chain until
// the next read; Ingest-Seq records are applied exactly, because the
// dedupe table stores their acks. Recovery therefore pays window time for
// the whole log and chain time only for the objects still live at its end
// (or at a sequenced record), which an empty kCCS chain takes in one pass
// (core.TopKLoader), as a restore does. Three things follow. The recovered
// answers are those of a checkpoint restore of the same live set: bitwise
// the scores of an event-by-event build, the same regions except among
// exactly equal scores. Replay publishes one notification per query, at its
// end (SSE ids restart under a new epoch at every boot anyway). The engine
// counters of /v1/stats (events, cells touched, searches) count the chains'
// real work, so they read lower after a recovery or a restore (one event
// per loaded object, one cell touch per entry). Replay is not ingest either:
// it reports itself only through surge_wal_recovery_*, and
// last_ingest_age_sec stays -1 until a client ingests.
//
// A background checkpoint (surged
// -checkpoint-every) persists the detector state plus the ingest dedupe
// table and deletes the log segments it covers, bounding both recovery
// time and disk growth; graceful shutdown writes a final checkpoint so the
// next boot replays nothing.
//
// What a crash can lose depends only on the kind of crash. A process kill
// (kill -9, OOM) loses nothing acknowledged under any setting: the frame
// is in the page cache before the ack. A machine crash is governed by
// surged -wal-sync: "always" fsyncs before every ack (lose nothing),
// an interval like "100ms" fsyncs in the background (lose at most one
// interval of acks), "off" never fsyncs (lose up to the page cache). The
// approx-durable workload of `go run ./benchmark` runs the interval policy
// and times the recovery that replays its log.
//
// Retries are made safe by sequenced ingest: a client that tags POST
// /v1/ingest with an Ingest-Seq: source:seq header (client.IngestSeq) gets
// effectively-once semantics per source. Sequence numbers must increase by
// one; a duplicate of a completed sequence re-sends the original ack
// without re-applying anything, a retry of a half-applied request resumes
// at the first unapplied chunk (chunking is deterministic), a lower
// sequence is rejected 409 seq_out_of_order, and two concurrent requests
// for the same source conflict with 409 seq_conflict. The dedupe table
// rides the WAL and the checkpoints, so the contract holds across crash
// recovery — the fault-injection suite kills a serving process mid-request
// and asserts the retried ack and the final answers are bitwise equal to
// an uninterrupted run. client.WithRetry turns the contract into a
// drop-in retry loop: transport errors, 5xx and 429 responses are retried
// with jittered exponential backoff, honouring Retry-After, and only
// requests that are safe to repeat (idempotent reads, sequenced ingest)
// are ever retried.
//
// Under sustained overload the server sheds ingest instead of queueing
// without bound: once surged -max-pending chunks are waiting on the event
// loop, further chunks are rejected with 429, a Retry-After hint and the
// typed code "overloaded" (client.ErrOverloaded), counted as
// surge_ingest_throttled_total. The WAL's own telemetry —
// append/fsync latency histograms, segment count and size, recovery
// figures — is surfaced on /metrics as surge_wal_* and on /v1/stats as
// client.WALStats.
//
// # Failure modes and graceful degradation
//
// A durable server survives disk faults and pipeline panics without
// dropping the service. When a WAL append or fsync fails, the log poisons
// itself (nothing further is acknowledged against the dead segment), the
// server enters the degraded state, and a repair loop retries with
// jittered backoff: rotate the log to a fresh segment, write a fresh
// checkpoint to re-establish the durable floor, then resume. While
// degraded, ingest is shed with 503, the typed code "durability_degraded"
// (client.ErrDegraded) and a Retry-After hint — client.WithRetry rides
// through the window — while queries, subscriptions and stats keep serving
// from the last good state. The failure modes, what an operator observes,
// and what to do:
//
//	fault                    observed behaviour              health state         operator action
//	-----                    ------------------              ------------         ---------------
//	disk full (ENOSPC)       ingest 503 durability_degraded; wal.durability      free disk space; the repair
//	                         failed append never acked;      "degraded",          loop resumes service by
//	                         queries keep serving            healthz 503          itself, no restart needed
//	I/O error (EIO)          same shed-and-repair cycle;     wal.durability       check the device; if the
//	                         surge_wal_faults_total and      "degraded" then      fault persists the server
//	                         surge_wal_repairs_total count   "recovered"          stays degraded and retries
//	                         the cycle                                            with backoff forever
//	torn WAL tail            boot truncates at the first     healthz OK,          none: the torn frame was
//	(crash mid-append)       corrupt frame and replays the   wal_torn_bytes > 0   never acknowledged; retry
//	                         intact prefix                                        the uncertain batch
//	checkpoint write fails   checkpointing retried with      healthz OK (appends  free disk/fix perms; WAL
//	                         backoff; counted as             are still durable —  replay at next boot is
//	                         surge_checkpoint_errors_total   not a degradation)   longer until one lands
//	pipeline panic           ingest 500, the panic and its   healthz 503 with     capture the logged stack,
//	(engine bug)             stack logged once; queries      the panic text       restart; a durable server
//	                         serve the last good snapshot;                        recovers acknowledged
//	                         Close/Query never deadlock                           state from the log
//
// The degradation counters ride /healthz and /v1/stats (durability state,
// degraded/repaired transition counts, seconds spent degraded) and
// /metrics (surge_durability_degraded, surge_degraded_transitions_total,
// surge_repairs_total, surge_degraded_seconds_total), so an alert can key
// on surge_durability_degraded == 1 outlasting the repair backoff.
//
// # Continuous top-k serving
//
// A served query is one standalone maintained top-k chain (NewTopK, or
// RestoreTopKSharded in a single replay of a checkpoint), and the chain is
// the query's only engine. It is refreshed after every applied batch and published as an immutable
// snapshot that GET /v1/topk serves with one atomic load — O(1) per query
// regardless of stream size, with no garbage and no loop round-trip. On a
// sharded server the chain's engines run on the shard workers — per-event
// maintenance is distributed exactly like detection (each (event, cell)
// pair is processed by exactly one shard, so sharding adds no duplicated
// maintenance work), off the event-loop thread, and the per-batch refresh
// is the cross-shard merge, which re-solves only the shards around the
// committed ranks. Any k up to the maintained one (surged -topk, default 5;
// per query, QueryConfig.TopK) is served as a prefix of the snapshot, the
// greedy chain being prefix-stable; a larger k is rejected with a 400 that
// names the maintained k.
//
// Rank 1 of the greedy chain over the unconstrained plane solves the
// single-region problem (the first problem of the chain is the
// single-region problem), so /v1/best and the "burst" SSE stream are served
// from the maintained snapshot's rank 1 and no single-region engine runs.
// The chain-served score is bitwise the score the single-region engine of
// the same algorithm reports. Among regions of exactly equal score the
// chain may pick another one than that engine: selections across cells and
// shards follow one canonical order (core.CompareTopK: score, then region
// coordinates), but the candidate a cell keeps under an exact tie depends
// on when the cell was searched, and the two engines search on different
// schedules (ROADMAP item 14b).
//
// The kCCS engine keeps its per-cell state canonical — arrival-ordered
// object storage, candidate scores maintained as arrival-order folds,
// levels a pure function of the live content — so the continuously
// maintained answer is bitwise identical (scores) to replaying a
// checkpoint of the same windows (surge.RestoreTopK over POST /v1/snapshot
// bytes), which the randomized equivalence tests pin down for kCCS, kGAPS
// and kMGAPS (the grid engines report canonical folds too). Top-k rank
// changes are pushed to subscribers as "topk" SSE events. A chain whose
// shard pipeline fails keeps serving its last good answer and records the
// failure (TopKDetector.Err); /healthz then reports it with a 503 so
// orchestrators recycle the instance.
//
// # Observability
//
// Every pipeline stage is instrumented with lock-free, fixed-bucket
// log-scale histograms (internal/obs): recording is atomics only — zero
// heap allocations per observation — so the telemetry lives inside the
// zero-allocation ingest hot path without breaking its contract; it is
// always on, so every number `go run ./benchmark` reports (among them
// server.ingest_allocs_per_obj of the traced run) is measured with it.
// Values below 8 are exact and every octave above splits into 8
// sub-buckets, bounding relative quantile error at 12.5%.
//
// The numbers surface three ways: GET /metrics renders Prometheus text
// (histograms as summaries with p50/p90/p99/p999, _sum and _count), GET
// /v1/stats returns the same data as a typed JSON snapshot
// (client.StatsSnapshot, fetched by client.Stats), and both are served
// entirely from atomics, the queries' published views and histogram
// snapshots — no event-loop round-trip, so the scrape keeps answering
// (with the loop's last published state) when the loop is wedged, which is
// exactly when the numbers matter. The engine counters (surge_engine_*) are
// read into the view after every batch, so a scrape agrees with /v1/best.
// /healthz reads the views too; its one loop round trip is an empty probe,
// bounded by a timeout, that reports a stalled loop as a 503 instead of
// hanging.
//
// Latency and value histograms (summaries):
//
//	surge_ingest_ack_seconds         ingest chunk submit -> applied & acked
//	surge_ingest_parse_seconds       ingest body parse time (total - ack waits)
//	surge_ingest_batch_objects       objects per applied batch
//	surge_loop_queue_wait_seconds    event-loop queue wait: submit -> start
//	surge_loop_apply_seconds         batch apply duration on the loop
//	surge_loop_lag_seconds           self-timed loop lag probe (500ms cadence)
//	surge_sse_delivery_seconds       SSE publish -> written to subscriber
//	surge_sse_buffer_occupancy       per-subscriber buffer depth at broadcast
//	surge_shard_flush_events         events per shipped shard batch
//	surge_topk_resolve_seconds       cross-shard top-k resolve (slow path)
//	surge_topk_solve_wait_seconds    time blocked on shard solve replies
//	surge_topk_resolved_shards       shard solve ops per resolve
//
// Counters and gauges beyond the pre-existing serving set
// (surge_objects_ingested_total, surge_shards, surge_best_score, ...):
//
//	surge_shard_events_total{shard}  per-shard events shipped (counter)
//	surge_shard_channel_depth{shard} per-shard channel depth (gauge)
//	surge_topk_commits_total         top-k rank commits shipped (counter)
//	surge_last_ingest_age_seconds    seconds since the last applied batch (-1 = never)
//	surge_loop_tick_age_seconds      seconds since the loop answered a probe (-1 = never)
//	surge_build_info{version,go_version,algorithm,shards} constant 1
//	surge_runtime_goroutines         live goroutines (gauge)
//	surge_runtime_heap_bytes         live heap bytes (gauge)
//	surge_runtime_gc_cycles_total    completed GC cycles (counter)
//	surge_runtime_gc_pause_seconds   GC pause distribution (summary)
//	surge_runtime_sched_latency_seconds goroutine scheduling latency (summary)
package surge
