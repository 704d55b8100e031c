// Package client is the typed Go client for a surged serve instance (the
// internal/server HTTP host), and the canonical definition of its JSON wire
// schema — the server marshals these exact types, so a client and a server
// built from the same module always agree on the format.
//
// Wire format summary (all bodies JSON unless noted):
//
//	POST /v1/ingest     NDJSON lines {"time","x","y","weight"} (or CSV
//	                    "time,x,y,weight" with Content-Type text/csv)
//	                    -> IngestResult
//	GET  /v1/best       -> State (current bursty region + stream clock)
//	GET  /v1/topk?k=N   -> TopK (greedy top-k over the live windows),
//	                    served O(1) as a prefix of the continuously
//	                    maintained answer; k above the maintained k is
//	                    a 400
//	GET  /v1/subscribe  -> text/event-stream: one "hello" event (State),
//	                    then a "burst" event (Notification) per bursty-
//	                    region change and a "topk" event (TopKNotification)
//	                    per top-k change; reconnect with Last-Event-ID to
//	                    resume instead of restarting from hello
//	POST /v1/snapshot   -> application/octet-stream detector checkpoint
//	POST /v1/restore    <- application/octet-stream checkpoint -> State
//	GET  /v1/stats      -> StatsSnapshot (latency histograms, pipeline
//	                    telemetry and runtime health; served lock-free,
//	                    so it answers even when the event loop is wedged)
//	GET  /healthz       -> Health
//	GET  /metrics       -> Prometheus text format
//
// Multi-query tenancy routes the same surface by query id. One server hosts
// a registry of named queries over one shared ingest stream; the paths above
// address the registry's "default" query, and every query answers under
// /v1/queries/{id}/...:
//
//	GET    /v1/queries             -> QueryList (the registry)
//	POST   /v1/queries             <- QueryConfig -> QueryInfo (create)
//	GET    /v1/queries/{id}        -> QueryInfo
//	DELETE /v1/queries/{id}        -> 204 (subscribers disconnect)
//	GET    /v1/queries/{id}/best | /topk | /subscribe | /stats
//	POST   /v1/queries/{id}/snapshot | /restore
//
// A path addressing a query id the registry does not hold answers 404 with
// code "unknown_query" (ErrUnknownQuery).
//
// JSON float64 fields use Go's shortest round-trip encoding, so scores and
// coordinates survive the wire bit-for-bit.
package client

import (
	"errors"

	"surge"
)

// Object is one stream element on the wire: an NDJSON ingest line. A
// missing weight defaults to 1 on the server.
type Object struct {
	Time   float64 `json:"time"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight"`
}

// Region is an axis-aligned rectangle on the wire.
type Region struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// Result is a detection answer on the wire. Region is nil when Found is
// false.
type Result struct {
	Found  bool    `json:"found"`
	Score  float64 `json:"score,omitempty"`
	Region *Region `json:"region,omitempty"`
}

// EngineStats mirrors surge.Stats on the wire. On a sharded detector an
// event replicated into a halo is counted by each shard that received it,
// so Events can exceed the number of window transitions.
type EngineStats struct {
	Events       uint64 `json:"events"`
	Searches     uint64 `json:"searches"`
	SearchEvents uint64 `json:"search_events"`
	SweepEntries uint64 `json:"sweep_entries"`
	CellsTouched uint64 `json:"cells_touched"`
}

// State is one query's published view: the answer of /v1/best, the payload
// of the SSE "hello" event, and the reply to /v1/restore. The server
// publishes a fresh one after every applied batch, before acknowledging the
// batch, so a read that follows an ingest ack reflects it; reads never wait
// on ingest. A hello with Events = E reflects every event up to E, and the
// stream continues at exactly E+1.
type State struct {
	Seq    uint64      `json:"seq"`             // sequence number of the latest bursty-region change
	Epoch  uint64      `json:"epoch,omitempty"` // server stream epoch; SSE ids are "epoch.eid" (0 from pre-epoch servers)
	Events uint64      `json:"events"`          // SSE events published (burst + topk); the hello's event id
	Now    float64     `json:"now"`             // stream clock; 0 until the first object is decided
	Live   int         `json:"live"`
	Shards int         `json:"shards"`
	Result Result      `json:"result"`
	Stats  EngineStats `json:"stats"`
}

// Notification is one SSE "burst" event: the bursty region changed.
// Dropped counts the SSE events (of any kind) this subscriber lost to the
// slow-consumer policy — or to reconnect-ring eviction — since the
// previously delivered event.
type Notification struct {
	Seq     uint64  `json:"seq"`
	Time    float64 `json:"time"` // stream clock at the change
	Result  Result  `json:"result"`
	Dropped uint64  `json:"dropped,omitempty"`

	// EventID is the SSE event id this notification arrived with, filled
	// in by the client (it is stream metadata, not part of the JSON body).
	// Pass the EventID of the last notification you processed to
	// SubscribeFrom to resume after a disconnect.
	EventID uint64 `json:"-"`
}

// TopKNotification is one SSE "topk" event: the maintained top-k answer
// changed (any rank's score or region). Results is the complete refreshed
// answer in rank order, so each event is a self-contained snapshot — a
// consumer that loses events (see Dropped) is current again after the next
// one.
type TopKNotification struct {
	Seq     uint64   `json:"seq"`
	Time    float64  `json:"time"` // stream clock at the change
	K       int      `json:"k"`
	Results []Result `json:"results"`
	Dropped uint64   `json:"dropped,omitempty"`

	// EventID is the SSE event id this notification arrived with, filled
	// in by the client; see Notification.EventID.
	EventID uint64 `json:"-"`
}

// IngestResult is the reply to /v1/ingest.
type IngestResult struct {
	Accepted int    `json:"accepted"` // objects applied to the detector
	Clamped  int    `json:"clamped"`  // late objects lifted to the stream clock
	Result   Result `json:"result"`   // answer after the last batch
}

// TopK is the reply to /v1/topk: a prefix of the query's continuously
// maintained answer. Continuous is always true.
type TopK struct {
	K          int      `json:"k"`
	Algorithm  string   `json:"algorithm"`
	Continuous bool     `json:"continuous,omitempty"`
	Results    []Result `json:"results"` // rank order; Found=false slots trail
}

// Health is the reply to /healthz. Err carries the detector's recorded
// pipeline error when OK is false because the detector can no longer
// refresh its answer (the reply then comes with a 503) — or the probe
// error when the event loop failed to answer within the health timeout.
type Health struct {
	OK          bool    `json:"ok"`
	Algorithm   string  `json:"algorithm"`
	Version     string  `json:"version"`    // module build version ("dev" for source builds)
	GoVersion   string  `json:"go_version"` // Go toolchain that built the server
	Shards      int     `json:"shards"`
	Now         float64 `json:"now"` // the default query's stream clock; 0 until the first object
	Live        int     `json:"live"`
	Subscribers int     `json:"subscribers"`
	// Queries is the number of registered queries (at least 1: the default).
	Queries int `json:"queries,omitempty"`
	// EngineSlots is the number of distinct engines backing those queries;
	// identically-configured queries share a slot, so this can be smaller
	// than Queries.
	EngineSlots int     `json:"engine_slots,omitempty"`
	UptimeSec   float64 `json:"uptime_sec"`
	// LastIngestAgeSec is the seconds since the last applied ingest batch,
	// -1 before the first: probes distinguish a stalled stream (no data
	// arriving) from a stalled process.
	LastIngestAgeSec float64 `json:"last_ingest_age_sec"`
	Err              string  `json:"err,omitempty"`

	// Durable reports whether the server runs with a write-ahead log
	// (-data-dir); the recovery fields below describe its last boot.
	Durable bool `json:"durable,omitempty"`
	// RecoveredBatches is the number of WAL batches replayed at boot on top
	// of the newest checkpoint.
	RecoveredBatches uint64 `json:"recovered_batches,omitempty"`
	// RecoverySec is how long the boot replay took.
	RecoverySec float64 `json:"recovery_sec,omitempty"`
	// WALTornBytes is the byte count discarded by torn-tail truncation at
	// the last boot (0 after a clean shutdown).
	WALTornBytes int64 `json:"wal_torn_bytes,omitempty"`
	// Durability is the degradation state machine's position on a durable
	// server: "ok" (no fault since boot), "degraded" (a WAL append/fsync
	// failed; ingest is shed with 503 while queries keep serving, and OK is
	// false), or "recovered" (a repair restored durability; OK is true).
	Durability string `json:"durability,omitempty"`
	// DegradedCount and RepairedCount count the ok->degraded and
	// degraded->recovered transitions since boot.
	DegradedCount uint64 `json:"degraded_count,omitempty"`
	RepairedCount uint64 `json:"repaired_count,omitempty"`
	// DegradedSec is the cumulative wall-clock time spent degraded,
	// including the current spell.
	DegradedSec float64 `json:"degraded_sec,omitempty"`
}

// HistogramStats summarises one latency or value histogram in /v1/stats.
// Duration histograms report seconds; value histograms (batch sizes,
// buffer occupancy, shard counts) report raw counts. Quantiles are bucket
// midpoints of a log-scale histogram (<= 12.5% relative error), clamped to
// the exact observed Max.
type HistogramStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// RuntimeStats is the Go runtime health block of /v1/stats, sampled from
// runtime/metrics at request time.
type RuntimeStats struct {
	Goroutines         int64   `json:"goroutines"`
	HeapBytes          uint64  `json:"heap_bytes"`
	GCCycles           uint64  `json:"gc_cycles"`
	GCPauseP50Sec      float64 `json:"gc_pause_p50_sec"`
	GCPauseP99Sec      float64 `json:"gc_pause_p99_sec"`
	GCPauseMaxSec      float64 `json:"gc_pause_max_sec"`
	SchedLatencyP50Sec float64 `json:"sched_latency_p50_sec"`
	SchedLatencyP99Sec float64 `json:"sched_latency_p99_sec"`
}

// StatsSnapshot is the reply to /v1/stats: a typed, point-in-time view of
// the pipeline's telemetry — the same numbers /metrics renders for
// Prometheus, shaped for programmatic consumers. It is assembled entirely
// from lock-free counters, the queries' published views and histogram
// snapshots, so the endpoint answers even when the event loop is wedged
// (the views are then the last state the loop published).
type StatsSnapshot struct {
	UptimeSec        float64 `json:"uptime_sec"`
	LastIngestAgeSec float64 `json:"last_ingest_age_sec"` // -1 before the first ingest
	LoopTickAgeSec   float64 `json:"loop_tick_age_sec"`   // -1 before the first lag probe
	Now              float64 `json:"now"`                 // the default query's stream clock; 0 until the first object
	Live             int     `json:"live"`
	Shards           int     `json:"shards"`

	Objects       uint64 `json:"objects"`
	Clamped       uint64 `json:"clamped"` // late objects lifted to the stream clock
	Batches       uint64 `json:"batches"`
	IngestErrors  uint64 `json:"ingest_errors"`
	Notifications uint64 `json:"notifications"`
	Dropped       uint64 `json:"dropped"`
	TopKCommits   uint64 `json:"topk_commits"`
	Subscribers   int    `json:"subscribers"`

	// Ingest path (seconds unless noted).
	IngestAck     HistogramStats `json:"ingest_ack"`
	IngestParse   HistogramStats `json:"ingest_parse"`
	IngestBatch   HistogramStats `json:"ingest_batch_objects"` // objects per batch
	LoopQueueWait HistogramStats `json:"loop_queue_wait"`
	LoopApply     HistogramStats `json:"loop_apply"`
	LoopLag       HistogramStats `json:"loop_lag"`
	SSEDelivery   HistogramStats `json:"sse_delivery"`
	SSEBuffer     HistogramStats `json:"sse_buffer_occupancy"` // frames buffered per subscriber
	ShardFlush    HistogramStats `json:"shard_flush_events"`   // events per shipped shard batch
	TopKResolve   HistogramStats `json:"topk_resolve"`
	TopKSolveWait HistogramStats `json:"topk_solve_wait"`
	TopKShards    HistogramStats `json:"topk_resolved_shards"` // shard solves per resolve

	// Throttled counts ingest chunks shed with 429 by admission control.
	Throttled uint64 `json:"throttled,omitempty"`

	// WAL is the durability block, nil on servers without -data-dir.
	WAL *WALStats `json:"wal,omitempty"`

	// Queries holds one telemetry row per registered query, in registry
	// order (a single-query server reports just its default query).
	Queries []QueryStats `json:"queries,omitempty"`

	Runtime RuntimeStats `json:"runtime"`
}

// WALStats is the durability block of /v1/stats on a server running with a
// write-ahead log.
type WALStats struct {
	SyncPolicy     string  `json:"sync_policy"` // always | interval | off
	Frames         uint64  `json:"frames"`      // frames appended since boot
	AppendedBytes  uint64  `json:"appended_bytes"`
	Segments       int     `json:"segments"`   // segment files on disk
	SizeBytes      int64   `json:"size_bytes"` // total segment bytes on disk
	LastSyncAgeSec float64 `json:"last_sync_age_sec"`
	Checkpoints    uint64  `json:"checkpoints"` // durable checkpoints written

	Append HistogramStats `json:"append"` // frame write (+ fsync under always)
	Fsync  HistogramStats `json:"fsync"`

	// Boot recovery summary (mirrors the /healthz fields).
	RecoveredBatches uint64  `json:"recovered_batches"`
	RecoveredObjects uint64  `json:"recovered_objects"`
	RecoverySec      float64 `json:"recovery_sec"`
	TornBytes        int64   `json:"torn_bytes"`

	// Degradation state machine (mirrors the /healthz fields).
	Durability       string  `json:"durability,omitempty"` // ok | degraded | recovered
	DegradedCount    uint64  `json:"degraded_count,omitempty"`
	RepairedCount    uint64  `json:"repaired_count,omitempty"`
	DegradedSec      float64 `json:"degraded_sec,omitempty"`
	CheckpointErrors uint64  `json:"checkpoint_errors,omitempty"`
	ShedDegraded     uint64  `json:"shed_degraded,omitempty"` // chunks shed with 503 while degraded
}

// QueryConfig declares one named query of a multi-tenant server: the wire
// form of POST /v1/queries bodies, surged's -queries file entries, and the
// config half of QueryInfo. Zero geometry fields inherit the server's
// default query options, so a sweep over one knob only has to state that
// knob.
type QueryConfig struct {
	// ID names the query in the registry and in /v1/queries/{id}/ paths:
	// 1-64 characters from [a-zA-Z0-9._-]. "default" is the query the
	// legacy single-query paths address.
	ID string `json:"id"`
	// Algorithm is the engine name as surged's -algo flag spells it (CCS,
	// B-CCS, Base, GAPS, MGAPS — the algorithms whose answer is rank 1 of a
	// maintained top-k chain); "" inherits the server's.
	Algorithm string `json:"algorithm,omitempty"`
	// Width/Height/Window/PastWindow/Alpha are the query options; zero
	// values inherit the server defaults (PastWindow additionally defaults
	// to Window, as in the library).
	Width      float64 `json:"width,omitempty"`
	Height     float64 `json:"height,omitempty"`
	Window     float64 `json:"window,omitempty"`
	PastWindow float64 `json:"past_window,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	// TopK is the maintained top-k's k, the largest k /topk answers (0
	// inherits the server's).
	TopK int `json:"topk,omitempty"`
	// Shards is the engine shard count for this query. 0 or 1 hosts a
	// single engine on the server's shared tenant workers — the layout that
	// scales to many queries; >= 2 gives this query its own shard pipeline.
	Shards         int `json:"shards,omitempty"`
	ShardBlockCols int `json:"shard_block_cols,omitempty"`
}

// QueryInfo describes one registry entry: its configuration (with inherited
// defaults resolved) plus a light liveness summary.
type QueryInfo struct {
	QueryConfig
	// Default reports whether this is the query the legacy single-query
	// paths address.
	Default bool `json:"default,omitempty"`
	// Continuous reports that a maintained top-k chain serves this query;
	// always true.
	Continuous bool `json:"continuous"`
	// Shared reports whether this query's engine state is shared with other
	// registry entries of identical configuration (boot-time dedup; the
	// answers are identical either way).
	Shared      bool    `json:"shared,omitempty"`
	Now         float64 `json:"now"` // stream clock; 0 until the first object
	Live        int     `json:"live"`
	Subscribers int     `json:"subscribers"`
	Result      Result  `json:"result"`
}

// QueryList is the reply to GET /v1/queries, in registry (creation) order.
type QueryList struct {
	Queries []QueryInfo `json:"queries"`
}

// QueryStats is one query's telemetry block: the reply to
// /v1/queries/{id}/stats and the per-query rows of /v1/stats. Like the
// server-wide snapshot it is assembled lock-free from counters and the
// query's published view.
type QueryStats struct {
	ID         string  `json:"id"`
	Algorithm  string  `json:"algorithm"`
	TopK       int     `json:"topk"`
	Continuous bool    `json:"continuous"`
	Shards     int     `json:"shards"`
	Now        float64 `json:"now"` // stream clock; 0 until the first object
	Live       int     `json:"live"`
	Result     Result  `json:"result"`

	Notifications     uint64 `json:"notifications"`
	TopKNotifications uint64 `json:"topk_notifications"`
	// Dropped counts SSE frames this query's slow subscribers lost. The
	// accounting is exact and per-query ("delivered + dropped = published"
	// holds per subscriber), so one query's backlog never shows up in
	// another's numbers.
	Dropped     uint64 `json:"dropped"`
	Subscribers int    `json:"subscribers"`
	TopKFast    uint64 `json:"topk_fast"`
	Snapshots   uint64 `json:"snapshots"`
	Restores    uint64 `json:"restores"`
	// Err is this query's recorded pipeline error; the other queries keep
	// serving when one engine fails.
	Err string `json:"err,omitempty"`
}

// Error codes carried by Error.Code for failures a client is expected to
// branch on (everything else is prose in Error.Err).
const (
	// CodeOverloaded: the server shed the request (429) because its ingest
	// admission watermark was crossed; retry after Error.RetryAfterSec.
	CodeOverloaded = "overloaded"
	// CodeSeqOutOfOrder: the request's Ingest-Seq is lower than the newest
	// sequence the server has seen from that source — a stale retry the
	// client must not repeat.
	CodeSeqOutOfOrder = "seq_out_of_order"
	// CodeSeqConflict: another request with the same Ingest-Seq source is
	// in flight; serialise retries per source.
	CodeSeqConflict = "seq_conflict"
	// CodeDurabilityDegraded: the server shed the ingest (503) because its
	// write-ahead log cannot accept the batch; a background repair loop is
	// working, so retry after Error.RetryAfterSec (WithRetry does).
	CodeDurabilityDegraded = "durability_degraded"
	// CodeUnknownQuery: the request addressed a query id the registry does
	// not hold (404) — never created, or deleted. Retrying cannot help
	// (WithRetry gives up immediately); recreate the query or fix the id.
	CodeUnknownQuery = "unknown_query"
	// CodeQuotaExceeded: the request was rejected (429) because the
	// addressed query is at a configured per-query quota (e.g. its
	// subscriber cap). Retrying only helps once capacity frees up.
	CodeQuotaExceeded = "quota_exceeded"
)

// Sentinel errors matched by errors.Is against a decoded *Error.
var (
	ErrOverloaded    = errors.New("client: server overloaded")
	ErrSeqOutOfOrder = errors.New("client: ingest sequence out of order")
	ErrSeqConflict   = errors.New("client: ingest sequence in flight elsewhere")
	ErrDegraded      = errors.New("client: server durability degraded")
	ErrUnknownQuery  = errors.New("client: unknown query id")
	ErrQuotaExceeded = errors.New("client: query quota exceeded")
)

// Error is the JSON body of a non-2xx reply.
type Error struct {
	Err      string `json:"error"`
	Code     string `json:"code,omitempty"`     // machine-readable cause (Code* constants)
	Accepted int    `json:"accepted,omitempty"` // objects applied before the failure
	// RetryAfterSec mirrors the Retry-After header of a 429 reply (0 when
	// absent), so callers get the backoff hint without reaching into the
	// HTTP response.
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`

	// Status is the HTTP status code the error arrived with, filled in by
	// the client (transport metadata, not part of the JSON body).
	Status int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Err }

// Is maps error codes to the package's sentinel errors, so callers can
// write errors.Is(err, client.ErrSeqOutOfOrder) without unwrapping.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Code == CodeOverloaded
	case ErrSeqOutOfOrder:
		return e.Code == CodeSeqOutOfOrder
	case ErrSeqConflict:
		return e.Code == CodeSeqConflict
	case ErrDegraded:
		return e.Code == CodeDurabilityDegraded
	case ErrUnknownQuery:
		return e.Code == CodeUnknownQuery
	case ErrQuotaExceeded:
		return e.Code == CodeQuotaExceeded
	}
	return false
}

// FromObject converts a surge.Object to its wire form.
func FromObject(o surge.Object) Object {
	return Object{Time: o.Time, X: o.X, Y: o.Y, Weight: o.Weight}
}

// ToObject converts a wire object to a surge.Object.
func (o Object) ToObject() surge.Object {
	return surge.Object{Time: o.Time, X: o.X, Y: o.Y, Weight: o.Weight}
}

// FromResult converts a surge.Result to its wire form.
func FromResult(r surge.Result) Result {
	if !r.Found {
		return Result{}
	}
	return Result{
		Found: true,
		Score: r.Score,
		Region: &Region{
			MinX: r.Region.MinX, MinY: r.Region.MinY,
			MaxX: r.Region.MaxX, MaxY: r.Region.MaxY,
		},
	}
}

// ToResult converts a wire result back to a surge.Result.
func (r Result) ToResult() surge.Result {
	if !r.Found || r.Region == nil {
		return surge.Result{}
	}
	return surge.Result{
		Found: true,
		Score: r.Score,
		Region: surge.Region{
			MinX: r.Region.MinX, MinY: r.Region.MinY,
			MaxX: r.Region.MaxX, MaxY: r.Region.MaxY,
		},
	}
}
