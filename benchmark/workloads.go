package main

import (
	"fmt"
	"strconv"
	"time"

	"surge"
	"surge/client"
	"surge/internal/core"
	"surge/internal/stream"
)

// readerThink is the reader's pause between a reply and its next GET: a
// dashboard polling as fast as is polite. It keeps the reader near 500 GET/s
// — thousands of samples, a per cent or two of one server core — where no
// pause at all would make the reader a tenth of the server's load.
const readerThink = time.Millisecond

// walSync is approx-durable's fsync policy. The issue's first choice,
// "always", put the disk's fsync latency (0.5 ms typical, stalls of 100 ms to
// 1.6 s on this box) on every chunk: ten seeds gave ingest_objs_per_s from
// 63k to 96k and an ack p99 from 11 ms to 1.7 s. With a background fsync
// every 100 ms the log is still written on the event loop per chunk and
// replayed in recovery, and the numbers are the code's, not the disk's.
const walSync = "100ms"

// windowLen is |Wc| = |Wp| in stream seconds on every workload.
const windowLen = 300

// workload is one traffic mix. Everything that shapes the inputs or the
// child's flags lives here so the README, BENCHMARK.json and the code cannot
// disagree (workloads_test checks the names).
type workload struct {
	Name string
	Why  string

	dataset    func(seed uint64) stream.Dataset
	ratePerDay float64 // stream rate after Stretch
	algo       surge.Algorithm
	shards     int
	reqObjs    int // objects per ingest request
	batch      int // surged -batch: objects per event-loop chunk
	durable    bool
	queryMults []float64 // query-size multipliers of the extra named queries

	// satRate sizes the closed-loop phase (objects = satRate × its share of
	// -seconds) and pacedRate is the pinned open-loop rate, both in
	// objects/s. pacedRate is the nearest 5k to 45% of what the seed sustains
	// one request at a time with idle gaps between them (reqObjs over the
	// paced ack_p50_ms); the two exact workloads share one rate. See the
	// README for why that is not 45% of ingest_objs_per_s on this box.
	satRate   float64
	pacedRate float64
}

var workloads = []workload{
	{
		Name:       "exact-1shard",
		Why:        "The paper's exact engine as served: the KCCS chain does most of the work, server plane and WAL little; single-engine baseline of exact-2shard.",
		dataset:    stream.TaxiLike,
		ratePerDay: 15e6,
		algo:       surge.CellCSPOT,
		shards:     1,
		reqObjs:    512,
		batch:      512,
		satRate:    80000,
		pacedRate:  35000,
	},
	{
		Name:       "exact-2shard",
		Why:        "Byte-identical input to exact-1shard through internal/shard (route, halo, barrier, cross-shard chain): isolates what sharding buys and costs.",
		dataset:    stream.TaxiLike,
		ratePerDay: 15e6,
		algo:       surge.CellCSPOT,
		shards:     2,
		reqObjs:    512,
		batch:      512,
		satRate:    80000,
		pacedRate:  35000,
	},
	{
		Name:       "approx-durable",
		Why:        "Cheap GAPS engine, small state, four WAL frames per request: internal/wal and the server ingest plane dominate; recovery replays the log.",
		dataset:    stream.USLike,
		ratePerDay: 2e6,
		algo:       surge.GridApprox,
		shards:     1,
		reqObjs:    512,
		batch:      128,
		durable:    true,
		satRate:    100000,
		pacedRate:  55000,
	},
	{
		Name:       "multiquery-read",
		Why:        "Eight GAPS queries of different sizes on two pool workers, with readers beside the writer: tenancy fan-out dominates and read starvation shows.",
		dataset:    stream.UKLike,
		ratePerDay: 2e6,
		algo:       surge.GridApprox,
		shards:     1,
		reqObjs:    512,
		batch:      512,
		queryMults: []float64{2, 3, 4, 6, 8, 12, 16},
		satRate:    45000,
		pacedRate:  15000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options are the default query's detector options; the reference replay and
// the child's flags are both derived from them.
func (w workload) options(d stream.Dataset) surge.Options {
	return surge.Options{
		Width:  d.QueryWidth(),
		Height: d.QueryHeight(),
		Window: windowLen,
		Alpha:  0.5,
		Shards: w.shards,
	}
}

// queries are the extra named queries of the registry (-queries file).
func (w workload) queries(d stream.Dataset) []client.QueryConfig {
	qs := make([]client.QueryConfig, len(w.queryMults))
	for i, m := range w.queryMults {
		qs[i] = client.QueryConfig{
			ID:     "q" + strconv.FormatFloat(m, 'f', -1, 64),
			Width:  d.QueryWidth() * m,
			Height: d.QueryHeight() * m,
		}
	}
	return qs
}

// queryOptions are the detector options the server resolves for a named
// query: the default's, with the query's own size, on a single engine.
func (w workload) queryOptions(d stream.Dataset, q client.QueryConfig) surge.Options {
	o := w.options(d)
	o.Width, o.Height, o.Shards = q.Width, q.Height, 1
	return o
}

// serveArgs are the `surged serve` flags apart from -addr, -data-dir,
// -queries and -restore, which depend on the run's scratch directory.
func (w workload) serveArgs(d stream.Dataset) []string {
	o := w.options(d)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		"-algo", w.algo.String(),
		"-width", f(o.Width), "-height", f(o.Height),
		"-window", f(o.Window), "-alpha", f(o.Alpha),
		"-shards", strconv.Itoa(w.shards),
		"-batch", strconv.Itoa(w.batch),
		"-topk", strconv.Itoa(topK),
	}
}

// topK is the k of the maintained chain on every workload.
const topK = 5

// plan is the sized input of one run: the generated stream cut into
// fixed-size requests, and which requests belong to which phase.
type plan struct {
	w       workload
	ds      stream.Dataset
	objs    []surge.Object
	times   []float64 // objs[i].Time, for the event.time -> request mapping
	bodies  [][]byte  // pre-encoded NDJSON, one per request
	fillEnd int       // requests [0, fillEnd) fill the two windows
	satEnd  int       // requests [fillEnd, satEnd) are the closed-loop phase
	// requests [satEnd, len(bodies)) are the paced phase(s)
}

// phaseSizes turns a duration budget into request counts. The fill is the
// first two windows of the stream; sat and paced are sized from the pinned
// nominal rates so the work in a run is a constant of (workload, seconds),
// not of how fast this build happens to be.
func (w workload) phaseSizes(satSeconds, pacedSeconds float64) (fill, sat, paced int) {
	ceilReq := func(objs float64) int { return int(objs/float64(w.reqObjs)) + 1 }
	fill = ceilReq(w.ratePerDay / 86400 * 2 * windowLen)
	sat = ceilReq(w.satRate * satSeconds)
	paced = ceilReq(w.pacedRate * pacedSeconds)
	return
}

func toSurge(objs []core.Object) []surge.Object {
	out := make([]surge.Object, len(objs))
	for i, o := range objs {
		out[i] = surge.Object{X: o.X, Y: o.Y, Weight: o.Weight, Time: o.T}
	}
	return out
}
