package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"surge"
	"surge/client"
	"surge/internal/cellcspot"
	"surge/internal/core"
	"surge/internal/gapsurge"
	"surge/internal/server"
	"surge/internal/shard"
	"surge/internal/topk"
	"surge/internal/wal"
	"surge/internal/window"
)

// layerRun is the in-process differential replay: the same batch sequence —
// the fill, untimed, then the first objects after it — is pushed through
// each layer's public entry point in turn. Batch i's spans share Req i
// across layers, so a layer's self time is its span minus the spans of the
// layers below it (spanParents).
type layerRun struct {
	w    workload
	p    *plan
	cfg  core.Config
	tr   *tracer
	dir  string // scratch for WAL and durable-server data
	fill []surge.Object
	meas []surge.Object // the measured objects, cut into w.batch chunks
	// Window events per chunk of fill and meas, produced by the window pass
	// and replayed into every engine pass.
	fillEvents [][]core.Event
	measEvents [][]core.Event
	nEvents    int

	sum map[string]time.Duration // total span time by span name
	out map[string]float64       // metric values
}

// spanParents says which span encloses which when the served stack runs
// the same batch: the differential replay measures them in separate passes
// and link() wires the recorded spans up afterwards.
var spanParents = map[string]string{
	"surge.pushbatch":       "server.ingest",
	"wal.append":            "server.ingest",
	"window.push":           "surge.pushbatch",
	"topk.process":          "surge.pushbatch",
	"topk.bestk":            "surge.pushbatch",
	"gapsurge.gaps_process": "surge.pushbatch",
	"gapsurge.bestk":        "surge.pushbatch",
	"shard.route":           "surge.pushbatch",
	"shard.chain_query":     "surge.pushbatch",
}

// link fills in Parent for the layer spans: the span of the enclosing layer
// with the same batch index.
func (t *tracer) link() {
	type key struct {
		name string
		req  int
	}
	idx := map[key]int{}
	for i, s := range t.spans {
		idx[key{s.Name, s.Req}] = i
	}
	for i, s := range t.spans {
		if parent := spanParents[s.Name]; parent != "" {
			if j, ok := idx[key{parent, s.Req}]; ok {
				t.spans[i].Parent = j
			}
		}
	}
}

// timed runs fn as span name of batch req.
func (l *layerRun) timed(name string, req int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	l.tr.add(name, t0, t1, -1, req)
	d := t1.Sub(t0)
	l.sum[name] += d
	return d
}

func (l *layerRun) chunks(objs []surge.Object) [][]surge.Object {
	var out [][]surge.Object
	for lo := 0; lo < len(objs); lo += l.w.batch {
		out = append(out, objs[lo:min(lo+l.w.batch, len(objs))])
	}
	return out
}

func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// servedEngine names the spans of the engine family the workload's server
// runs under surge.PushBatch.
func (l *layerRun) servedEngine() []string {
	switch {
	case l.w.shards > 1:
		return []string{"shard.route", "shard.chain_query"}
	case l.w.algo == surge.CellCSPOT:
		return []string{"topk.process", "topk.bestk"}
	default:
		return []string{"gapsurge.gaps_process", "gapsurge.bestk"}
	}
}

// runLayers measures every layer on the workload's own stream. handlerNS is
// filled with the median in-process handler time of one ingest request,
// which the subprocess spans are compared with.
func runLayers(w workload, p *plan, nMeas int, tr *tracer, dir string) (map[string]float64, map[string]float64, float64, error) {
	opt := w.options(p.ds)
	fillN := p.fillEnd * w.reqObjs
	l := &layerRun{
		w: w, p: p, tr: tr, dir: dir,
		cfg:  core.Config{Width: opt.Width, Height: opt.Height, WC: opt.Window, WP: opt.Window, Alpha: opt.Alpha},
		fill: p.objs[:fillN],
		meas: p.objs[fillN : fillN+nMeas],
		sum:  map[string]time.Duration{},
		out:  map[string]float64{},
	}
	handlerNS := 0.0
	steps := []func() error{
		l.streamAndClient, l.window, l.topk, l.cellcspot, l.gapsurge, l.shard, l.pool,
		l.surge, l.wal, func() (err error) { handlerNS, err = l.server(); return },
	}
	for _, step := range steps {
		// Each pass leaves its engines behind as garbage; collect it now so
		// the next pass is not timed while paying for it.
		runtime.GC()
		if err := step(); err != nil {
			return nil, nil, 0, err
		}
	}
	tr.link()
	return l.out, l.shares(), handlerNS, nil
}

func (l *layerRun) streamAndClient() error {
	n := len(l.fill) + len(l.meas)
	t0 := time.Now()
	objs := l.p.ds.Generate(n)
	l.out["stream.generate_ns_per_obj"] = nsPer(time.Since(t0), n)
	if len(objs) != n {
		return fmt.Errorf("stream generated %d of %d objects", len(objs), n)
	}
	t0 = time.Now()
	if err := client.EncodeNDJSON(io.Discard, l.meas); err != nil {
		return err
	}
	l.out["client.encode_ns_per_obj"] = nsPer(time.Since(t0), len(l.meas))
	return nil
}

// window turns the objects into events with a collecting emit, once, and
// keeps the events for the engine passes.
func (l *layerRun) window() error {
	win, err := window.New(l.cfg.WC, l.cfg.WP)
	if err != nil {
		return err
	}
	var cur []core.Event
	emit := func(ev core.Event) { cur = append(cur, ev) }
	push := func(chunk []surge.Object) error {
		for _, o := range chunk {
			if _, err := win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, emit); err != nil {
				return err
			}
		}
		return nil
	}
	for _, chunk := range l.chunks(l.fill) {
		cur = nil
		if err := push(chunk); err != nil {
			return err
		}
		l.fillEvents = append(l.fillEvents, cur)
	}
	for i, chunk := range l.chunks(l.meas) {
		cur = make([]core.Event, 0, 3*len(chunk))
		var perr error
		l.timed("window.push", i, func() { perr = push(chunk) })
		if perr != nil {
			return perr
		}
		l.measEvents = append(l.measEvents, cur)
		l.nEvents += len(cur)
	}
	l.out["window.push_ns_per_obj"] = nsPer(l.sum["window.push"], len(l.meas))
	l.out["window.events_per_obj"] = float64(l.nEvents) / float64(len(l.meas))
	return nil
}

// engine is what the single-region and top-k engines have in common.
type engine interface {
	Process(core.Event)
	Stats() core.Stats
}

// enginePass primes eng with the fill's events, then times Process over
// each measured chunk's events and query once per chunk. It returns the
// engine's counters over the measured part.
func (l *layerRun) enginePass(eng engine, processSpan, querySpan string, query func()) core.Stats {
	for _, evs := range l.fillEvents {
		for _, ev := range evs {
			eng.Process(ev)
		}
		query()
	}
	before := eng.Stats()
	for i, evs := range l.measEvents {
		l.timed(processSpan, i, func() {
			for _, ev := range evs {
				eng.Process(ev)
			}
		})
		if querySpan != "" {
			l.timed(querySpan, i, query)
		} else {
			query()
		}
	}
	after := eng.Stats()
	return core.Stats{
		Events:       after.Events - before.Events,
		SearchEvents: after.SearchEvents - before.SearchEvents,
		SweepEntries: after.SweepEntries - before.SweepEntries,
	}
}

func (l *layerRun) topk() error {
	eng, err := topk.NewKCCS(l.cfg, topK)
	if err != nil {
		return err
	}
	st := l.enginePass(eng, "topk.process", "topk.bestk", func() { eng.BestK() })
	l.out["topk.process_ns_per_event"] = nsPer(l.sum["topk.process"], l.nEvents)
	l.out["topk.bestk_ns_per_call"] = nsPer(l.sum["topk.bestk"], len(l.measEvents))
	l.out["topk.search_ratio"] = st.SearchRatio()
	l.out["topk.sweep_entries_per_event"] = float64(st.SweepEntries) / float64(st.Events)
	return nil
}

func (l *layerRun) cellcspot() error {
	eng, err := cellcspot.New(l.cfg, cellcspot.ModeCCS)
	if err != nil {
		return err
	}
	st := l.enginePass(eng, "cellcspot.process", "cellcspot.best", func() { eng.Best() })
	l.out["cellcspot.process_ns_per_event"] = nsPer(l.sum["cellcspot.process"], l.nEvents)
	l.out["cellcspot.best_ns_per_call"] = nsPer(l.sum["cellcspot.best"], len(l.measEvents))
	l.out["cellcspot.search_ratio"] = st.SearchRatio()
	return nil
}

func (l *layerRun) gapsurge() error {
	gaps, err := gapsurge.NewTopK(l.cfg, false, topK)
	if err != nil {
		return err
	}
	l.enginePass(gaps, "gapsurge.gaps_process", "gapsurge.bestk", func() { gaps.BestK() })
	mgaps, err := gapsurge.NewTopK(l.cfg, true, topK)
	if err != nil {
		return err
	}
	l.enginePass(mgaps, "gapsurge.mgaps_process", "", func() { mgaps.BestK() })
	l.out["gapsurge.gaps_process_ns_per_event"] = nsPer(l.sum["gapsurge.gaps_process"], l.nEvents)
	l.out["gapsurge.mgaps_process_ns_per_event"] = nsPer(l.sum["gapsurge.mgaps_process"], l.nEvents)
	l.out["gapsurge.bestk_ns_per_call"] = nsPer(l.sum["gapsurge.bestk"], len(l.measEvents))
	return nil
}

// chainFactory builds the per-shard chain engine of the workload's family.
func (l *layerRun) chainFactory() shard.TopKFactory {
	if l.w.algo == surge.CellCSPOT {
		return func(cfg core.Config) (core.TopKShard, error) { return topk.NewKCCS(cfg, topK) }
	}
	return func(cfg core.Config) (core.TopKShard, error) { return gapsurge.NewTopK(cfg, false, topK) }
}

// shard runs the two-shard layouts on every workload's stream, whether or
// not the workload's server is sharded: the chain-only pipeline the server
// hosts (route, chain query) and, for the barrier alone, a pipeline of
// single-region engines.
func (l *layerRun) shard() error {
	const shards = 2
	pipe, chain, err := shard.NewTopK(l.cfg, shards, 0, shard.Params{}, topK, l.chainFactory())
	if err != nil {
		return err
	}
	defer pipe.Close()
	var qerr error
	query := func() {
		if _, _, err := chain.Query(); err != nil {
			qerr = err
		}
	}
	for _, evs := range l.fillEvents {
		for _, ev := range evs {
			pipe.Route(ev)
		}
		query()
	}
	_, before, _ := chain.Query()
	for i, evs := range l.measEvents {
		l.timed("shard.route", i, func() {
			for _, ev := range evs {
				pipe.Route(ev)
			}
		})
		l.timed("shard.chain_query", i, query)
	}
	_, after, _ := chain.Query()
	if qerr != nil {
		return qerr
	}
	l.out["shard.route_ns_per_event"] = nsPer(l.sum["shard.route"], l.nEvents)
	l.out["shard.chain_query_ns_per_call"] = nsPer(l.sum["shard.chain_query"], len(l.measEvents))
	// Events the shards processed over window events routed: 1 means no
	// event was replicated into a halo.
	l.out["shard.halo_events_ratio"] = float64(after.Events-before.Events) / float64(l.nEvents)

	factory := func(cfg core.Config) (core.Engine, error) { return cellcspot.New(cfg, cellcspot.ModeCCS) }
	if l.w.algo != surge.CellCSPOT {
		factory = func(cfg core.Config) (core.Engine, error) { return gapsurge.New(cfg, false) }
	}
	eng, err := shard.New(l.cfg, shards, 0, factory)
	if err != nil {
		return err
	}
	defer eng.Close()
	var barrier time.Duration
	for phase, batches := range [][][]core.Event{l.fillEvents, l.measEvents} {
		for _, evs := range batches {
			for _, ev := range evs {
				eng.Route(ev)
			}
			t0 := time.Now()
			if _, _, err := eng.Query(); err != nil {
				return err
			}
			if phase == 1 {
				barrier += time.Since(t0)
			}
		}
	}
	l.out["shard.barrier_ns_per_call"] = nsPer(barrier, len(l.measEvents))
	return nil
}

// pool prices one fan-out round trip of the tenant pool with empty work.
func (l *layerRun) pool() error {
	const rounds = 20000
	p := shard.NewPool(runtime.GOMAXPROCS(0))
	defer p.Close()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for wk := 0; wk < p.Size(); wk++ {
			p.Submit(wk, func() {})
		}
		p.Wait()
	}
	l.out["shard.pool_roundtrip_ns"] = nsPer(time.Since(t0), rounds)
	return nil
}

// pushAll feeds chunks to det, timing each as span name when it is set.
func (l *layerRun) pushAll(det *surge.Detector, chunks [][]surge.Object, name string) error {
	for i, chunk := range chunks {
		var err error
		if name == "" {
			_, err = det.PushBatch(chunk)
		} else {
			l.timed(name, i, func() { _, err = det.PushBatch(chunk) })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// surge measures the root package with each workload's served layout, then
// its checkpoint and restore.
func (l *layerRun) surge() error {
	opt := l.w.options(l.p.ds)
	det, _, err := newServed(l.w.algo, opt)
	if err != nil {
		return err
	}
	defer det.Close()
	if err := l.pushAll(det, l.chunks(l.fill), ""); err != nil {
		return err
	}
	if err := l.pushAll(det, l.chunks(l.meas), "surge.pushbatch"); err != nil {
		return err
	}
	l.out["surge.pushbatch_ns_per_obj"] = nsPer(l.sum["surge.pushbatch"], len(l.meas))
	below := l.sum["window.push"]
	for _, name := range l.servedEngine() {
		below += l.sum[name]
	}
	l.out["surge.self_ns_per_obj"] = nsPer(l.sum["surge.pushbatch"]-below, len(l.meas))

	live := det.Live()
	t0 := time.Now()
	ckpt, err := det.AppendCheckpoint(nil)
	if err != nil {
		return err
	}
	l.out["surge.checkpoint_ns_per_live_obj"] = nsPer(time.Since(t0), live)
	l.out["surge.checkpoint_bytes_per_live_obj"] = float64(len(ckpt)) / float64(live)
	t0 = time.Now()
	back, err := surge.RestoreShardedTuned(l.w.algo, ckpt, opt.Shards, 0, 0)
	if err != nil {
		return err
	}
	l.out["surge.restore_ns_per_live_obj"] = nsPer(time.Since(t0), live)
	if back.Live() != live {
		back.Close()
		return fmt.Errorf("restore: %d live objects, checkpointed %d", back.Live(), live)
	}
	return back.Close()
}

// wal appends payloads the size of one server WAL record (a header and 32
// bytes per object of a chunk) with fsync off and on, and replays them.
func (l *layerRun) wal() error {
	payload := make([]byte, 6+32*l.w.batch)
	records := len(l.measEvents)
	open := func(sub string, sync wal.SyncPolicy) (*wal.Log, error) {
		log, _, err := wal.Open(filepath.Join(l.dir, sub), wal.Options{Sync: sync})
		return log, err
	}
	log, err := open("wal-off", wal.SyncOff)
	if err != nil {
		return err
	}
	defer log.Close()
	for i := 0; i < records; i++ {
		var aerr error
		l.timed("wal.append", i, func() { _, aerr = log.Append(payload) })
		if aerr != nil {
			return aerr
		}
	}
	took := l.sum["wal.append"]
	l.out["wal.append_ns_per_record"] = nsPer(took, records)
	l.out["wal.bytes_per_obj"] = float64(log.SizeBytes()) / float64(records*l.w.batch)
	t0 := time.Now()
	n := 0
	if err := log.Replay(0, func(uint64, []byte) error { n++; return nil }); err != nil {
		return err
	}
	l.out["wal.replay_ns_per_obj"] = nsPer(time.Since(t0), records*l.w.batch)
	if n != records {
		return fmt.Errorf("wal replayed %d of %d records", n, records)
	}
	// fsync cost is the disk's, not the code's: flagged as such in the
	// README, and measured on fewer records since each costs ~1 ms.
	synced := min(records, 200)
	slog, err := open("wal-always", wal.SyncAlways)
	if err != nil {
		return err
	}
	defer slog.Close()
	t0 = time.Now()
	for i := 0; i < synced; i++ {
		if _, err := slog.Append(payload); err != nil {
			return err
		}
	}
	l.out["wal.append_fsync_ns_per_record"] = nsPer(time.Since(t0), synced)
	return nil
}

// serve pushes one request through the handler with no socket in between.
func serve(h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", client.NDJSON)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s %s: %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, nil
}

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// allocWarmupObjs is the object count of the smoke-scale hotpath rows
// ROADMAP item 1 asks about: allocations per object over a fresh server's
// first 11.5k objects, against the steady state after the fill.
const allocWarmupObjs = 11500

// server drives the workload's own server configuration in-process: ingest
// through Handler().ServeHTTP, reads, snapshot, and a durable boot. It
// returns the median in-process handler time of one ingest request.
func (l *layerRun) server() (float64, error) {
	w := l.w
	cfg := server.Config{
		Algorithm:  w.algo,
		Options:    w.options(l.p.ds),
		TopK:       topK,
		TimePolicy: server.Clamp,
		BatchSize:  w.batch,
		Queries:    w.queries(l.p.ds),
	}
	newServer := func(dir string) (*server.Server, error) {
		if !w.durable {
			return server.New(cfg)
		}
		dc := l.durableConfig(dir)
		return server.NewDurable(cfg, dc)
	}
	srv, err := newServer(filepath.Join(l.dir, "server"))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	h := srv.Handler()

	fillReqs, measReqs := l.p.fillEnd, len(l.meas)/w.reqObjs
	m0, _ := mallocs()
	warm := (allocWarmupObjs + w.reqObjs - 1) / w.reqObjs
	for i := 0; i < fillReqs; i++ {
		if i == warm {
			m1, _ := mallocs()
			l.out["server.ingest_allocs_per_obj_11k"] = float64(m1-m0) / float64(warm*w.reqObjs)
		}
		if _, err := serve(h, http.MethodPost, "/v1/ingest", l.p.bodies[i]); err != nil {
			return 0, err
		}
	}
	perReq := make([]float64, 0, measReqs)
	chunksPerReq := w.reqObjs / w.batch
	m1, b1 := mallocs()
	for i := 0; i < measReqs; i++ {
		var serr error
		d := l.timed("server.ingest", i*chunksPerReq, func() {
			_, serr = serve(h, http.MethodPost, "/v1/ingest", l.p.bodies[fillReqs+i])
		})
		if serr != nil {
			return 0, serr
		}
		perReq = append(perReq, float64(d))
	}
	m2, b2 := mallocs()
	nObjs := measReqs * w.reqObjs
	l.out["server.ingest_allocs_per_obj_feed"] = float64(m2-m0) / float64(len(l.fill)+nObjs)
	l.out["server.ingest_ns_per_obj"] = nsPer(l.sum["server.ingest"], nObjs)
	l.out["server.ingest_allocs_per_obj"] = float64(m2-m1) / float64(nObjs)
	l.out["server.ingest_bytes_per_obj"] = float64(b2-b1) / float64(nObjs)

	// What the ingest plane itself costs — parse, admission, loop hop,
	// publish — is the handler time minus the detector's and the log's.
	// With several queries the detectors run side by side on the pool
	// workers; any imbalance between them is the fan-out's cost and stays
	// in the server's self time.
	push, err := l.queryPushTotal()
	if err != nil {
		return 0, err
	}
	slots := 1 + len(w.queryMults)
	workers := min(slots, runtime.GOMAXPROCS(0))
	below := float64(push) / float64(workers)
	if w.durable {
		below += float64(l.sum["wal.append"])
	}
	ingest := float64(l.sum["server.ingest"])
	l.out["server.ingest_self_ns_per_obj"] = (ingest - below) / float64(nObjs)
	l.out["server.fanout_efficiency"] = float64(push) / (float64(workers) * ingest)

	const reads = 2000
	for _, r := range []struct{ metric, path string }{
		{"server.best_ns_per_call", "/v1/best"},
		{"server.topk_ns_per_call", "/v1/topk"},
	} {
		t0 := time.Now()
		for i := 0; i < reads; i++ {
			if _, err := serve(h, http.MethodGet, r.path, nil); err != nil {
				return 0, err
			}
		}
		l.out[r.metric] = nsPer(time.Since(t0), reads)
	}
	rec, err := serve(h, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return 0, err
	}
	var st client.StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, err
	}
	published := 0.0
	for _, q := range st.Queries {
		published += float64(q.Notifications + q.TopKNotifications)
	}
	l.out["server.events_per_batch"] = published / float64(st.Batches)

	t0 := time.Now()
	snap, err := srv.Snapshot()
	if err != nil {
		return 0, err
	}
	l.out["server.snapshot_ns_per_live_obj"] = nsPer(time.Since(t0), st.Live)
	if len(snap) == 0 {
		return 0, fmt.Errorf("empty snapshot")
	}

	boot, err := l.durableBoot(cfg)
	if err != nil {
		return 0, err
	}
	l.out["server.durable_boot_ns_per_obj"] = nsPer(boot, len(l.fill))
	return median(perReq), nil
}

// durableConfig is the workload's own log configuration, or a log that is
// never fsynced for a workload that has none.
func (l *layerRun) durableConfig(dir string) server.DurableConfig {
	dc := server.DurableConfig{Dir: dir, Sync: wal.SyncOff, CheckpointEvery: -1}
	if l.w.durable {
		// walSync is a constant this package owns; it parses.
		dc.Sync, dc.SyncEvery, _ = wal.ParseSyncPolicy(walSync)
	}
	return dc
}

// durableBoot logs the fill on a durable server of the workload's
// configuration (fsync as the workload has it, off where it has no log),
// crashes it — Close without the shutdown checkpoint — and times the boot
// that replays the log.
func (l *layerRun) durableBoot(cfg server.Config) (time.Duration, error) {
	dc := l.durableConfig(filepath.Join(l.dir, "boot"))
	srv, err := server.NewDurable(cfg, dc)
	if err != nil {
		return 0, err
	}
	for i := 0; i < l.p.fillEnd; i++ {
		if _, err := serve(srv.Handler(), http.MethodPost, "/v1/ingest", l.p.bodies[i]); err != nil {
			srv.Close()
			return 0, err
		}
	}
	if err := srv.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	again, err := server.NewDurable(cfg, dc)
	if err != nil {
		return 0, err
	}
	boot := time.Since(t0)
	return boot, again.Close()
}

// queryPushTotal is Σ over the workload's queries of the time a standalone
// detector of that query takes for the measured objects. The default
// query's is the surge pass; each named query gets a pass of its own.
func (l *layerRun) queryPushTotal() (time.Duration, error) {
	total := l.sum["surge.pushbatch"]
	for _, q := range l.w.queries(l.p.ds) {
		det, _, err := newServed(l.w.algo, l.w.queryOptions(l.p.ds, q))
		if err != nil {
			return 0, err
		}
		err = l.pushAll(det, l.chunks(l.fill), "")
		if err == nil {
			err = l.pushAll(det, l.chunks(l.meas), "surge.pushbatch."+q.ID)
		}
		det.Close()
		if err != nil {
			return 0, err
		}
		total += l.sum["surge.pushbatch."+q.ID]
	}
	return total, nil
}

// shares splits server.ingest_ns_per_obj by layer for the README table. With
// several queries the detectors run side by side, so they are one entry: the
// sum of their standalone times over the workers they share.
func (l *layerRun) shares() map[string]float64 {
	total := l.out["server.ingest_ns_per_obj"]
	s := map[string]float64{"server_self": l.out["server.ingest_self_ns_per_obj"] / total}
	if l.w.durable {
		s["wal"] = nsPer(l.sum["wal.append"], len(l.meas)) / total
	}
	if len(l.w.queryMults) > 0 {
		s["detectors"] = 1 - s["server_self"] - s["wal"]
		return s
	}
	s["window"] = nsPer(l.sum["window.push"], len(l.meas)) / total
	s["surge_self"] = l.out["surge.self_ns_per_obj"] / total
	var engine time.Duration
	for _, name := range l.servedEngine() {
		engine += l.sum[name]
	}
	s["engine"] = nsPer(engine, len(l.meas)) / total
	return s
}

// runTraced is the -trace 1 run: set-up once, the paced phase twice against
// the subprocess (spans off, then on), and the in-process layer replay.
func (b *bench) runTraced(spec runSpec) (*record, error) {
	w := spec.w
	var ref *reference
	s, _, err := b.setup(spec, &ref, "surged-"+w.Name+".stderr")
	if err != nil {
		return nil, err
	}
	defer s.close()
	tr := newTracer()
	half := (len(s.p.bodies) - s.p.satEnd) / 2
	plain, err := s.paced(s.p.satEnd, s.p.satEnd+half, nil)
	if err != nil {
		return nil, err
	}
	traced, err := s.paced(s.p.satEnd+half, s.p.satEnd+2*half, tr)
	if err != nil {
		return nil, err
	}
	_, st, err := s.finalChecks()
	if err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	bootMS := s.c.bootMS
	s.close() // the layer replay wants both cores

	dir, err := os.MkdirTemp(b.outDir, "layers-")
	if err != nil {
		return nil, err
	}
	b.reap.addDir(dir)
	defer b.reap.removeDir(dir)
	nMeas := int(layerObjsPerSec*spec.seconds) / w.reqObjs * w.reqObjs
	lp, err := makePlan(w, spec.seed, s.p.fillEnd, nMeas/w.reqObjs, 0)
	if err != nil {
		return nil, err
	}
	layers, shares, handlerNS, err := runLayers(w, lp, nMeas, tr, dir)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}

	rec := newRecord(spec)
	rec.Shares = shares
	rec.Backlog = plain.backlog + traced.backlog
	for name, v := range layers {
		rec.set(name, v)
	}
	var rtt []float64
	var sumWait, sumTotal time.Duration
	for _, a := range traced.ack {
		rtt = append(rtt, float64(a.done-a.sent)/float64(time.Microsecond))
		sumWait += a.lateness()
		sumTotal += a.done - a.due
	}
	rec.set("surged.boot_ms", bootMS)
	rec.set("surged.transport_us_per_req", median(rtt)-handlerNS/1e3)
	rec.set("surged.sse_gap_us_p50", median(traced.sseGapUS))
	rec.set("surged.queue_wait_share", float64(sumWait)/float64(sumTotal))
	rec.set("surged.gc_pause_max_ms", st.Runtime.GCPauseMaxSec*1e3)
	rec.set("surged.throttled", float64(st.Throttled))
	rec.set("loadgen.lateness_p99_ms", percentile(sortedCopy(durationsMS(generatorLateness(traced.ack))), 0.99))
	rec.set("loadgen.cpu_share", traced.selfCPU.Seconds()/traced.wall.Seconds())
	p50 := func(o pacedOut) float64 { return median(latencies(o.ack)) }
	rec.set("trace.overhead_pct", 100*(p50(traced)-p50(plain))/p50(plain))
	both := func(f func(pacedOut) []float64) []float64 { return sortedCopy(append(f(plain), f(traced)...)) }
	rec.setTail("ack_p99_ms", both(func(o pacedOut) []float64 { return latencies(o.ack) }))
	rec.setTail("detect_p99_ms", both(func(o pacedOut) []float64 { return o.detectMS }))
	rec.setTail("query_p99_ms", both(func(o pacedOut) []float64 { return latencies(o.query) }))
	rec.Attempted = s.p.satEnd + len(plain.ack) + len(plain.query) + len(traced.ack) + len(traced.query)
	rec.Failed = plain.failures() + traced.failures()
	rec.FailedShare = float64(rec.Failed) / float64(rec.Attempted)
	if err := tr.write(filepath.Join(b.outDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	return rec, nil
}
