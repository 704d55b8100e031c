// Package shard implements the sharded, concurrent detection pipeline: the
// plane is partitioned into query-width column blocks striped round-robin
// over K shards, each shard runs its own detection engine on a dedicated
// goroutine fed by a buffered event channel, and a merger combines the
// per-shard answers into the global bursty region.
//
// # Ownership and the halo invariant
//
// Every candidate bursty point p belongs to the query-width column
// m = floor(p.X / Width); column blocks of Block consecutive columns are
// striped over the shards, so each candidate point is owned by exactly one
// shard (core.ColumnSet). A region anchored at a point in column m spans the
// x-interval (p.X - Width, p.X], which is contained in the columns m-1 and
// m. The router therefore replicates every window event to the owners of the
// columns its coverage rectangle touches — a halo of exactly one query width
// to the left of each owned block — so the owning shard of any candidate
// point holds *all* objects of the region anchored there and computes its
// burst score over complete data, bit-identically to a single engine. A
// non-owning shard never reports a candidate it does not own (the engines
// apply the ColumnSet filter), so partial halo data can never surface as an
// inflated score.
//
// Events are routed by the same floor(x/Width) arithmetic the engines' grids
// use (grid.CoverCells), so the router and the engines always agree on
// ownership, including at column boundaries and for negative coordinates.
//
// # Concurrency model
//
// The pipeline is an SPMD fan-out with a barrier merger:
//
//	caller ──Route──▶ per-shard event buffers ──chan──▶ K engine goroutines
//	caller ◀─merged Result── barrier Query ◀─reply chan── (Best per shard)
//
// Route buffers events per shard and ships them in batches to amortise
// channel synchronisation; the batch size adapts to each shard's backlog
// (MinFlush while the shard's channel is empty, doubling with the
// channel depth up to MaxFlush), and batch slices are recycled through a
// sync.Pool — workers hand them back after applying them, so the steady
// state routes without allocating. Query flushes every buffer, sends a barrier
// message down each channel and merges the K answers by maximum score, ties
// broken deterministically by the lowest shard index. The Pipeline itself is
// not safe for concurrent use by multiple callers: one goroutine routes and
// queries, the parallelism lives inside.
package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"surge/internal/core"
	"surge/internal/obs"
)

// DefaultBlockCols is the default number of query-width columns per
// ownership block. Small blocks spread hotspots over more shards; large
// blocks shrink the halo fraction (only objects within one query width of a
// block edge are routed to two shards).
const DefaultBlockCols = 4

const (
	// MinFlush is the router's flush threshold while a shard's channel is
	// empty: the shard is keeping up, so small batches minimise the time an
	// event sits in the router before the engine sees it.
	MinFlush = 64
	// MaxFlush caps the adaptive flush threshold and sizes the pooled batch
	// slices. Under backlog the router ships up to this many events per
	// channel synchronisation, amortising the send exactly when the channel
	// is most contended.
	MaxFlush = 1024
	// chanDepth is the per-shard channel capacity in batches.
	chanDepth = 8
)

// Params is an empty placeholder kept for benchmark/ until its next
// revision, which still passes it to NewTopK.
type Params struct{}

// EngineFactory builds the detection engine for one shard. The passed config
// carries the shard's ColumnSet ownership filter; the factory must hand it
// through to the engine unchanged.
type EngineFactory func(cfg core.Config) (core.Engine, error)

type statser interface{ Stats() core.Stats }

// batch is one unit of work shipped to a shard: a slice of events, an
// optional top-k chain operation, and, when q is non-nil, a barrier request
// answered with the shard's current best result after the events are
// applied.
type batch struct {
	evs []core.Event
	op  *tkOp
	q   chan<- reply
}

type reply struct {
	idx   int
	best  core.Result
	stats core.Stats
}

// worker runs exactly one engine: a single-region engine (New) or the
// shard's top-k chain engine (NewTopK). Both are built before the worker's
// goroutine starts and never change, so the coordinator may read which one
// it is.
type worker struct {
	idx  int
	eng  core.Engine    // single-region engine; nil on a top-k pipeline
	tk   core.TopKShard // top-k chain engine; nil on a single-region pipeline
	ch   chan batch
	done chan struct{}
}

// Pipeline fans window events out to per-shard engines and merges their
// answers. Use New, Route, Query and Close; see the package comment for the
// concurrency contract.
type Pipeline struct {
	cfg     core.Config
	block   int
	cs      core.ColumnSet // Index unused; ShardOf routes
	workers []*worker
	pending [][]core.Event
	pool    sync.Pool
	replyc  chan reply
	results []core.Result
	stats   []core.Stats
	closed  bool

	routeSeq uint64   // bumped per routed event; the top-k chain detects staleness
	shardSeq []uint64 // per-shard event counters; the chain skips re-solving clean shards
	tgt      [3]int   // Route target scratch (single-caller contract)

	// Telemetry (process-wide obs.Default; recording amortised over batch
	// ship points, gated behind obs.On).
	mFlush   *obs.Histogram // events per shipped batch
	mBarrier *obs.Histogram // Query barrier wait
	mDepth   []*obs.Gauge   // per-shard channel depth at flush
	mEvents  []*obs.Counter // per-shard events shipped

	// Panic containment. A panic in engine code on a worker goroutine is
	// recovered, recorded here, and the worker turns into a zombie: it keeps
	// draining its channel and answering barriers and solves (with zero
	// results) so the coordinator never deadlocks, but stops touching its
	// engines, whose state the unwound call may have left corrupt. failed is
	// the lock-free flag the query paths consult; perr (under pmu) holds the
	// first panic, stack included.
	failed atomic.Bool
	pmu    sync.Mutex
	perr   error
}

// New builds a pipeline of `shards` single-region engines over the given
// base config. blockCols is the ownership block width in query-width columns
// (0 selects DefaultBlockCols). The factory is called once per shard with a
// config whose Cols field identifies the shard's owned columns.
func New(cfg core.Config, shards, blockCols int, factory EngineFactory) (*Pipeline, error) {
	return newPipeline(cfg, shards, blockCols, func(w *worker, scfg core.Config) (err error) {
		w.eng, err = factory(scfg)
		return err
	})
}

// newPipeline validates the partitioning, builds every worker's engine with
// build and starts the worker goroutines.
func newPipeline(cfg core.Config, shards, blockCols int, build func(w *worker, scfg core.Config) error) (*Pipeline, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", shards)
	}
	if blockCols == 0 {
		blockCols = DefaultBlockCols
	}
	if blockCols < 1 {
		return nil, fmt.Errorf("shard: block width must be >= 1 column, got %d", blockCols)
	}
	if cfg.Cols != nil {
		return nil, errors.New("shard: base config already carries a column set")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:      cfg,
		block:    blockCols,
		cs:       core.ColumnSet{Block: blockCols, Shards: shards},
		workers:  make([]*worker, shards),
		pending:  make([][]core.Event, shards),
		shardSeq: make([]uint64, shards),
		replyc:   make(chan reply, shards),
		results:  make([]core.Result, shards),
		stats:    make([]core.Stats, shards),
	}
	p.pool.New = func() any {
		s := make([]core.Event, 0, MaxFlush)
		return &s
	}
	p.mFlush = obs.Default.Values(obs.MShardFlush, "Events per batch shipped to a shard worker.")
	p.mBarrier = obs.Default.Duration(obs.MShardBarrier, "Query barrier: flush to all shards answered.")
	p.mDepth = make([]*obs.Gauge, shards)
	p.mEvents = make([]*obs.Counter, shards)
	for i := 0; i < shards; i++ {
		label := strconv.Itoa(i)
		p.mDepth[i] = obs.Default.Gauge(obs.MShardDepth, "Per-shard channel depth (batches) observed at flush.", "shard", label)
		p.mEvents[i] = obs.Default.Counter(obs.MShardEvents, "Events shipped per shard (halo replicas included).", "shard", label)
	}
	for i := 0; i < shards; i++ {
		w := &worker{idx: i, ch: make(chan batch, chanDepth), done: make(chan struct{})}
		if err := build(w, p.shardConfig(i)); err != nil {
			p.stop()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		p.workers[i] = w
		go p.run(w)
	}
	return p, nil
}

// shardConfig returns the base config carrying shard i's ownership filter.
func (p *Pipeline) shardConfig(i int) core.Config {
	scfg := p.cfg
	scfg.Cols = &core.ColumnSet{Block: p.block, Shards: len(p.workers), Index: i}
	return scfg
}

// run is the shard goroutine: apply event batches to every engine, execute
// top-k chain operations, answer barriers. Engine calls run behind recover
// wrappers; after the first panic the worker keeps draining — returning pool
// buffers and answering barriers and solves with zero results — so the
// coordinator's reply counts always balance and Query/Close never hang on a
// crashed shard.
func (p *Pipeline) run(w *worker) {
	defer close(w.done)
	failed := false // goroutine-owned: this worker's engines are poisoned
	for b := range w.ch {
		if !failed && len(b.evs) > 0 {
			failed = !p.applyEvents(w, b.evs)
		}
		if b.evs != nil {
			b.evs = b.evs[:0]
			p.pool.Put(&b.evs)
		}
		if b.op != nil {
			if failed {
				// Zombie drain: the only op with a waiting receiver is
				// tkSolve; everything else mutates engine state we must no
				// longer touch.
				if b.op.kind == tkSolve {
					b.op.resc <- tkReply{idx: w.idx}
				}
			} else {
				failed = !p.runOp(w, b.op)
			}
		}
		if b.q != nil {
			r, ok := p.bestReply(w, failed)
			if !ok {
				failed = true
			}
			b.q <- r
		}
	}
}

// applyEvents feeds one batch into the worker's engines. A panic in engine
// code is recovered and recorded as the pipeline error; ok reports whether
// the worker survived.
func (p *Pipeline) applyEvents(w *worker, evs []core.Event) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(w.idx, r)
		}
	}()
	if w.eng != nil {
		for _, ev := range evs {
			w.eng.Process(ev)
		}
		return true
	}
	for _, ev := range evs {
		w.tk.Process(ev)
	}
	return true
}

// runOp executes one top-k chain operation on the worker's goroutine. On a
// panic the recorded obligation still holds: a tkSolve that did not get to
// its send replies with a zero result so the coordinator's receive loop
// completes. ok reports whether the worker survived.
func (p *Pipeline) runOp(w *worker, op *tkOp) (ok bool) {
	replied := false
	defer func() {
		if r := recover(); r != nil {
			p.fail(w.idx, r)
			if op.kind == tkSolve && !replied {
				op.resc <- tkReply{idx: w.idx}
			}
		}
	}()
	switch op.kind {
	case tkSolve:
		r := tkReply{idx: w.idx, res: w.tk.ProblemBest(op.i)}
		if s, ok := w.tk.(statser); ok {
			r.stats = s.Stats()
		}
		replied = true
		op.resc <- r
	case tkApply:
		w.tk.ApplyRank(op.i, op.old, op.sel)
	case tkLoad:
		w.tk.(core.TopKLoader).Load(op.live)
	}
	return true
}

// bestReply computes the worker's barrier answer. A failed (or engine-less)
// worker answers with a zero reply so the barrier still balances; a panic in
// Best/Stats fails the worker like any other engine panic.
func (p *Pipeline) bestReply(w *worker, failed bool) (r reply, ok bool) {
	r.idx = w.idx
	if failed || w.eng == nil {
		return r, !failed
	}
	defer func() {
		if rec := recover(); rec != nil {
			p.fail(w.idx, rec)
			r = reply{idx: w.idx}
			ok = false
		}
	}()
	r.best = w.eng.Best()
	if s, ok := w.eng.(statser); ok {
		r.stats = s.Stats()
	}
	return r, true
}

// fail records the first engine panic as the pipeline error, stack included,
// so the crash site survives into Detector.Err and the serving layer's
// health endpoint instead of tearing the process down.
func (p *Pipeline) fail(idx int, r any) {
	p.pmu.Lock()
	if p.perr == nil {
		p.perr = fmt.Errorf("shard %d: engine panicked: %v\n%s", idx, r, debug.Stack())
	}
	p.pmu.Unlock()
	p.failed.Store(true)
}

// err returns the recorded pipeline panic error, nil while healthy.
func (p *Pipeline) err() error {
	if !p.failed.Load() {
		return nil
	}
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.perr
}

// Shards returns the number of engine shards.
func (p *Pipeline) Shards() int { return len(p.workers) }

// BlockCols returns the ownership block width in query-width columns.
func (p *Pipeline) BlockCols() int { return p.block }

// Closed reports whether Close has been called.
func (p *Pipeline) Closed() bool { return p.closed }

// Route buffers one window event for every shard whose owned columns the
// event's coverage rectangle touches (one shard in the interior of a block,
// two across a block boundary — the halo replication). Events for objects
// outside the preferred area are dropped. Route must not be called after
// Close.
func (p *Pipeline) Route(ev core.Event) {
	if p.closed {
		// Degraded mode (see surge.Detector.Err): the workers are gone, so
		// buffering more events could only grow until a flush tried to send
		// on a closed channel. Drop the event; the next Query reports the
		// closed-pipeline error.
		return
	}
	if !p.cfg.InArea(ev.Obj) {
		return
	}
	p.routeSeq++
	for _, s := range p.targets(ev) {
		p.enqueue(s, ev)
	}
}

// targets returns the distinct shards the event is replicated to, in the
// pipeline's routing scratch (valid until the next call). The coverage
// rectangle (x, x+Width] touches columns i0..i1 under the identical floor
// arithmetic of grid.CoverCells; a candidate in column i0+1 can also depend
// on this object through a grid shifted by less than one cell (gapsurge), so
// the routed span always includes it. The span covers at most three columns;
// the owners are deduped so an event reaches each shard once (with Block ==
// 1 the owner pattern can be A,B,A, so positional dedupe is not enough).
func (p *Pipeline) targets(ev core.Event) []int {
	x := ev.Obj.X
	i0 := int(math.Floor(x / p.cfg.Width))
	i1 := int(math.Floor((x + p.cfg.Width) / p.cfg.Width))
	if i1 < i0+1 {
		i1 = i0 + 1
	}
	n := 0
	for m := i0; m <= i1; m++ {
		s := p.cs.ShardOf(m)
		dup := false
		for j := 0; j < n; j++ {
			if p.tgt[j] == s {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		p.tgt[n] = s
		n++
	}
	return p.tgt[:n]
}

func (p *Pipeline) enqueue(s int, ev core.Event) {
	p.shardSeq[s]++
	buf := p.pending[s]
	if buf == nil {
		buf = (*p.pool.Get().(*[]core.Event))[:0]
	}
	buf = append(buf, ev)
	if len(buf) >= p.flushTarget(s) {
		p.noteShip(s, len(buf))
		p.workers[s].ch <- batch{evs: buf}
		buf = nil
	}
	p.pending[s] = buf
}

// noteShip records one batch ship to shard s: the batch size, the shard's
// cumulative event count and its channel depth at the moment of the ship.
// Amortised over whole batches, so the per-event routing cost is untouched.
func (p *Pipeline) noteShip(s, events int) {
	p.mFlush.Record(uint64(events))
	p.mEvents[s].Add(uint64(events))
	p.mDepth[s].Set(float64(len(p.workers[s].ch)))
}

// flushTarget returns the buffered-event count at which the router ships a
// batch to shard s. The target adapts to the shard's observed backlog — the
// channel depth read here is a heuristic (the worker drains concurrently), so the target only steers
// batch sizing and never affects which events a shard sees or their order.
func (p *Pipeline) flushTarget(s int) int {
	t := MinFlush << uint(len(p.workers[s].ch))
	if t > MaxFlush || t <= 0 {
		return MaxFlush
	}
	return t
}

// Query flushes the event buffers, waits for every shard to drain, and
// returns the merged bursty region together with the summed engine
// statistics. Equal-score shard answers are merged by core.CompareTopK — the
// canonical cross-family selection order the engines themselves use — so the
// merged answer is bit-identical to a single engine's no matter how cells
// are partitioned. It is the pipeline's only synchronisation point: after
// Query returns, every routed event has been applied.
func (p *Pipeline) Query() (core.Result, core.Stats, error) {
	if p.closed {
		return core.Result{}, core.Stats{}, errors.New("shard: pipeline is closed")
	}
	if p.workers[0].eng == nil {
		return core.Result{}, core.Stats{}, errors.New("shard: pipeline has no single-region engines")
	}
	if err := p.err(); err != nil {
		return core.Result{}, core.Stats{}, err
	}
	t0 := time.Now()
	for i, w := range p.workers {
		if n := len(p.pending[i]); n > 0 {
			p.noteShip(i, n)
		}
		w.ch <- batch{evs: p.pending[i], q: p.replyc}
		p.pending[i] = nil
	}
	for range p.workers {
		r := <-p.replyc
		p.results[r.idx] = r.best
		p.stats[r.idx] = r.stats
	}
	// Every worker answered (zombies with zero replies), so a panic during
	// this very barrier is visible now: the reply send happens after the
	// worker records the failure.
	if err := p.err(); err != nil {
		return core.Result{}, core.Stats{}, err
	}
	p.mBarrier.Observe(time.Since(t0))
	var best core.Result
	for _, r := range p.results {
		if r.Found && (!best.Found || core.CompareTopK(r, best) < 0) {
			best = r
		}
	}
	var st core.Stats
	for _, s := range p.stats {
		st.Events += s.Events
		st.Searches += s.Searches
		st.SearchEvents += s.SearchEvents
		st.SweepEntries += s.SweepEntries
		st.CellsTouched += s.CellsTouched
	}
	return best, st, nil
}

// Close stops the shard goroutines and waits for them to exit. Buffered
// events that were never followed by a Query are discarded. Close is
// idempotent; Route and Query must not be used afterwards.
func (p *Pipeline) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.stop()
	return nil
}

func (p *Pipeline) stop() {
	for _, w := range p.workers {
		if w != nil {
			close(w.ch)
		}
	}
	for _, w := range p.workers {
		if w != nil {
			<-w.done
		}
	}
}
