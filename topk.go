package surge

import (
	"errors"
	"fmt"

	"surge/internal/core"
	"surge/internal/gapsurge"
	"surge/internal/shard"
	"surge/internal/topk"
	"surge/internal/window"
)

// ErrAttached is returned by the stream-mutating methods of a TopKDetector
// created with Detector.AttachTopK: an attached detector is fed by its
// parent's stream, so objects must be pushed through the parent.
var ErrAttached = errors.New("surge: top-k detector is attached; push through the parent detector")

// errBestChainDetached is recorded on a parent whose serving chain
// (AttachTopKBest) was detached: the retired engines are gone, so Best can
// only answer from the state captured at detach. A subsequent
// AttachTopKBest clears it — a fresh chain takes over serving.
var errBestChainDetached = errors.New("surge: serving top-k chain detached; Best answers from the state captured at detach")

// TopKDetector continuously maintains the top-k bursty regions (Section VI
// of the paper): k regions of the query size such that every object
// contributes to the burst score of at most one of them, selected greedily
// by score. It is not safe for concurrent use.
//
// A TopKDetector is either standalone (NewTopK, RestoreTopK) — it owns its
// sliding windows and is fed with Push/PushBatch/AdvanceTo — or attached
// (Detector.AttachTopK) — it shares the parent detector's windows and is
// maintained incrementally by every object the parent ingests.
type TopKDetector struct {
	alg     Algorithm
	k       int
	cfg     core.Config
	win     window.Source    // nil when attached
	eng     core.TopKEngine  // single-engine path; nil when chain-backed
	pipe    *shard.Pipeline  // owned top-k-only pipeline (standalone sharded)
	chain   *shard.TopKChain // cross-shard chain (on pipe, or the parent's pipeline)
	parent  *Detector        // non-nil when attached
	cur     []core.Result
	err     error // first chain failure, surfaced by Err
	counted bool
	closed  bool
	frozen  bool // chain gone (parent closed); query methods serve cur
	shards  int  // requested Options.Shards (recorded in checkpoints)
	blkCols int  // requested Options.ShardBlockCols

	ckptObjs []checkpointObject // checkpoint scratch, reused across calls

	res []Result // result buffer reused by the query methods

	finalStats Stats // merged stats captured at freeze/Close (chain-backed)

	// Emit callbacks captured once; binding a method value per Push would
	// put a closure allocation on the per-object hot path.
	stepFn    func(core.Event)
	processFn func(core.Event)
	routeFn   func(core.Event)
}

// newTopKEngine builds the top-k engine for an algorithm. Supported:
// CellCSPOT (the paper's kCCS), GridApprox (kGAPS), MultiGrid (kMGAPS) and
// Oracle (the naive greedy baseline of Section VII-F).
func newTopKEngine(alg Algorithm, cfg core.Config, k int) (core.TopKEngine, error) {
	return testWrap(newTopKEngineRaw(alg, cfg, k))
}

func newTopKEngineRaw(alg Algorithm, cfg core.Config, k int) (core.TopKEngine, error) {
	switch alg {
	case CellCSPOT:
		return topk.NewKCCS(cfg, k)
	case GridApprox:
		return gapsurge.NewTopK(cfg, false, k)
	case MultiGrid:
		return gapsurge.NewTopK(cfg, true, k)
	case Oracle:
		return topk.NewNaive(cfg, k)
	default:
		return nil, fmt.Errorf("surge: algorithm %v has no top-k variant", alg)
	}
}

// newTopKShardEngine builds the per-shard engine of the cross-shard chain;
// every supported top-k engine implements the maskable per-problem API.
func newTopKShardEngine(alg Algorithm, cfg core.Config, k int) (core.TopKShard, error) {
	eng, err := newTopKEngine(alg, cfg, k)
	if err != nil {
		return nil, err
	}
	se, ok := eng.(core.TopKShard)
	if !ok {
		return nil, fmt.Errorf("surge: algorithm %v has no sharded top-k variant", alg)
	}
	return se, nil
}

// NewTopK returns a standalone top-k detector. Supported algorithms:
// CellCSPOT (the paper's kCCS), GridApprox (kGAPS), MultiGrid (kMGAPS) and
// Oracle (the naive greedy baseline of Section VII-F).
//
// Options.Shards >= 2 runs the sharded top-k pipeline: every shard maintains
// the chain's candidate state over its owned column blocks (plus the halo),
// and each query runs the greedy chain globally — the best region across
// shards is selected, its objects are masked, and only the shards its
// coverage can reach re-solve the lower-ranked problems. The merged answer
// equals the single-engine chain's (bitwise for kCCS; same regions for
// kGAPS/kMGAPS). Call Close when done to stop the shard goroutines.
func NewTopK(alg Algorithm, opt Options, k int) (*TopKDetector, error) {
	if k < 1 {
		return nil, fmt.Errorf("surge: k must be >= 1, got %d", k)
	}
	cfg, err := opt.config()
	if err != nil {
		return nil, err
	}
	win, err := newSource(opt, cfg)
	if err != nil {
		return nil, err
	}
	d := &TopKDetector{
		alg: alg, k: k, cfg: cfg, win: win,
		counted: opt.CountWindows,
		shards:  opt.Shards,
		blkCols: opt.ShardBlockCols,
	}
	d.stepFn = d.step
	if opt.Shards >= 2 {
		d.pipe, d.chain, err = shard.NewTopK(cfg, opt.Shards, opt.ShardBlockCols,
			shard.Params{FlushEvents: opt.ShardFlushEvents}, k,
			func(scfg core.Config) (core.TopKShard, error) { return newTopKShardEngine(alg, scfg, k) })
		if err != nil {
			return nil, err
		}
		d.routeFn = d.pipe.Route
		return d, nil
	}
	d.eng, err = newTopKEngine(alg, cfg, k)
	if err != nil {
		return nil, err
	}
	d.processFn = d.eng.Process
	return d, nil
}

// AttachTopK creates a top-k detector maintained by this detector's event
// stream: the current live windows are replayed into fresh top-k engines in
// arrival order, and from then on every object pushed into the parent
// (Push, PushBatch, AdvanceTo) also maintains the attached engines. On a
// single-engine parent the maintenance runs on the caller's goroutine; on a
// sharded parent the engines ride the shard workers — each worker maintains
// the chain's candidate state for its owned columns alongside its
// single-region engine, so per-event maintenance is distributed exactly like
// detection and BestK merges the per-shard answers with the cross-shard
// greedy chain. Query it with BestK; the stream-mutating methods return
// ErrAttached.
//
// Because the kCCS engine keeps its per-cell state canonical (arrival-
// ordered storage, canonically rescored candidates), the attached detector
// reports bitwise the same scores as replaying a checkpoint of the parent
// into RestoreTopK — continuous maintenance and replay are interchangeable,
// sharded or not.
//
// Close the attached detector to detach it from the parent. Closing the
// parent freezes the attached detector's answer.
func (d *Detector) AttachTopK(alg Algorithm, k int) (*TopKDetector, error) {
	if d.closed {
		return nil, ErrClosed
	}
	if k < 1 {
		return nil, fmt.Errorf("surge: k must be >= 1, got %d", k)
	}
	if d.pipe != nil {
		chain, err := d.pipe.AttachTopK(k, func(scfg core.Config) (core.TopKShard, error) {
			return newTopKShardEngine(alg, scfg, k)
		}, d.seedEvents())
		if err != nil {
			return nil, err
		}
		td := &TopKDetector{
			alg: alg, k: k, cfg: d.cfg, chain: chain,
			parent:  d,
			counted: d.counted,
			shards:  d.shards,
			blkCols: d.blkCols,
		}
		d.ctaps = append(d.ctaps, td)
		return td, nil
	}
	eng, err := newTopKEngine(alg, d.cfg, k)
	if err != nil {
		return nil, err
	}
	td := &TopKDetector{
		alg: alg, k: k, cfg: d.cfg, eng: eng,
		parent:  d,
		counted: d.counted,
	}
	td.processFn = eng.Process
	for _, ev := range d.seedEvents() {
		eng.Process(ev)
	}
	d.taps = append(d.taps, td)
	return td, nil
}

// AttachTopKBest attaches a top-k detector exactly like AttachTopK and then
// switches the parent to serve Best from the chain's rank-1 region, retiring
// the single-region engines entirely: on a sharded parent the workers drop
// their engines (freeing their state), on a single-engine parent the engine
// is released. One maintained engine family then answers both the top-k and
// the single-region queries, so ingest pays the chain maintenance once
// instead of maintaining two engine families side by side.
//
// The chain's first problem is the unconstrained cSPOT problem, so its
// rank-1 region is the single-region answer — bitwise for the exact family
// (the kCCS chain under CellCSPOT answers exactly what CCS, B-CCS and Base
// report) and for the grid approximations paired with their own chains
// (GridApprox with kGAPS, MultiGrid with kMGAPS). Pass a chain algorithm
// whose rank-1 matches the parent's algorithm; AG2 and Oracle parents have
// no matching chain and should keep AttachTopK.
//
// The engine retirement is permanent: closing (detaching) the returned
// detector leaves the parent without any engine — it degrades to its
// retained answer and records an error for Err, like a failed pipeline —
// until another AttachTopKBest installs a fresh serving chain (which clears
// that detach error). Stats reports the chain's counters. Checkpoint is
// unaffected (it serialises the live windows, not engine state).
func (d *Detector) AttachTopKBest(alg Algorithm, k int) (*TopKDetector, error) {
	if d.bestChain != nil {
		return nil, errors.New("surge: detector already serves Best from a top-k chain")
	}
	td, err := d.AttachTopK(alg, k)
	if err != nil {
		return nil, err
	}
	d.bestChain = td
	d.engOff = true
	if d.err == errBestChainDetached {
		d.err = nil // serving recovered: a fresh chain took over
	}
	if d.pipe != nil {
		d.pipe.DropEngines()
	} else {
		d.eng = nil
	}
	d.refreshFromBestChain()
	return td, nil
}

// rank1 returns the chain's current rank-1 answer — the single-region result
// the parent serves under AttachTopKBest — refreshing the cached top-k unless
// frozen. On a chain failure the retained answer is returned alongside the
// error.
func (td *TopKDetector) rank1() (core.Result, error) {
	var err error
	if td.chain != nil {
		if !td.frozen {
			err = td.refreshFromChain()
		}
	} else {
		td.cur = td.eng.BestK()
	}
	if len(td.cur) == 0 {
		return core.Result{}, err
	}
	return td.cur[0], err
}

// seedEvents returns the live windows as the canonical arrival-order event
// sequence — New transitions in arrival (= id) order, then the Grown
// transitions the windows have already performed — the order the engines'
// cell storage is defined over.
func (d *Detector) seedEvents() []core.Event {
	evs := make([]core.Event, 0, 2*d.win.Live())
	d.win.Each(func(o core.Object, _ bool) {
		evs = append(evs, core.Event{Kind: core.New, Obj: o})
	})
	d.win.Each(func(o core.Object, past bool) {
		if past {
			evs = append(evs, core.Event{Kind: core.Grown, Obj: o})
		}
	})
	return evs
}

// Algorithm returns the detector's algorithm.
func (d *TopKDetector) Algorithm() Algorithm { return d.alg }

// K returns the number of regions maintained.
func (d *TopKDetector) K() int { return d.k }

// Attached reports whether the detector is fed by a parent detector.
func (d *TopKDetector) Attached() bool { return d.parent != nil }

// recordErr keeps the first chain failure for Err.
func (d *TopKDetector) recordErr(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first error the cross-shard chain reported to a query or
// push, nil if none — the top-k counterpart of Detector.Err. A detector
// with a non-nil Err keeps serving its last good answer (BestK) but can no
// longer refresh it. Freezes at Close are not errors.
func (d *TopKDetector) Err() error { return d.err }

// Shards returns the number of engine shards maintaining the chain (1 on
// the single-engine path; an attached detector reports its parent's count).
func (d *TopKDetector) Shards() int {
	switch {
	case d.pipe != nil:
		return d.pipe.Shards()
	case d.parent != nil:
		return d.parent.Shards()
	default:
		return 1
	}
}

// Close detaches an attached detector from its parent and stops further
// maintenance; the query methods keep answering from the captured state. On
// a standalone detector it marks the stream closed and, on the sharded path,
// captures the final answer and shuts the shard goroutines down. Close is
// idempotent.
func (d *TopKDetector) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	if d.chain != nil {
		d.freeze()
		if d.pipe != nil { // standalone sharded: the pipeline is ours
			d.pipe.Close()
		} else { // attached: detach from the parent's workers
			d.chain.Close()
		}
	}
	if d.parent != nil {
		d.parent.detachTopK(d)
	}
	return nil
}

// freeze captures the chain's final answer and statistics so the query
// methods keep answering after the chain is gone. Called by Close and by
// the parent detector's Close.
func (d *TopKDetector) freeze() {
	if d.frozen {
		return
	}
	d.frozen = true
	if res, st, err := d.chain.Query(); err == nil {
		d.cur = append(d.cur[:0], res...)
		d.finalStats = toStats(st)
	}
}

// detachTopK removes td from the detector's attached-tap bookkeeping,
// truncating the freed tail slots so a detached detector's engine and
// buffers are not kept reachable through the parent's slices. Detaching the
// chain that serves Best (AttachTopKBest) captures its final answer and
// degrades the parent to that retained answer, recording an error for Err —
// the engines it replaced are gone.
func (d *Detector) detachTopK(td *TopKDetector) {
	d.taps = removeTap(d.taps, td)
	d.ctaps = removeTap(d.ctaps, td)
	if td == d.bestChain {
		if r, err := td.rank1(); err == nil {
			d.cur = r
		}
		d.bestChain = nil
		d.recordErr(errBestChainDetached)
	}
}

func removeTap(taps []*TopKDetector, td *TopKDetector) []*TopKDetector {
	kept := taps[:0]
	for _, t := range taps {
		if t != td {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(taps); i++ {
		taps[i] = nil // drop the stale tail reference
	}
	return kept
}

// Push feeds one object into the stream, processes every window transition
// it makes due, and returns the refreshed top-k regions in rank order.
// Slots beyond the number of non-empty regions have Found == false. The
// returned slice is reused by subsequent calls; copy it to retain. On an
// attached detector it returns ErrAttached.
func (d *TopKDetector) Push(o Object) ([]Result, error) {
	if err := d.pushable(); err != nil {
		return nil, err
	}
	if d.pipe != nil {
		return d.pushSharded([]Object{o})
	}
	_, err := d.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, d.stepFn)
	if err != nil {
		return nil, err
	}
	return d.results(), nil
}

// pushSharded routes a batch into the shard workers and synchronises on the
// cross-shard chain once at the end.
func (d *TopKDetector) pushSharded(objs []Object) ([]Result, error) {
	for _, o := range objs {
		if _, err := d.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, d.routeFn); err != nil {
			return nil, err
		}
	}
	if err := d.refreshFromChain(); err != nil {
		return nil, err
	}
	return d.results(), nil
}

// refreshFromChain synchronises d.cur with the cross-shard chain, recording
// the first failure for Err.
func (d *TopKDetector) refreshFromChain() error {
	res, _, err := d.chain.Query()
	if err != nil {
		d.recordErr(err)
		return err
	}
	d.cur = append(d.cur[:0], res...)
	return nil
}

// PushBatch feeds a time-ordered batch of objects and returns the top-k
// regions after the whole batch, querying the engine once at the end rather
// than after every window transition. The final answer is equivalent to
// pushing the objects individually: same regions, with scores equal up to
// the floating-point rounding of the engines' incrementally maintained
// caches (the query schedule decides when cached candidates are refreshed;
// for the canonically rescored kCCS the scores are bitwise identical).
// On error the stream state includes every object before the offending one.
// The returned slice is reused by subsequent calls.
func (d *TopKDetector) PushBatch(objs []Object) ([]Result, error) {
	if err := d.pushable(); err != nil {
		return nil, err
	}
	if d.pipe != nil {
		return d.pushSharded(objs)
	}
	for _, o := range objs {
		if _, err := d.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, d.processFn); err != nil {
			return nil, err
		}
	}
	d.cur = d.eng.BestK()
	return d.results(), nil
}

// AdvanceTo moves the stream clock to t without a new arrival and returns
// the refreshed top-k regions. The returned slice is reused by subsequent
// calls.
func (d *TopKDetector) AdvanceTo(t float64) ([]Result, error) {
	if err := d.pushable(); err != nil {
		return nil, err
	}
	if d.pipe != nil {
		if err := d.win.Advance(t, d.routeFn); err != nil {
			return nil, err
		}
		if err := d.refreshFromChain(); err != nil {
			return nil, err
		}
		return d.results(), nil
	}
	if err := d.win.Advance(t, d.stepFn); err != nil {
		return nil, err
	}
	d.cur = d.eng.BestK()
	return d.results(), nil
}

// pushable rejects stream mutations on attached or closed detectors.
func (d *TopKDetector) pushable() error {
	if d.parent != nil {
		return ErrAttached
	}
	if d.closed {
		return ErrClosed
	}
	return nil
}

func (d *TopKDetector) step(ev core.Event) {
	d.eng.Process(ev)
	d.cur = d.eng.BestK()
}

// BestK returns the current top-k regions. On a chain-backed detector
// (standalone sharded, or attached to a sharded parent) this runs the
// cross-shard greedy merge — a synchronisation point of the shard pipeline —
// unless no event arrived since the last query. After Close (or after a
// parent's Close) it keeps returning the answer captured then. The returned
// slice is reused by subsequent calls; copy it to retain.
func (d *TopKDetector) BestK() []Result {
	if d.chain != nil {
		if !d.frozen {
			d.refreshFromChain() // on failure, serve the retained answer
		}
		return d.results()
	}
	d.cur = d.eng.BestK()
	return d.results()
}

// Now returns the current stream time (the parent's on an attached
// detector).
func (d *TopKDetector) Now() float64 {
	if d.parent != nil {
		return d.parent.Now()
	}
	return d.win.Now()
}

// Stats returns instrumentation counters for engines that expose them. On a
// chain-backed detector the per-shard counters are summed (a synchronisation
// point; an event replicated into a halo is counted by each shard that
// received it). After a freeze the counters captured then are returned.
func (d *TopKDetector) Stats() Stats {
	if d.chain != nil {
		if d.frozen {
			return d.finalStats
		}
		if _, st, err := d.chain.Query(); err == nil {
			return toStats(st)
		} else {
			d.recordErr(err)
		}
		return Stats{}
	}
	if s, ok := d.eng.(statser); ok {
		return toStats(s.Stats())
	}
	return Stats{}
}

func (d *TopKDetector) results() []Result {
	if d.res == nil {
		d.res = make([]Result, d.k)
	}
	for i := range d.res {
		d.res[i] = Result{}
	}
	for i, r := range d.cur {
		if i >= d.k {
			break
		}
		d.res[i] = toResult(r)
	}
	return d.res
}
