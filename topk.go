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

// TopKDetector continuously maintains the top-k bursty regions (Section VI
// of the paper): k regions of the query size such that every object
// contributes to the burst score of at most one of them, selected greedily
// by score. It owns its sliding windows and is fed with Push, PushBatch and
// AdvanceTo. Its first problem is the unconstrained one, so rank 1 is the
// bursty region. It is not safe for concurrent use.
type TopKDetector struct {
	alg     Algorithm
	k       int
	cfg     core.Config
	win     window.Source
	eng     core.TopKEngine  // single-engine path; nil when sharded
	pipe    *shard.Pipeline  // top-k pipeline; nil on the single-engine path
	chain   *shard.TopKChain // pipe's cross-shard chain
	cur     []core.Result
	err     error // first chain failure, surfaced by Err
	counted bool
	closed  bool
	shards  int // requested Options.Shards (recorded in checkpoints)
	blkCols int // requested Options.ShardBlockCols

	ckptObjs []checkpointObject // checkpoint scratch, reused across calls

	res []Result // result buffer reused by the query methods

	finalStats Stats // merged stats captured at Close (sharded path)

	// lag is the first object Replay held back from the chain, 0 when the
	// chain holds every live object. Held-back objects are the newest ones
	// (IDs >= lag); catchUp shows the chain those still live.
	lag uint64

	// Emit callbacks captured once; binding a method value per Push would
	// put a closure allocation on the per-object hot path.
	stepFn  func(core.Event)
	chainFn func(core.Event) // the engine's Process, or the pipeline's Route
	holdFn  func(core.Event)
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
	d.holdFn = d.hold
	if opt.Shards >= 2 {
		d.pipe, d.chain, err = shard.NewTopK(cfg, opt.Shards, opt.ShardBlockCols, shard.Params{}, k,
			func(scfg core.Config) (core.TopKShard, error) { return newTopKShardEngine(alg, scfg, k) })
		if err != nil {
			return nil, err
		}
		d.chainFn = d.pipe.Route
		return d, nil
	}
	d.eng, err = newTopKEngine(alg, cfg, k)
	if err != nil {
		return nil, err
	}
	d.chainFn = d.eng.Process
	return d, nil
}

// AttachTopKBest hands the detector's stream over to a standalone top-k
// chain of the given algorithm and returns that chain: the live windows are
// checkpointed and restored into it (RestoreTopK, keeping the detector's
// shard layout), and the detector's own engines are closed. From then on
// every stream and query method of the detector delegates to the chain, and
// Best answers its rank-1 region. Among equal-score regions that rank 1 may
// differ from the one the detector's own engine would have picked.
//
// For benchmark/ until its next revision; new code builds the chain
// directly with NewTopK or RestoreTopKSharded.
func (d *Detector) AttachTopKBest(alg Algorithm, k int) (*TopKDetector, error) {
	if d.served != nil {
		return nil, errors.New("surge: detector already serves Best from a top-k chain")
	}
	if d.closed {
		return nil, ErrClosed
	}
	ckpt, err := d.Checkpoint()
	if err != nil {
		return nil, err
	}
	td, err := RestoreTopK(alg, ckpt, k)
	if err != nil {
		return nil, err
	}
	if d.pipe != nil {
		d.pipe.Close()
	}
	d.served = td
	d.win, d.eng, d.pipe, d.ckptObjs = nil, nil, nil, nil
	return td, nil
}

// servedBest adapts a served chain's answer to the Detector API: its rank 1,
// which on error is the answer the chain retained.
func (d *Detector) servedBest(_ []Result, err error) (Result, error) {
	return d.served.results()[0], err
}

// Algorithm returns the detector's algorithm.
func (d *TopKDetector) Algorithm() Algorithm { return d.alg }

// K returns the number of regions maintained.
func (d *TopKDetector) K() int { return d.k }

// Options returns the detector's effective configuration; see
// Detector.Options. AG2Gamma is always zero: top-k detection has no aG2
// variant.
func (d *TopKDetector) Options() Options {
	return options(d.cfg, 0, d.counted, d.shards, d.blkCols)
}

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
// the single-engine path).
func (d *TopKDetector) Shards() int {
	if d.pipe != nil {
		return d.pipe.Shards()
	}
	return 1
}

// Close marks the stream closed and, on the sharded path, captures the final
// answer and statistics and shuts the shard goroutines down. After Close,
// Push, PushBatch and AdvanceTo return ErrClosed while the query methods
// (BestK, Stats, Now, Live, Checkpoint) keep answering from the captured
// state. Close is idempotent.
func (d *TopKDetector) Close() error {
	if d.closed {
		return nil
	}
	d.catchUp()
	d.closed = true
	if d.pipe == nil {
		return nil
	}
	if res, st, err := d.chain.Query(); err == nil {
		d.cur = append(d.cur[:0], res...)
		d.finalStats = toStats(st)
	}
	return d.pipe.Close()
}

// Push feeds one object into the stream, processes every window transition
// it makes due, and returns the refreshed top-k regions in rank order.
// Slots beyond the number of non-empty regions have Found == false. The
// returned slice is reused by subsequent calls; copy it to retain. After
// Close it returns ErrClosed.
func (d *TopKDetector) Push(o Object) ([]Result, error) {
	if d.closed {
		return nil, ErrClosed
	}
	if d.pipe != nil {
		return d.PushBatch([]Object{o})
	}
	d.catchUp()
	if err := d.feed([]Object{o}, d.stepFn); err != nil {
		return nil, err
	}
	return d.results(), nil
}

// feed pushes objs into the windows, emitting their transitions to emit,
// and stops at the first offending object.
func (d *TopKDetector) feed(objs []Object, emit func(core.Event)) error {
	for _, o := range objs {
		if _, err := d.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, emit); err != nil {
			return err
		}
	}
	return nil
}

// refresh reads the chain's answer once at the end of a push: the
// cross-shard greedy merge on the sharded path.
func (d *TopKDetector) refresh() ([]Result, error) {
	if d.pipe == nil {
		d.cur = d.eng.BestK()
	} else if err := d.refreshFromChain(); err != nil {
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
	if d.closed {
		return nil, ErrClosed
	}
	d.catchUp()
	if err := d.feed(objs, d.chainFn); err != nil {
		return nil, err
	}
	return d.refresh()
}

// Replay is PushBatch for log recovery: the windows advance exactly as
// PushBatch advances them (same validation, same stop at an offending
// object), but the new objects are held back from the chain, which sees
// none of their New, Grown and Expired events. The next Push, PushBatch,
// AdvanceTo, BestK, Stats or Close first shows the chain every held-back
// object still live — New, then Grown if past Wc, or one Load into an empty
// chain — so an object that expires before anyone reads an answer costs no
// chain work. The answer is then that of a RestoreTopK of the same live
// set: the same scores, and the same regions except among equal scores.
// Now, Live and Checkpoint read the windows and need no catch-up. After
// Close it returns ErrClosed.
func (d *TopKDetector) Replay(objs []Object) error {
	if d.closed {
		return ErrClosed
	}
	return d.feed(objs, d.holdFn)
}

// hold is Replay's emit: it marks the first held-back object in lag and
// drops every event of a held-back object (IDs >= lag).
func (d *TopKDetector) hold(ev core.Event) {
	if ev.Kind == core.New && d.lag == 0 {
		d.lag = ev.Obj.ID
	}
	if d.lag == 0 || ev.Obj.ID < d.lag {
		d.chainFn(ev)
	}
}

// catchUp shows the chain the objects Replay held back that are still live,
// walking from lag: O(held-back objects), not O(live). A chain that holds no
// live object is built from them in one pass where it can (core.TopKLoader).
func (d *TopKDetector) catchUp() {
	if d.lag == 0 {
		return
	}
	held := 0
	d.win.Each(d.lag, func(core.Object, bool) { held++ })
	live := make([]core.LiveObject, 0, held)
	d.win.Each(d.lag, func(o core.Object, past bool) {
		live = append(live, core.LiveObject{Obj: o, Past: past})
	})
	d.lag = 0
	if len(live) == d.win.Live() {
		if l, ok := d.eng.(core.TopKLoader); ok {
			l.Load(live)
			return
		}
		if d.pipe != nil && d.chain.Load(live) {
			return
		}
	}
	for _, l := range live {
		d.chainFn(core.Event{Kind: core.New, Obj: l.Obj})
		if l.Past {
			d.chainFn(core.Event{Kind: core.Grown, Obj: l.Obj})
		}
	}
}

// AdvanceTo moves the stream clock to t without a new arrival and returns
// the refreshed top-k regions. The returned slice is reused by subsequent
// calls.
func (d *TopKDetector) AdvanceTo(t float64) ([]Result, error) {
	if d.closed {
		return nil, ErrClosed
	}
	d.catchUp()
	emit := d.stepFn
	if d.pipe != nil {
		emit = d.chainFn
	}
	if err := d.win.Advance(t, emit); err != nil {
		return nil, err
	}
	return d.refresh()
}

func (d *TopKDetector) step(ev core.Event) {
	d.eng.Process(ev)
	d.cur = d.eng.BestK()
}

// BestK returns the current top-k regions. On a sharded detector this runs
// the cross-shard greedy merge — a synchronisation point of the shard
// pipeline — unless no event arrived since the last query. After Close it
// keeps returning the answer captured then. The returned slice is reused by
// subsequent calls; copy it to retain.
func (d *TopKDetector) BestK() []Result {
	d.catchUp()
	if d.pipe != nil {
		if !d.closed {
			d.refreshFromChain() // on failure, serve the retained answer
		}
		return d.results()
	}
	d.cur = d.eng.BestK()
	return d.results()
}

// Now returns the current stream time.
func (d *TopKDetector) Now() float64 { return d.win.Now() }

// Live returns the number of objects currently inside the two windows.
func (d *TopKDetector) Live() int { return d.win.Live() }

// Stats returns instrumentation counters for engines that expose them. On a
// sharded detector the per-shard counters are summed (a synchronisation
// point; an event replicated into a halo is counted by each shard that
// received it). After Close the counters captured then are returned.
func (d *TopKDetector) Stats() Stats {
	d.catchUp()
	if d.pipe != nil {
		if d.closed {
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
