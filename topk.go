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
// AdvanceTo — or shares them with other chains (NewTopKOn) and is fed with
// Feed and Consume. Its first problem is the unconstrained one, so rank 1 is
// the bursty region. It is not safe for concurrent use.
type TopKDetector struct {
	alg     Algorithm
	k       int
	cfg     core.Config
	st      *stream          // the windows, shared by every chain built on them
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
	// (IDs >= lag); catchUp shows the chain those still live. Each chain on
	// shared windows holds back on its own. dark marks a lagging chain all
	// of whose shown objects (IDs < lag) have expired: no event concerns it
	// until it catches up.
	lag  uint64
	dark bool

	// Emit callbacks captured once; binding a method value per Push would
	// put a closure allocation on the per-object hot path.
	stepFn  func(core.Event)
	chainFn func(core.Event) // the engine's Process, or the pipeline's Route
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
	return newTopK(alg, opt, k, nil)
}

// NewTopKOn returns a top-k chain on base's sliding windows: one stream
// that every chain built on it consumes. opt must agree with base on
// Window, PastWindow and CountWindows; the query size, alpha, area, shard
// layout, algorithm and k are the chain's own. The new chain starts with
// the windows' live objects (it catches up on them at its first read).
//
// Chains on shared windows are fed through Feed — once per batch, on any
// of them — and every chain then shows the returned events to its engine
// with Consume; Push, PushBatch, AdvanceTo and Replay would advance the
// windows for one chain alone and return an error instead. Now, Live and
// Checkpoint read the shared windows, so each chain answers, and
// checkpoints, exactly as a standalone detector fed the same objects.
// Closing a chain leaves the windows to the others. NewTopKOn must not run
// concurrently with a method of a chain on base's windows.
func NewTopKOn(base *TopKDetector, alg Algorithm, opt Options, k int) (*TopKDetector, error) {
	d, err := newTopK(alg, opt, k, base)
	if err != nil {
		return nil, err
	}
	d.st.shared = true
	if d.st.win.Live() > 0 {
		d.lag, d.dark = 1, true // hold every live object back until the first read
	}
	return d, nil
}

// stream is the sliding windows one or more chains consume, with the event
// buffer Feed fills.
type stream struct {
	win    window.Source
	evs    []core.Event // the last feed's transitions, reused
	emit   func(core.Event)
	shared bool // set once by NewTopKOn: only Feed and Consume may feed
}

func newStream(win window.Source) *stream {
	st := &stream{win: win}
	st.emit = func(ev core.Event) {
		n := len(st.evs)
		if n == cap(st.evs) {
			st.evs = append(st.evs, ev)
			return
		}
		// Field by field: ev is spilled to the stack on entry, and a
		// whole-struct copy reloads it with wider loads than the spilling
		// stores, which defeats store-to-load forwarding — a stall per
		// event that took a quarter of a WAL recovery's CPU profile.
		st.evs = st.evs[:n+1]
		e := &st.evs[n]
		e.Kind = ev.Kind
		e.Obj.ID, e.Obj.X, e.Obj.Y, e.Obj.Weight, e.Obj.T = ev.Obj.ID, ev.Obj.X, ev.Obj.Y, ev.Obj.Weight, ev.Obj.T
	}
	return st
}

// feed pushes objs into the windows and returns their transitions; on an
// error, those of the objects before the offending one.
func (st *stream) feed(objs []Object) ([]core.Event, error) {
	st.evs = st.evs[:0]
	for _, o := range objs {
		if _, err := st.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, st.emit); err != nil {
			return st.evs, err
		}
	}
	return st.evs, nil
}

// advance moves the windows' clock to t and returns the transitions.
func (st *stream) advance(t float64) ([]core.Event, error) {
	st.evs = st.evs[:0]
	err := st.win.Advance(t, st.emit)
	return st.evs, err
}

// errSharedWindows refuses the methods that feed one chain's windows alone.
var errSharedWindows = errors.New("surge: the windows are shared with other chains; feed them with Feed and Consume")

// newTopK builds a chain on base's windows, or on windows of its own when
// base is nil.
func newTopK(alg Algorithm, opt Options, k int, base *TopKDetector) (*TopKDetector, error) {
	if k < 1 {
		return nil, fmt.Errorf("surge: k must be >= 1, got %d", k)
	}
	cfg, err := opt.config()
	if err != nil {
		return nil, err
	}
	var st *stream
	if base != nil {
		if cfg.WC != base.cfg.WC || cfg.WP != base.cfg.WP || opt.CountWindows != base.counted {
			return nil, fmt.Errorf("surge: windows %v/%v (count %t) differ from the shared %v/%v (count %t)",
				cfg.WC, cfg.WP, opt.CountWindows, base.cfg.WC, base.cfg.WP, base.counted)
		}
		st = base.st
	} else {
		win, err := newSource(opt, cfg)
		if err != nil {
			return nil, err
		}
		st = newStream(win)
	}
	d := &TopKDetector{
		alg: alg, k: k, cfg: cfg, st: st,
		counted: opt.CountWindows,
		shards:  opt.Shards,
		blkCols: opt.ShardBlockCols,
	}
	d.stepFn = d.step
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
// Push, PushBatch, AdvanceTo, Replay, Feed and Consume return ErrClosed
// while the query methods (BestK, Stats, Now, Live, Checkpoint) keep
// answering from the captured state. A chain on shared windows does not
// read them at Close: it answers as of its last read, and the windows go on
// for the other chains. Close is idempotent.
func (d *TopKDetector) Close() error {
	if d.closed {
		return nil
	}
	if !d.st.shared {
		d.catchUp()
	}
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

// own returns the error of a method that feeds the windows for this chain
// alone: ErrClosed after Close, and an error on windows shared with other
// chains.
func (d *TopKDetector) own() error {
	if d.closed {
		return ErrClosed
	}
	if d.st.shared {
		return errSharedWindows
	}
	return nil
}

// Push feeds one object into the stream, processes every window transition
// it makes due, and returns the refreshed top-k regions in rank order.
// Slots beyond the number of non-empty regions have Found == false. The
// returned slice is reused by subsequent calls; copy it to retain. After
// Close it returns ErrClosed.
func (d *TopKDetector) Push(o Object) ([]Result, error) {
	if err := d.own(); err != nil {
		return nil, err
	}
	if d.pipe != nil {
		return d.PushBatch([]Object{o})
	}
	d.catchUp()
	if _, err := d.st.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, d.stepFn); err != nil {
		return nil, err
	}
	return d.results(), nil
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
	if err := d.own(); err != nil {
		return nil, err
	}
	d.catchUp()
	evs, err := d.st.feed(objs)
	d.consume(evs, false)
	if err != nil {
		return nil, err
	}
	return d.refresh()
}

// Feed pushes a time-ordered batch of objects into the chain's windows —
// shared with every chain built on them by NewTopKOn — and returns the
// window transitions it made due, in order. Every chain on the windows
// must Consume them before the next Feed. The events are read-only and
// valid until the next Feed; chains may consume them concurrently, each on
// its own goroutine. On error the windows include every object before the
// offending one, and the events are theirs. After Close it returns
// ErrClosed.
func (d *TopKDetector) Feed(objs []Object) ([]core.Event, error) {
	if d.closed {
		return nil, ErrClosed
	}
	return d.st.feed(objs)
}

// Consume shows the chain the events of one Feed on its windows and returns
// the refreshed top-k regions, as PushBatch does. With replay set it is
// Replay's counterpart: the chain holds the new objects back and nothing is
// read (the result is nil). A chain that holds objects back keeps dropping
// their events and shows itself those still live after the batch, at the
// first Consume without replay, or at BestK, Stats or Close. The returned
// slice is reused by subsequent calls. After Close it returns ErrClosed.
func (d *TopKDetector) Consume(evs []core.Event, replay bool) ([]Result, error) {
	if d.closed {
		return nil, ErrClosed
	}
	d.consume(evs, replay)
	if replay {
		return nil, nil
	}
	d.catchUp()
	return d.refresh()
}

// consume shows the chain evs. With hold set it marks the first new object
// in lag, and while the chain lags it drops every event of a held-back
// object (IDs >= lag). Expired events come in ID order, so once object
// lag-1 expires — or from the start, when lag is the first ID — no later
// event concerns the chain until it catches up.
func (d *TopKDetector) consume(evs []core.Event, hold bool) {
	if !hold && d.lag == 0 {
		for _, ev := range evs {
			d.chainFn(ev)
		}
		return
	}
	if d.dark {
		return
	}
	for i := range evs {
		ev := &evs[i]
		if ev.Kind == core.New && d.lag == 0 {
			d.lag = ev.Obj.ID
			if d.dark = d.lag == 1; d.dark {
				return
			}
		}
		if d.lag == 0 || ev.Obj.ID < d.lag {
			d.chainFn(*ev)
			if ev.Kind == core.Expired && ev.Obj.ID == d.lag-1 {
				d.dark = true
				return
			}
		}
	}
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
	if err := d.own(); err != nil {
		return err
	}
	evs, err := d.st.feed(objs)
	d.consume(evs, true)
	return err
}

// catchUp shows the chain the objects Replay held back that are still live,
// walking from lag: O(held-back objects), not O(live). A chain that holds no
// live object is built from them in one pass where it can (core.TopKLoader).
// After Close it does nothing.
func (d *TopKDetector) catchUp() {
	if d.lag == 0 || d.closed {
		return
	}
	win := d.st.win
	held := 0
	win.Each(d.lag, func(core.Object, bool) { held++ })
	live := make([]core.LiveObject, 0, held)
	win.Each(d.lag, func(o core.Object, past bool) {
		live = append(live, core.LiveObject{Obj: o, Past: past})
	})
	d.lag, d.dark = 0, false
	if len(live) == win.Live() {
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
	if err := d.own(); err != nil {
		return nil, err
	}
	d.catchUp()
	evs, err := d.st.advance(t)
	if err != nil {
		return nil, err
	}
	d.consume(evs, false)
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
func (d *TopKDetector) Now() float64 { return d.st.win.Now() }

// Live returns the number of objects currently inside the two windows.
func (d *TopKDetector) Live() int { return d.st.win.Live() }

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
