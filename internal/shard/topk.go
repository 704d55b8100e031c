// Cross-shard top-k: the greedy chain of Section VI run globally over the
// per-shard engines.
//
// Each shard worker of a top-k pipeline (NewTopK) maintains a top-k engine
// (core.TopKShard) over its owned column blocks plus the one-query-width
// halo, fed by the same routed event stream a single-region pipeline's
// engines see. A chain query runs the greedy chain at the coordinator: for
// every rank it collects each shard's best owned candidate for the current
// problem, selects the global winner (maximum score, ties to the lowest
// shard index), and commits it back with ApplyRank so the winner's covered
// objects become invisible to the higher-ranked problems — on every shard
// that can hold a copy of such an object, owner or halo. Only those few
// shards then re-solve the next problem; every other shard's cached answer
// provably still stands (see Query).
//
// Because the engines keep their per-cell state canonical (arrival-ordered
// storage, canonically rescored candidates) and a shard's owned cells hold
// exactly the objects a single engine's would, the merged chain reports
// bitwise the same kCCS scores as the single-engine chain; the grid chains
// (kGAPS/kMGAPS) report the same regions with canonical fold scores.
package shard

import (
	"errors"
	"math"
	"time"

	"surge/internal/core"
	"surge/internal/obs"
)

// TopKFactory builds the top-k engine for one shard. The passed config
// carries the shard's ColumnSet ownership filter; the factory must hand it
// through to the engine unchanged.
type TopKFactory func(cfg core.Config) (core.TopKShard, error)

// Op kinds of the worker-side top-k protocol (batch.op).
const (
	tkSolve uint8 = iota // answer ProblemBest(op.i) on op.resc
	tkApply              // ApplyRank(op.i, op.old, op.sel), no reply
	tkLoad               // Load(op.live), no reply
)

// tkOp is one top-k chain operation shipped to a worker inside a batch.
// Operations and event batches share the per-worker channel, so they are
// applied in exactly the order the coordinator issued them.
type tkOp struct {
	kind     uint8
	i        int // rank / problem index, 1-based
	old, sel core.Result
	resc     chan<- tkReply    // tkSolve
	live     []core.LiveObject // tkLoad: shared by every shard, read-only
}

type tkReply struct {
	idx   int
	res   core.Result
	stats core.Stats
}

// TopKChain is the coordinator of the cross-shard top-k chain of a top-k
// pipeline. It shares the pipeline's single-caller contract: one goroutine
// routes events and queries, the parallelism lives in the workers.
type TopKChain struct {
	p *Pipeline
	k int

	top   []core.Result // committed global answers, by rank
	ans   []core.Result // per-shard current problem contribution
	stats []core.Stats  // per-shard engine stats from each shard's last solve
	out   []core.Result // last resolved answer, reused across queries
	sum   core.Stats

	// Steady-state caches: per-(shard, problem) solved answers and
	// per-(shard, rank) committed selections, each stamped by a chain-local
	// monotone counter so validity checks can order solves against commits
	// (see pValid and applyIsNoop). In the steady state — answers stable,
	// events confined to a few shards — a query touches only the shards
	// whose problem-1 answer can have changed and re-commits nothing.
	ansP      [][]core.Result // [shard][problem-1] last solved answer
	ansOK     [][]bool
	ansSeq    [][]uint64      // pipeline shardSeq at the solve
	ansStamp  [][]uint64      // stamp at the solve
	rankSel   [][]core.Result // [shard][rank-1] last committed selection
	rankOK    [][]bool
	rankSeq   [][]uint64 // pipeline shardSeq at the commit
	rankStamp [][]uint64 // stamp of the commit
	stamp     uint64

	replyc  chan tkReply
	aff     []int  // affected-shard scratch
	solves  []int  // rank-stage solve scratch
	seenSeq uint64 // routeSeq at the last resolve
	valid   bool   // out/sum hold a resolved answer

	// Telemetry (process-wide obs.Default). The fast path — cached answer,
	// no events since — records nothing: only actual resolves are priced.
	mResolve   *obs.Histogram // full resolve duration
	mSolveWait *obs.Histogram // time blocked on shard solve replies
	mShards    *obs.Histogram // solve ops issued per resolve
	mCommits   *obs.Counter   // ApplyRank commits shipped
}

// NewTopK builds a top-k pipeline: every shard worker runs one top-k
// engine of size k, built by the factory with the shard's ownership config
// (there are no single-region engines, so Pipeline.Query is unavailable),
// and the returned chain answers the global top-k via Query. The Params
// argument is ignored. Closing the pipeline stops the workers.
func NewTopK(cfg core.Config, shards, blockCols int, _ Params, k int, factory TopKFactory) (*Pipeline, *TopKChain, error) {
	if k < 1 {
		return nil, nil, errors.New("shard: top-k chain needs k >= 1")
	}
	p, err := newPipeline(cfg, shards, blockCols, func(w *worker, scfg core.Config) (err error) {
		w.tk, err = factory(scfg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	n := len(p.workers)
	c := &TopKChain{
		p:         p,
		k:         k,
		top:       make([]core.Result, k),
		ans:       make([]core.Result, n),
		stats:     make([]core.Stats, n),
		out:       make([]core.Result, 0, k),
		ansP:      make([][]core.Result, n),
		ansOK:     make([][]bool, n),
		ansSeq:    make([][]uint64, n),
		ansStamp:  make([][]uint64, n),
		rankSel:   make([][]core.Result, n),
		rankOK:    make([][]bool, n),
		rankSeq:   make([][]uint64, n),
		rankStamp: make([][]uint64, n),
		replyc:    make(chan tkReply, n),

		mResolve:   obs.Default.Duration(obs.MTopKResolve, "Cross-shard top-k chain resolve duration (cache misses only)."),
		mSolveWait: obs.Default.Duration(obs.MTopKSolveWait, "Time the top-k coordinator spent blocked on shard solve replies."),
		mShards:    obs.Default.Values(obs.MTopKShards, "Shard solve operations issued per top-k resolve."),
		mCommits:   obs.Default.Counter(obs.MTopKCommits, "Top-k rank commits (ApplyRank) shipped to shard workers."),
	}
	for s := 0; s < n; s++ {
		c.ansP[s] = make([]core.Result, k)
		c.ansOK[s] = make([]bool, k)
		c.ansSeq[s] = make([]uint64, k)
		c.ansStamp[s] = make([]uint64, k)
		c.rankSel[s] = make([]core.Result, k)
		c.rankOK[s] = make([]bool, k)
		c.rankSeq[s] = make([]uint64, k)
		c.rankStamp[s] = make([]uint64, k)
	}
	return p, c, nil
}

// K returns the chain's k.
func (c *TopKChain) K() int { return c.k }

// Load has every shard's engine build its state from the shared live set
// (core.TopKLoader) through its own ownership filter, and reports false if
// they cannot (one factory built them all). live must not change until the
// next Query returns. Load must not be called after Close.
func (c *TopKChain) Load(live []core.LiveObject) bool {
	p := c.p
	if _, ok := p.workers[0].tk.(core.TopKLoader); !ok {
		return false
	}
	for i, w := range p.workers {
		if n := len(p.pending[i]); n > 0 {
			p.noteShip(i, n)
		}
		w.ch <- batch{evs: p.pending[i], op: &tkOp{kind: tkLoad, live: live}}
		p.pending[i] = nil
		p.shardSeq[i]++
	}
	p.routeSeq++
	return true
}

// pValid reports whether shard s's cached answer for problem prob (1-based)
// is still exact: the shard saw no event since the solve, and no commit at a
// rank below the problem landed on the shard after it. Only those commits
// can change what the problem sees — a demotion to rank r < prob hides an
// object from problem prob and a promotion at rank r < prob re-exposes one,
// while commits at ranks >= prob move levels only within the problem's
// visible range.
func (c *TopKChain) pValid(s, prob int) bool {
	if !c.ansOK[s][prob-1] || c.ansSeq[s][prob-1] != c.p.shardSeq[s] {
		return false
	}
	for r := 1; r < prob; r++ {
		if c.rankOK[s][r-1] && c.rankStamp[s][r-1] > c.ansStamp[s][prob-1] {
			return false
		}
	}
	return true
}

// applyIsNoop reports whether re-committing sel at rank i to shard s is a
// provable no-op, so the commit can be skipped. A re-commit with old == sel
// reduces to "demote every object covering sel's point with level > i to i"
// (the promotion pass touches nothing: all level-i covering objects are in
// the new selection's id set). Right after the shard last applied this very
// commit, no covering object sat above level i. Since then, a covering
// object can only have risen above i through a new arrival (guarded by
// shardSeq) or a promotion — and promotions happen only at commits whose
// selection changed, which re-stamp their rank — at a rank r <= i, guarded
// by comparing the other ranks' commit stamps against ours (a changed
// commit at rank i itself re-stamped rankSel, failing the equality).
func (c *TopKChain) applyIsNoop(s, i int, old, sel core.Result) bool {
	if old != sel || !c.rankOK[s][i-1] || c.rankSel[s][i-1] != sel || c.rankSeq[s][i-1] != c.p.shardSeq[s] {
		return false
	}
	for r := 1; r < i; r++ {
		if c.rankOK[s][r-1] && c.rankStamp[s][r-1] > c.rankStamp[s][i-1] {
			return false
		}
	}
	return true
}

// recordSolve caches one shard's solved problem answer.
func (c *TopKChain) recordSolve(r tkReply, prob int) {
	c.ans[r.idx] = r.res
	c.stats[r.idx] = r.stats
	c.ansP[r.idx][prob-1] = r.res
	c.ansOK[r.idx][prob-1] = true
	c.ansSeq[r.idx][prob-1] = c.p.shardSeq[r.idx]
	c.ansStamp[r.idx][prob-1] = c.stamp
}

// Query runs the cross-shard greedy chain and returns the global top-k
// regions in rank order (slots beyond the non-empty regions have Found ==
// false) together with the summed engine statistics. The returned slice is
// reused by subsequent calls.
//
// The resolve asks every shard for its problem-1 answer behind a barrier
// that flushes the routed events, then walks the ranks: select the global
// winner, commit it with ApplyRank on the shards whose blocks the winner's
// (and the previously committed answer's) coverage can reach, and re-solve
// the next problem on exactly those shards. An untouched shard's current
// contribution remains exact: had it held any object at a level <= the
// current rank, that object would cover a committed point and the shard
// would have been in the affected set — so its problems i and i+1 see
// identical content and one answer serves both.
//
// Repeat work is skipped through the per-(shard, problem) answer cache and
// the per-(shard, rank) commit record: a commit whose selection a shard
// already holds (applyIsNoop) is not re-sent, and a problem whose cached
// answer is untouched by events and later commits (pValid) is not re-solved.
// When no event at all arrived since the last resolve the whole answer is
// returned without touching the workers; in the steady state — stable
// answers, events confined to a few shards — a query costs one solve per
// event-receiving shard and nothing else.
func (c *TopKChain) Query() ([]core.Result, core.Stats, error) {
	p := c.p
	if p.closed {
		return nil, core.Stats{}, errors.New("shard: top-k chain is closed")
	}
	if err := p.err(); err != nil {
		return nil, core.Stats{}, err
	}
	if c.valid && c.seenSeq == p.routeSeq {
		return c.out, c.sum, nil
	}
	t0 := time.Now()
	var solveWait time.Duration
	solveOps := 0
	// Re-solve problem 1 only where it can have changed: commits never alter
	// what problem 1 sees, so a shard's cached problem-1 answer stands until
	// an event reaches the shard.
	need := 0
	for i, w := range p.workers {
		if c.pValid(i, 1) {
			c.ans[i] = c.ansP[i][0]
			continue
		}
		if n := len(p.pending[i]); n > 0 {
			p.noteShip(i, n)
		}
		w.ch <- batch{evs: p.pending[i], op: &tkOp{kind: tkSolve, i: 1, resc: c.replyc}}
		p.pending[i] = nil
		need++
	}
	solveOps += need
	if need > 0 {
		w0 := time.Now()
		for ; need > 0; need-- {
			c.recordSolve(<-c.replyc, 1)
		}
		solveWait += time.Since(w0)
	}
	for i := 1; i <= c.k; i++ {
		var sel core.Result
		for _, r := range c.ans {
			if core.CompareTopK(r, sel) < 0 {
				sel = r
			}
		}
		old := c.top[i-1]
		c.top[i-1] = sel
		if i == c.k {
			// Committing the last rank is a provable no-op for every engine
			// family: levels are capped at k (demotion to k of an lvl-k
			// object and promotion of an lvl-k object both no-op) and a
			// geometric mask for rank k is never read by problems <= k.
			break
		}
		c.aff = p.affectedShards(c.aff[:0], old, sel)
		c.solves = c.solves[:0]
		for _, s := range c.aff {
			if !c.applyIsNoop(s, i, old, sel) {
				p.workers[s].ch <- batch{op: &tkOp{kind: tkApply, i: i, old: old, sel: sel}}
				c.mCommits.Inc()
				c.stamp++
				c.rankSel[s][i-1] = sel
				c.rankOK[s][i-1] = true
				c.rankSeq[s][i-1] = p.shardSeq[s]
				c.rankStamp[s][i-1] = c.stamp
			}
			// A commit just sent stamped rank i above the cached answer's
			// solve, so pValid fails and the shard re-solves; a skipped
			// commit leaves a still-valid cache servable as-is.
			if c.pValid(s, i+1) {
				c.ans[s] = c.ansP[s][i]
				continue
			}
			c.solves = append(c.solves, s)
		}
		for _, s := range c.solves {
			p.workers[s].ch <- batch{op: &tkOp{kind: tkSolve, i: i + 1, resc: c.replyc}}
		}
		solveOps += len(c.solves)
		if len(c.solves) > 0 {
			w0 := time.Now()
			for range c.solves {
				c.recordSolve(<-c.replyc, i+1)
			}
			solveWait += time.Since(w0)
		}
	}
	// Solve replies arrive after a panicking worker records its failure, so
	// a crash during this resolve is visible here; the zombie zero answers
	// polluting the caches are unreachable (every later Query errors too).
	if err := p.err(); err != nil {
		return nil, core.Stats{}, err
	}
	c.mResolve.Observe(time.Since(t0))
	c.mSolveWait.Observe(solveWait)
	c.mShards.Record(uint64(solveOps))
	c.out = append(c.out[:0], c.top...)
	var st core.Stats
	for _, s := range c.stats {
		st.Events += s.Events
		st.Searches += s.Searches
		st.SearchEvents += s.SearchEvents
		st.SweepEntries += s.SweepEntries
		st.CellsTouched += s.CellsTouched
	}
	c.sum = st
	c.seenSeq = p.routeSeq
	c.valid = true
	return c.out, c.sum, nil
}

// affectedShards appends the distinct shards that can hold a copy of an
// object covering either result's bursty point. An object covering p lies at
// x in [p.X-Width, p.X), and the router replicates it to the owners of
// columns floor(x/Width)..floor((x+Width)/Width); by the monotonicity of
// float division both bounds are bracketed by the same expressions evaluated
// at the interval's endpoints, so the owners of columns
// floor((p.X-Width)/Width)..floor((p.X+Width)/Width) are a (tight,
// conservative) superset. Shards outside the set provably hold no copy and
// their chain state is untouched by the commit.
func (p *Pipeline) affectedShards(dst []int, rs ...core.Result) []int {
	for _, r := range rs {
		if !r.Found {
			continue
		}
		lo := int(math.Floor((r.Point.X - p.cfg.Width) / p.cfg.Width))
		hi := int(math.Floor((r.Point.X + p.cfg.Width) / p.cfg.Width))
		for m := lo; m <= hi; m++ {
			s := p.cs.ShardOf(m)
			dup := false
			for _, d := range dst {
				if d == s {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, s)
			}
		}
	}
	return dst
}
