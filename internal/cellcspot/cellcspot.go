// Package cellcspot implements the paper's exact solution to the SURGE
// problem (Section IV): the Cell-CSPOT algorithm (CCS) together with its two
// ablation baselines used in the evaluation (Appendix J):
//
//   - ModeCCS: full Algorithm 2 — static upper bound (Definition 7), dynamic
//     upper bound (Eqn 3), candidate points with Lemma 4 validity, and lazy
//     best-first search of cells.
//   - ModeStatic (B-CCS): only the static upper bound; cached cell results
//     are invalidated by any event touching the cell.
//   - ModeBase (Base): no upper bounds — every cell overlapping an event's
//     rectangle is re-searched immediately.
//
// The plane is divided into grid cells of exactly the query-rectangle size
// (Definition 6), so every rectangle object overlaps at most four cells
// (Lemma 1). Each cell keeps the rectangle objects overlapping it and a
// candidate point; the engine keeps the cells in an indexed max-heap ordered
// by their burst-score upper bound U(c) = min(Us(c), Ud(c)).
//
// Invariant maintained by ModeCCS: whenever a cell's candidate is valid,
// Ud(c) equals the exact maximum burst score inside the cell, so the heap
// key of a valid cell is exact and the lazy search loop can stop as soon as
// the top cell is valid.
//
// The storage layout matches the packed representation of the top-k engine
// (internal/topk): the cell map is keyed by grid.Cell.Pack (uint64 keys hit
// the runtime's specialized map fast paths) and the heap stores its position
// index inside the cells (cellheap.Heap), so the per-event hot path hashes one
// word and never probes a map for heap maintenance. Exact-score ties at the top
// are resolved by core.CompareTopK — the one canonical selection order shared
// with the sharded barrier merge and the top-k chain — so the reported region
// is independent of heap order and shard partitioning.
package cellcspot

import (
	"fmt"
	"math"

	"surge/internal/cellheap"
	"surge/internal/core"
	"surge/internal/geom"
	"surge/internal/grid"
	"surge/internal/sweep"
)

// Mode selects the exact-engine variant.
type Mode uint8

const (
	// ModeCCS is the full Cell-CSPOT algorithm.
	ModeCCS Mode = iota
	// ModeStatic is the B-CCS baseline (static upper bound only).
	ModeStatic
	// ModeBase is the Base baseline (no upper bounds).
	ModeBase
	// ModeNoReuse is an ablation beyond the paper's baselines: both upper
	// bounds are maintained (Eqns 2-3) but the Lemma-4 candidate-point reuse
	// is disabled — any event touching a cell invalidates its candidate. It
	// isolates how much of CCS's win comes from candidate reuse versus bound
	// tightness.
	ModeNoReuse
)

// String names the mode as in the paper's experiment section.
func (m Mode) String() string {
	switch m {
	case ModeCCS:
		return "CCS"
	case ModeStatic:
		return "B-CCS"
	case ModeBase:
		return "Base"
	case ModeNoReuse:
		return "CCS-noreuse"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

type obj struct {
	id       uint64
	x, y, wt float64
	past     bool
	dead     bool
}

type candidate struct {
	valid  bool
	found  bool
	p      geom.Point
	fc, fp float64
}

// cell keeps its rectangle objects in arrival order (IDs are assigned by the
// window engine in stream order, and within a cell objects arrive and expire
// in ID order). The ordered storage makes every per-cell computation — the
// snapshot search's entry list, the bound recomputations and the canonical
// candidate rescores — a pure function of the cell's content, independent of
// map iteration order and of when searches happen to run. That determinism
// is what lets the sharded pipeline return bit-identical scores to a single
// engine.
type cell struct {
	key      grid.Cell
	objs     []obj   // arrival-ordered; expired entries are tombstoned
	dead     int     // tombstones in objs
	curCount int     // objects currently in Wc
	pos      int     // position in the engine heap; -1 when absent
	us       float64 // static upper bound (Definition 7)
	ud       float64 // dynamic upper bound (Eqn 3); +Inf before first search
	cand     candidate
}

// HeapPos implements cellheap.Positioned.
func (c *cell) HeapPos() *int { return &c.pos }

// live returns the number of live objects in the cell.
func (c *cell) live() int { return len(c.objs) - c.dead }

// lookup returns the position of the live object with the given ID. IDs are
// assigned in stream order and objs is arrival-ordered (compaction
// preserves it), so the slice is sorted by ID and a binary search replaces
// the ID index map a cell used to carry — no map write per New, no delete
// per expiry, and cells are cheap to create.
func (c *cell) lookup(id uint64) (int, bool) {
	lo, hi := 0, len(c.objs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.objs[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.objs) && c.objs[lo].id == id && !c.objs[lo].dead {
		return lo, true
	}
	return 0, false
}

// remove tombstones the object at position i and compacts the backing array
// once half of it is dead. Compaction preserves arrival order, so iteration
// yields the same sequence no matter when compactions ran.
func (c *cell) remove(i int) {
	c.objs[i].dead = true
	c.dead++
	if c.dead > 16 && c.dead*2 >= len(c.objs) {
		kept := c.objs[:0]
		for _, g := range c.objs {
			if !g.dead {
				kept = append(kept, g)
			}
		}
		c.objs = kept
		c.dead = 0
	}
}

// Engine is an exact SURGE detector. It is not safe for concurrent use.
type Engine struct {
	cfg   core.Config
	mode  Mode
	grid  grid.Grid
	cells map[uint64]*cell // keyed by grid.Cell.Pack (see the package comment)
	heap  cellheap.Heap[*cell]
	sr    sweep.Searcher
	stats core.Stats

	searchesAtEvent uint64 // search counter snapshot at the last Process
	pendingEvent    bool

	cellScratch  []grid.Cell
	entryScratch []sweep.Entry
	popScratch   []*cell
	free         []*cell // emptied cells kept for reuse (see recycle)
}

var _ core.Engine = (*Engine)(nil)

// New returns an exact engine in the given mode.
func New(cfg core.Config, mode Mode) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:   cfg,
		mode:  mode,
		grid:  grid.Aligned(cfg.Width, cfg.Height),
		cells: make(map[uint64]*cell),
	}, nil
}

// Mode returns the engine variant.
func (e *Engine) Mode() Mode { return e.mode }

// Stats returns the instrumentation counters.
func (e *Engine) Stats() core.Stats { return e.stats }

// Process applies one window-transition event (Algorithm 2, lines 1-3).
func (e *Engine) Process(ev core.Event) {
	if !e.cfg.InArea(ev.Obj) {
		return
	}
	o := ev.Obj
	// Sharded ownership is applied per cover cell (grid.CoverCellsOwned;
	// the grid is query-aligned, so cell column I is exactly
	// candidate-point column I).
	e.cellScratch = e.grid.CoverCellsOwned(e.cellScratch[:0], o.X, o.Y, e.cfg.Width, e.cfg.Height, e.cfg.Cols)
	if len(e.cellScratch) == 0 {
		return
	}
	e.accountEventBoundary()
	e.stats.Events++
	e.searchesAtEvent = e.stats.Searches
	e.pendingEvent = true

	cover := e.cfg.CoverRect(o.X, o.Y)
	for _, ck := range e.cellScratch {
		e.stats.CellsTouched++
		pk := ck.Pack()
		c := e.cells[pk]
		if c == nil {
			if ev.Kind != core.New {
				continue // object was filtered or unknown; nothing to undo
			}
			if n := len(e.free); n > 0 {
				c = e.free[n-1]
				e.free = e.free[:n-1]
				c.key = ck
			} else {
				c = &cell{key: ck, ud: math.Inf(1), pos: -1}
			}
			e.cells[pk] = c
		}
		e.applyEvent(c, ev, cover)
		if c.live() == 0 {
			delete(e.cells, pk)
			e.heap.Remove(c)
			e.recycle(c)
			continue
		}
		if e.mode == ModeBase {
			e.searchCell(c)
		}
		e.heap.Set(c, e.heapKey(c))
	}
	if e.mode == ModeBase {
		e.accountEventBoundary()
	}
}

// applyEvent updates a cell's object list, bounds and candidate for one
// event, implementing Eqn 2, Eqn 3 and Lemma 4.
//
// Candidate values are kept *canonical*: whenever the candidate is valid and
// found, cand.fc and cand.fp equal the arrival-order left folds of the
// covering objects' window contributions. A surviving New appends the last
// element of that fold (an O(1) update that preserves canonical form exactly,
// since the new object is last in arrival order); a surviving Expired removes
// an interior element, so the fold is recomputed by rescore. Canonical values
// are a pure function of (cell content, candidate face), which makes the
// reported scores independent of when searches ran — the property the sharded
// pipeline's bit-identical guarantee rests on.
func (e *Engine) applyEvent(c *cell, ev core.Event, cover geom.Rect) {
	id, w := ev.Obj.ID, ev.Obj.Weight
	dc := w / e.cfg.WC
	dp := w / e.cfg.WP
	switch ev.Kind {
	case core.New:
		c.objs = append(c.objs, obj{id: id, x: ev.Obj.X, y: ev.Obj.Y, wt: w})
		c.curCount++
		c.us += dc
		if e.mode == ModeBase {
			return
		}
		if !math.IsInf(c.ud, 1) {
			c.ud += dc
		}
		if e.mode != ModeCCS {
			c.cand.valid = false
			return
		}
		if c.cand.valid {
			switch {
			case !c.cand.found:
				c.cand.valid = false
			case cover.CoversOC(c.cand.p):
				keep := c.cand.fc >= c.cand.fp
				c.cand.fc += dc
				if !keep {
					c.cand.valid = false
				}
			default:
				c.cand.valid = false
			}
		}
	case core.Grown:
		i, ok := c.lookup(id)
		if !ok || c.objs[i].past {
			return
		}
		c.objs[i].past = true
		c.curCount--
		c.us -= dc
		if c.curCount == 0 {
			c.us = 0 // kill float drift once the current window empties
		}
		if e.mode == ModeBase {
			return
		}
		if e.mode != ModeCCS {
			c.cand.valid = false
			return
		}
		// Dynamic bound is unchanged (Eqn 3, grown case). The candidate
		// survives iff the rectangle does not cover it (Lemma 4, case 2).
		if c.cand.valid && c.cand.found && cover.CoversOC(c.cand.p) {
			c.cand.valid = false
		}
	case core.Expired:
		i, ok := c.lookup(id)
		if !ok {
			return
		}
		if !c.objs[i].past { // object expired without a Grown event (defensive)
			c.curCount--
			c.us -= dc
			if c.curCount == 0 {
				c.us = 0
			}
		}
		c.remove(i)
		if e.mode == ModeBase {
			return
		}
		if !math.IsInf(c.ud, 1) {
			c.ud += e.cfg.Alpha * dp
		}
		if e.mode != ModeCCS {
			c.cand.valid = false
			return
		}
		if c.cand.valid && c.cand.found {
			switch {
			case cover.CoversOC(c.cand.p):
				keep := c.cand.fc >= c.cand.fp
				if keep {
					e.rescore(c)
				} else {
					c.cand.valid = false
				}
			default:
				c.cand.valid = false
			}
		}
		// A valid not-found candidate stays valid: every point in the cell
		// has fc == 0 and removing past weight keeps all scores at zero.
	}
	if e.mode == ModeCCS && c.cand.valid {
		// Valid candidate => Ud equals the exact in-cell maximum.
		c.ud = e.candScore(c)
	}
}

// recycle resets an emptied cell to the state of a fresh one and keeps it
// for reuse, so cell churn under a moving stream stops allocating: the objs
// backing array keeps its capacity. The reset state is byte-for-byte a new
// cell's, which keeps reuse invisible to the bit-identical score
// guarantees.
func (e *Engine) recycle(c *cell) {
	c.objs = c.objs[:0]
	c.dead = 0
	c.curCount = 0
	c.pos = -1
	c.us = 0
	c.ud = math.Inf(1)
	c.cand = candidate{}
	e.free = append(e.free, c)
}

// rescore recomputes the candidate's window scores at its point as the
// canonical arrival-order fold over the cell's live objects.
func (e *Engine) rescore(c *cell) {
	var fc, fp float64
	p := c.cand.p
	for i := range c.objs {
		g := &c.objs[i]
		if g.dead || !e.cfg.CoverRect(g.x, g.y).CoversOC(p) {
			continue
		}
		if g.past {
			fp += g.wt / e.cfg.WP
		} else {
			fc += g.wt / e.cfg.WC
		}
	}
	c.cand.fc, c.cand.fp = fc, fp
}

func (c *cell) bound() float64 {
	if c.us < c.ud {
		return c.us
	}
	return c.ud
}

// heapKey returns the cell's heap priority: its exact candidate score in
// ModeBase (no bounds are maintained there), the upper bound otherwise.
func (e *Engine) heapKey(c *cell) float64 {
	if e.mode == ModeBase {
		return e.candScore(c)
	}
	return c.bound()
}

// candScore returns the burst score of the cell's candidate (0 when the last
// search found no positive-score point).
func (e *Engine) candScore(c *cell) float64 {
	if !c.cand.found {
		return 0
	}
	return e.cfg.Score(c.cand.fc, c.cand.fp)
}

// searchCell runs SL-CSPOT restricted to the cell (Algorithm 2, line 6) and
// refreshes the candidate, the dynamic bound and, to kill float drift, the
// static bound. The entry list is built in arrival order and the found
// candidate is rescored canonically, so the refreshed state is a pure
// function of the cell's content (see applyEvent).
func (e *Engine) searchCell(c *cell) {
	e.entryScratch = e.entryScratch[:0]
	us := 0.0
	cur := 0
	for i := range c.objs {
		g := &c.objs[i]
		if g.dead {
			continue
		}
		e.entryScratch = append(e.entryScratch, sweep.Entry{X: g.x, Y: g.y, Weight: g.wt, Past: g.past})
		if !g.past {
			us += g.wt / e.cfg.WC
			cur++
		}
	}
	c.us = us
	c.curCount = cur
	res := e.sr.Search(e.cfg, e.entryScratch, e.grid.CellRect(c.key))
	e.stats.Searches++
	e.stats.SweepEntries += uint64(len(e.entryScratch))
	c.cand = candidate{valid: true, found: res.Found, p: res.Point}
	if res.Found {
		e.rescore(c)
	}
	if e.mode != ModeStatic {
		c.ud = e.candScore(c)
	}
}

// Best reports the current bursty region (Algorithm 2, lines 4-9).
func (e *Engine) Best() core.Result {
	defer e.accountEventBoundary()
	switch e.mode {
	case ModeBase:
		return e.bestBase()
	case ModeStatic:
		return e.bestStatic()
	default:
		return e.bestCCS()
	}
}

func (e *Engine) bestCCS() core.Result {
	for {
		c, u, ok := e.heap.Max()
		if !ok {
			return core.Result{}
		}
		if !c.cand.valid {
			e.searchCell(c)
			e.heap.Set(c, c.bound())
			continue
		}
		best := e.resultOf(c)
		if !best.Found {
			return best
		}
		if e.heap.SecondPrio() != u {
			return best
		}
		return e.canonicalTieBest(c, u, best)
	}
}

// canonicalTieBest resolves an exact-score tie at the top of the heap by
// core.CompareTopK — the canonical selection order shared with the sharded
// barrier merge and the top-k chain — so the reported region does not depend
// on heap order or on how cells are partitioned across shards. It pops the
// winning cell and every further cell whose key bitwise-equals the winning
// key, keeps the CompareTopK-least result, and reinstates the popped cells.
// Only bitwise float ties (in practice, identically loaded cells) enter this
// path, so its extra heap work is negligible.
func (e *Engine) canonicalTieBest(top *cell, u float64, best core.Result) core.Result {
	e.popScratch = e.popScratch[:0]
	e.heap.Remove(top)
	e.popScratch = append(e.popScratch, top)
	for {
		c, cu, ok := e.heap.Max()
		if !ok || cu != u {
			break
		}
		if e.mode != ModeBase && !c.cand.valid {
			e.searchCell(c)
			e.heap.Set(c, c.bound())
			continue
		}
		if r := e.resultOf(c); r.Found && core.CompareTopK(r, best) < 0 {
			best = r
		}
		e.heap.Remove(c)
		e.popScratch = append(e.popScratch, c)
	}
	for _, c := range e.popScratch {
		e.heap.Set(c, e.heapKey(c))
	}
	return best
}

func (e *Engine) bestStatic() core.Result {
	var best core.Result
	e.popScratch = e.popScratch[:0]
	for e.heap.Len() > 0 {
		c, u, _ := e.heap.Max()
		// Cells whose bound bitwise-equals the best score so far are still
		// examined: they may hold an equal-score region that the canonical
		// tie-break (core.CompareTopK) must prefer.
		if u < best.Score || u <= 0 {
			break
		}
		if !c.cand.valid {
			e.searchCell(c)
		}
		if c.cand.found {
			if r := e.resultOf(c); r.Found && (!best.Found || core.CompareTopK(r, best) < 0) {
				best = r
			}
		}
		e.heap.PopMax()
		e.popScratch = append(e.popScratch, c)
	}
	// Reinstate the popped cells with their (unchanged) static bounds.
	for _, c := range e.popScratch {
		e.heap.Set(c, c.us)
	}
	return best
}

func (e *Engine) bestBase() core.Result {
	c, sc, ok := e.heap.Max()
	if !ok || sc <= 0 {
		return core.Result{}
	}
	if !c.cand.found {
		return core.Result{}
	}
	best := e.resultOf(c)
	if best.Found && e.heap.SecondPrio() == sc {
		return e.canonicalTieBest(c, sc, best)
	}
	return best
}

func (e *Engine) resultOf(c *cell) core.Result {
	if !c.cand.found {
		return core.Result{}
	}
	sc := e.candScore(c)
	if sc <= 0 {
		return core.Result{}
	}
	return core.Result{
		Point:  c.cand.p,
		Region: e.cfg.RegionAt(c.cand.p),
		Score:  sc,
		FC:     c.cand.fc,
		FP:     c.cand.fp,
		Found:  true,
	}
}

// accountEventBoundary finalises the per-event "triggered a search" counter
// (Table II) once the searches attributable to the last event are known.
func (e *Engine) accountEventBoundary() {
	if e.pendingEvent && e.stats.Searches > e.searchesAtEvent {
		e.stats.SearchEvents++
	}
	e.pendingEvent = false
}

// CellCount returns the number of live (non-empty) grid cells.
func (e *Engine) CellCount() int { return len(e.cells) }

// LiveObjects returns the number of object copies held across all cells
// (each live object is stored in at most four cells, Lemma 1).
func (e *Engine) LiveObjects() int {
	n := 0
	for _, c := range e.cells {
		n += c.live()
	}
	return n
}
