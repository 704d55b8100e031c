// Package gapsurge implements the paper's approximate solutions:
//
//   - GAP-SURGE (Algorithm 3): a grid of query-sized cells; every cell is a
//     candidate region whose burst score is maintained incrementally under
//     window-transition events, with the cells kept in an indexed max-heap.
//     Processing an event costs O(log n) — one packed-key (grid.Cell.Pack)
//     map probe and one sift of a heap whose positions live in the cells —
//     and the returned region's burst score is at least (1-alpha)/4 of the
//     optimum (Theorem 3).
//   - MGAP-SURGE (Algorithm 5): runs GAP-SURGE on the four half-cell-shifted
//     grids of Section V-B and reports the best of the four candidates. The
//     worst-case ratio is unchanged (Theorem 4) but the practical quality is
//     substantially better (Tables III/IV).
//   - Their top-k extensions (Algorithms 6 and 7): top-k cells of the single
//     grid, or the top-k non-overlapping cells among the top-4k cells of each
//     of the four grids.
//
// # Event order
//
// A cell keeps its live objects' weights in arrival order and relies on the
// order of the events instead of looking objects up by ID: every object's
// events arrive New, then Grown, then Expired, and within a cell each kind
// arrives in ID order. Both window.Source implementations emit that way
// (their queues are FIFOs), and so do a top-k detector catching its chain
// up (held-back objects get New, then Grown if past, in ID order) and the
// shard router (it forwards each event, in stream order, to the shards its
// object reaches). Events out of that order corrupt the cells.
package gapsurge

import (
	"slices"

	"surge/internal/cellheap"
	"surge/internal/core"
	"surge/internal/geom"
	"surge/internal/grid"
)

// gcell is one grid cell: its live objects' weights in arrival order, with
// objs[head:grown] the past ones (in Wp) and objs[grown:] the current ones
// (in Wc). The window engine emits each event kind in arrival (ID) order,
// and every object of a cell gets its events in the order New, Grown,
// Expired (see the package FIFO contract), so New appends, Grown advances
// grown and Expired advances head — no ID is kept or checked. The ordered
// weights exist so reported scores can be computed as canonical
// arrival-order folds — a pure function of the cell's content — while the
// O(1) incremental accumulators keep ordering the heap.
type gcell struct {
	key    grid.Cell
	pos    int     // position in the layer heap; -1 when absent
	fc, fp float64 // incremental accumulators: heap keys, not reported values
	objs   []float64
	head   int // objs[:head] have expired
	grown  int // objs[head:grown] are past
}

// HeapPos implements cellheap.Positioned.
func (c *gcell) HeapPos() *int { return &c.pos }

// fold returns the canonical arrival-order window scores of the cell.
func (c *gcell) fold(cfg core.Config) (fc, fp float64) {
	for _, w := range c.objs[c.head:c.grown] {
		fp += w / cfg.WP
	}
	for _, w := range c.objs[c.grown:] {
		fc += w / cfg.WC
	}
	return fc, fp
}

type layer struct {
	g     grid.Grid
	cells map[uint64]*gcell // keyed by grid.Cell.Pack
	heap  cellheap.Heap[*gcell]
}

// Engine is a grid-based approximate SURGE detector. It is not safe for
// concurrent use.
type Engine struct {
	cfg    core.Config
	layers []layer
	k      int // number of regions reported by BestK
	stats  core.Stats

	popCells  []*gcell
	popScores []float64
	merged    []core.Result
	out       []core.Result // BestK's answer, recomputed only when dirty
	dirty     bool
	free      []*gcell // emptied cells kept for reuse, shared across layers

	// Mask state of the cross-shard greedy chain (core.TopKShard):
	// masks[i] is the region committed for rank i+1, valid when maskOK[i].
	masks  []geom.Rect
	maskOK []bool
}

var (
	_ core.Engine     = (*Engine)(nil)
	_ core.TopKEngine = (*Engine)(nil)
	_ core.TopKShard  = (*Engine)(nil)
)

// New returns a GAP-SURGE engine (multi == false) or an MGAP-SURGE engine
// (multi == true).
func New(cfg core.Config, multi bool) (*Engine, error) {
	return NewTopK(cfg, multi, 1)
}

// NewTopK returns the top-k extension with the given k >= 1.
func NewTopK(cfg core.Config, multi bool, k int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	var grids []grid.Grid
	if multi {
		g4 := grid.FourGrids(cfg.Width, cfg.Height)
		grids = g4[:]
	} else {
		grids = []grid.Grid{grid.Aligned(cfg.Width, cfg.Height)}
	}
	e := &Engine{cfg: cfg, k: k, out: make([]core.Result, k)}
	for _, g := range grids {
		e.layers = append(e.layers, layer{g: g, cells: make(map[uint64]*gcell)})
	}
	return e, nil
}

// Stats returns the instrumentation counters.
func (e *Engine) Stats() core.Stats { return e.stats }

// MultiGrid reports whether this is the multi-grid (MGAP-SURGE) variant.
func (e *Engine) MultiGrid() bool { return len(e.layers) == 4 }

// Process applies one window-transition event (Algorithm 3, lines 1-5).
func (e *Engine) Process(ev core.Event) {
	if !e.cfg.InArea(ev.Obj) {
		return
	}
	o := ev.Obj
	dc := o.Weight / e.cfg.WC
	dp := o.Weight / e.cfg.WP
	counted := false
	for li := range e.layers {
		l := &e.layers[li]
		ck := l.g.CellOf(o.X, o.Y)
		// Sharded ownership: a cell is owned by the shard owning its
		// candidate bursty point, the cell's top-right corner. Every grid
		// offset satisfies 0 <= OffX < CW, so MaxX = (I+1)*CW + OffX always
		// falls in query-width column I+1.
		if !e.cfg.OwnsCol(ck.I + 1) {
			continue
		}
		if !counted {
			counted = true
			e.stats.Events++
			e.dirty = true
		}
		pk := ck.Pack()
		c := l.cells[pk]
		if c == nil {
			if ev.Kind != core.New {
				continue
			}
			// Reuse an emptied cell so churn under a moving stream does not
			// allocate; a recycled cell is reset, exactly a fresh one.
			if n := len(e.free); n > 0 {
				c = e.free[n-1]
				e.free = e.free[:n-1]
			} else {
				c = &gcell{pos: -1}
			}
			c.key = ck
			l.cells[pk] = c
		}
		e.stats.CellsTouched++
		switch ev.Kind {
		case core.New:
			c.objs = append(c.objs, o.Weight)
			c.fc += dc
		case core.Grown:
			c.grown++
			c.fc -= dc
			c.fp += dp
		case core.Expired:
			c.head++
			c.fp -= dp
			if c.head > 16 && c.head*2 >= len(c.objs) {
				n := copy(c.objs, c.objs[c.head:])
				c.objs = c.objs[:n]
				c.grown -= c.head
				c.head = 0
			}
		}
		// Reset empty accumulators so float drift cannot build up over the
		// lifetime of a long stream.
		if c.grown == len(c.objs) {
			c.fc = 0
		}
		if c.head == c.grown {
			c.fp = 0
		}
		if c.head == len(c.objs) {
			delete(l.cells, pk)
			l.heap.Remove(c)
			c.objs = c.objs[:0] // keep the backing array for reuse
			c.head, c.grown = 0, 0
			c.fc, c.fp = 0, 0
			e.free = append(e.free, c)
			continue
		}
		l.heap.Set(c, e.cfg.Score(c.fc, c.fp))
	}
}

// Best reports the cell with the maximum burst score across all grids.
func (e *Engine) Best() core.Result {
	var best core.Result
	bestKey := 0.0
	for li := range e.layers {
		l := &e.layers[li]
		c, sc, ok := l.heap.Max()
		if !ok || sc <= 0 || (best.Found && sc <= bestKey) {
			continue
		}
		best = e.resultOf(l, c)
		bestKey = sc
	}
	return best
}

// BestK reports the current top-k regions (Algorithm 6 for the single grid,
// Algorithm 7 for the multi-grid variant). The answer is recomputed only
// when an event arrived since the last call (the committed masks of
// ApplyRank do not enter it). The returned slice is reused by subsequent
// calls; callers that retain it must copy.
func (e *Engine) BestK() []core.Result {
	if !e.dirty {
		return e.out
	}
	e.dirty = false
	out := e.out
	clear(out)
	if !e.MultiGrid() {
		e.merged = e.popTop(&e.layers[0], e.k, e.merged[:0])
		copy(out, e.merged)
		return out
	}
	// Multi-grid: take the top-4k cells of each grid, merge, and greedily
	// keep the best non-overlapping k.
	e.merged = e.merged[:0]
	for li := range e.layers {
		e.merged = e.popTop(&e.layers[li], 4*e.k, e.merged)
	}
	slices.SortFunc(e.merged, core.CompareTopK)
	n := 0
	for _, r := range e.merged {
		if n == e.k {
			break
		}
		overlaps := false
		for i := 0; i < n; i++ {
			if out[i].Region.Overlaps(r.Region) {
				overlaps = true
				break
			}
		}
		if !overlaps {
			out[n] = r
			n++
		}
	}
	return out
}

// ProblemBest implements core.TopKShard: the engine's best owned candidate
// for chain problem i, i.e. the best cell (across the grids) that does not
// overlap a region committed for ranks < i.
//
// The single grid selects in heap-key pop order (first unmasked positive
// cell — Algorithm 6's order; a committed region overlaps at most four
// cells, so at most 4(i-1)+1 cells are popped). The multi-grid variant
// mirrors BestK's merge exactly: the top-4k cells of every grid are popped
// into one pool and the CompareTopK-least unmasked candidate wins, the same
// canonical fold-then-region order BestK's sort uses — so equal-score cells
// across (or within) grids resolve identically in both code paths.
func (e *Engine) ProblemBest(i int) core.Result {
	if !e.MultiGrid() {
		r, _ := e.popBestUnmasked(&e.layers[0], i-1)
		return r
	}
	e.merged = e.merged[:0]
	for li := range e.layers {
		e.merged = e.popTop(&e.layers[li], 4*e.k, e.merged)
	}
	var best core.Result
	for _, r := range e.merged {
		if e.maskedRegion(r.Region, i-1) {
			continue
		}
		if core.CompareTopK(r, best) < 0 {
			best = r
		}
	}
	return best
}

// maskedRegion reports whether the region overlaps one of the first nmask
// committed regions.
func (e *Engine) maskedRegion(r geom.Rect, nmask int) bool {
	for m := 0; m < nmask && m < len(e.masks); m++ {
		if e.maskOK[m] && r.Overlaps(e.masks[m]) {
			return true
		}
	}
	return false
}

// ApplyRank implements core.TopKShard: record the globally selected region
// for rank i. The grid chains have no level state to update — masking is
// purely geometric — so the old answer is not needed.
func (e *Engine) ApplyRank(i int, _, sel core.Result) {
	for len(e.masks) < i {
		e.masks = append(e.masks, geom.Rect{})
		e.maskOK = append(e.maskOK, false)
	}
	e.masks[i-1] = sel.Region
	e.maskOK[i-1] = sel.Found
}

// popBestUnmasked pops cells from the layer's heap in descending key order
// until one with a positive score does not overlap the first nmask committed
// regions, restores the heap, and reports that cell canonically.
func (e *Engine) popBestUnmasked(l *layer, nmask int) (core.Result, bool) {
	e.popCells = e.popCells[:0]
	e.popScores = e.popScores[:0]
	var res core.Result
	found := false
	for {
		c, sc, ok := l.heap.PopMax()
		if !ok {
			break
		}
		e.popCells = append(e.popCells, c)
		e.popScores = append(e.popScores, sc)
		if sc <= 0 {
			break
		}
		if e.maskedRegion(l.g.CellRect(c.key), nmask) {
			continue
		}
		res = e.resultOf(l, c)
		found = true
		break
	}
	for i, c := range e.popCells {
		l.heap.Set(c, e.popScores[i])
	}
	return res, found
}

// popTop removes up to k positive-score cells from the layer's heap in
// descending order, restores them, and appends their results to dst.
func (e *Engine) popTop(l *layer, k int, dst []core.Result) []core.Result {
	e.popCells = e.popCells[:0]
	e.popScores = e.popScores[:0]
	taken := 0
	for taken < k {
		c, sc, ok := l.heap.PopMax()
		if !ok {
			break
		}
		e.popCells = append(e.popCells, c)
		e.popScores = append(e.popScores, sc)
		if sc <= 0 {
			break
		}
		dst = append(dst, e.resultOf(l, c))
		taken++
	}
	for i, c := range e.popCells {
		l.heap.Set(c, e.popScores[i])
	}
	return dst
}

// resultOf reports a cell canonically: the returned scores are the
// arrival-order folds of the cell's live objects, independent of the
// accumulator history, so a continuously maintained engine reports bitwise
// the same values as one rebuilt from a checkpoint of the same content.
// (The heap keys remain the incremental accumulators; they only order the
// candidate selection, where equal content differs by at most rounding.)
func (e *Engine) resultOf(l *layer, c *gcell) core.Result {
	r := l.g.CellRect(c.key)
	fc, fp := c.fold(e.cfg)
	return core.Result{
		Point:  geom.Point{X: r.MaxX, Y: r.MaxY},
		Region: r,
		Score:  e.cfg.Score(fc, fp),
		FC:     fc,
		FP:     fp,
		Found:  true,
	}
}
