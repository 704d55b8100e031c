// CCS-KSURGE (Algorithm 4): the exact top-k extension of Cell-CSPOT.
//
// The top-k problem is reduced to k chained cSPOT problems. Every rectangle
// object carries a level lvl in [1, k]; the i-th cSPOT problem sees exactly
// the objects with lvl >= i. When the i-th bursty point is (re)selected, the
// objects covering it are demoted to level i (they become invisible to the
// problems of higher order); objects that covered the previous i-th point but
// not the new one are promoted back to level k.
//
// Each cell maintains static bounds, dynamic bounds and candidate points per
// problem, updated by a uniform set of visibility operations. Window events
// and level changes both reduce to these operations, so the bound/validity
// reasoning of the single-region engine (Lemmas 2-4) carries over per
// problem.
//
// # Shared-until-split cells
//
// Level demotions only ever touch the objects covering a top-k point, so at
// any moment almost every cell holds objects at level k exclusively — and
// for such a cell the k problems see identical content: one set of bounds
// and one candidate is simultaneously correct for all of them. The engine
// exploits this: a cell starts "unsplit", carrying a single shared
// (us, ud, candidate) slot and living in one shared heap, and per-problem
// state is materialized only when a level change actually touches the cell
// ("split" cells — a handful around the current top-k regions). Event
// maintenance on an unsplit cell therefore costs the same as in the
// single-region engine regardless of k, and one snapshot search of an
// unsplit cell refreshes it for every problem at once. A split cell whose
// leveled objects disappear folds back to the shared representation at the
// next flush.
//
// # Canonical rescoring and schedule independence
//
// The engine keeps one record per live object it accepted (kobj: position,
// weight, level, past flag) in a power-of-two circular ring indexed by a
// uint32 sequence number assigned in arrival order. A cell does not copy its
// objects: its entries are 4-byte seqs into the ring, in arrival order (IDs
// are assigned by the window engine in stream order). Each record also
// caches the cells that hold it, so Grown, Expired and a level change go
// straight to those cells; only New and covering consult the cell map. Grid
// floors in floating point can give an object more than the four cells of
// Lemma 1 (see grid.CoverCells); such a record caches none and its cells are
// found through the map. Window expiry and growth are FIFO, so an event's
// record is found at the ring's head or at its oldest not-yet-Grown record,
// with a binary search by id as the fallback. Load builds the records and
// cells of a whole live set (a restore) in one pass instead of per event.
//
// A cell is a FIFO with a head index, the discipline of the window engine's
// own queues: the live entries are objs[head:]. A cell's entries are an
// arrival-ordered subsequence of the stream, so an Expired event always
// removes the cell's oldest entry — it advances head, and no entry is ever
// tombstoned. The dead prefix is compacted away with one copy when a flush
// visits the cell, or as soon as it is half of the slice (so a caller that
// never queries stays bounded); compaction preserves the order.
//
// Whenever a candidate is valid and found, its fc and fp equal the
// arrival-order left folds of the window contributions of the objects
// visible to its problem that cover it. A surviving stream New appends the
// last element of that fold (an O(1) update); every other surviving
// visibility change (expiry of a covering past object, a level promotion of
// an interior object) recomputes the fold with rescore. Levels themselves
// are, after a resolve, a pure function of
// the live content (the greedy chain determines them), so the reported
// top-k scores are bitwise independent of when queries ran — the property
// that makes the continuously maintained serving path provably equal to
// checkpoint replay.
//
// # Lazy heap maintenance
//
// The heaps order cells by their upper bounds with the positions stored in
// the cells (kheap), so no hash map is touched. Refreshing heap keys on
// every visibility operation would still dominate the maintenance cost, so
// Process only appends the touched cell to a dirty queue; the keys of the
// queued cells are flushed in bulk when the next query resolves. Between
// queries the heaps are stale, which is safe because only resolve reads
// them.
package topk

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"surge/internal/core"
	"surge/internal/geom"
	"surge/internal/grid"
	"surge/internal/sweep"
)

// kobj is the engine's record of one live object: 72 bytes, one per object,
// however many cells hold it (see the package comment).
type kobj struct {
	id       uint64
	x, y, wt float64
	lvl      int32 // 1..k; visible to problem i iff lvl >= i
	past     bool
	dead     bool  // expired out of FIFO order; retired when it reaches the head
	nc       uint8 // cells cached in cells; 0 = more than four, use the map
	cells    [4]*kcell
}

// minRing is the ring's first capacity; it doubles whenever it is full.
const minRing = 256

type kcand struct {
	valid  bool
	found  bool
	p      geom.Point
	fc, fp float64
}

// kcell keeps its rectangle objects in arrival order (see the package
// comment) plus either one shared bound/candidate slot (unsplit) or one per
// problem (split).
type kcell struct {
	key     grid.Cell
	objs    []uint32 // ring seqs, an arrival-ordered FIFO; the live entries are objs[head:]
	head    int      // expired entries before the first live one
	leveled int      // live objects with lvl < k
	split   bool     // per-problem state materialized
	queued  bool     // in the engine's dirty queue awaiting a heap flush
	gone    bool     // emptied while queued; recycled at the next flush

	// Shared state, authoritative while !split: one slot serves every
	// problem, and spos is the cell's position in the engine's shared heap.
	sus    float64
	susCur int
	sud    float64
	scand  kcand
	spos   int

	// Per-problem state, authoritative while split. Only the few cells
	// around the current top-k regions ever split, so it lives out of line:
	// nil until the first split, then kept across recycling.
	*ksplit
}

// ksplit is a split cell's per-problem state; hpos[i] is the cell's
// position in the i-th problem heap.
type ksplit struct {
	us    []float64
	usCur []int
	ud    []float64
	cand  []kcand
	hpos  []int
}

// pos returns the cell's position in heap ix (-1 = the shared heap).
func (c *kcell) pos(ix int) int {
	if ix < 0 {
		return c.spos
	}
	return c.hpos[ix]
}

func (c *kcell) setPos(ix, v int) {
	if ix < 0 {
		c.spos = v
	} else {
		c.hpos[ix] = v
	}
}

// live returns the number of live objects in the cell.
func (c *kcell) live() int { return len(c.objs) - c.head }

// remove drops the live object at position i. Under FIFO expiry i is always
// the head, which just advances; any other position (unreachable, kept
// correct) is closed up with one shifting copy. The dead prefix is compacted
// once it is half of the slice.
func (c *kcell) remove(i int) {
	if i == c.head {
		c.head++
	} else {
		copy(c.objs[i:], c.objs[i+1:])
		c.objs = c.objs[:len(c.objs)-1]
	}
	if c.head*2 >= len(c.objs) {
		c.compact()
	}
}

// compact moves the live entries to the front of objs in place, in order.
func (c *kcell) compact() {
	c.objs = c.objs[:copy(c.objs, c.objs[c.head:])]
	c.head = 0
}

// KCCS is the exact top-k detector. It is not safe for concurrent use.
type KCCS struct {
	cfg   core.Config
	k     int
	grid  grid.Grid
	cells map[uint64]*kcell // keyed by grid.Cell.Pack: packed coordinates hit the fast64 map path
	main  kheap             // unsplit cells, one shared key each
	aux   []kheap           // split cells, one heap per problem
	sr    sweep.Searcher
	stats core.Stats

	// The live records: seq s lives at ring[s&(len(ring)-1)]. Seqs are
	// compared by their offset from rhead, so the uint32 wrap is harmless.
	ring  []kobj
	rhead uint32 // oldest live seq
	rtail uint32 // next seq to assign
	rgrow uint32 // oldest seq not yet Grown

	top   []kcand // current top-k points (the level assignment anchors)
	dirty bool

	queue []*kcell // cells with stale heap keys, flushed at the next query
	free  []*kcell // emptied cells kept for reuse

	cellScratch  []grid.Cell
	heldScratch  []*kcell // cellsOf() results for an object with more than four cells
	entryScratch []sweep.Entry
	covScratch   []uint32 // covering() results (seqs)
	covMerge     []uint32 // covering() merge buffer (sharded 3-cell union)
	selScratch   []uint32 // applyRank's saved covering(selP) set
	idScratch    []uint64 // ids consumed by the new rank point, ascending
	tieShared    []*kcell // canonicalSolve's popped unsplit cells
	tieSplit     []*kcell // canonicalSolve's popped split cells
	out          []core.Result
}

var (
	_ core.TopKEngine = (*KCCS)(nil)
	_ core.TopKShard  = (*KCCS)(nil)
)

// NewKCCS returns an exact top-k engine for the given k >= 1.
func NewKCCS(cfg core.Config, k int) (*KCCS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	if k > math.MaxInt32 {
		return nil, fmt.Errorf("topk: k=%d exceeds the int32 range of an object level", k)
	}
	e := &KCCS{
		cfg:   cfg,
		k:     k,
		grid:  grid.Aligned(cfg.Width, cfg.Height),
		cells: make(map[uint64]*kcell),
		main:  kheap{ix: -1},
		top:   make([]kcand, k),
		out:   make([]core.Result, k),
	}
	for i := 0; i < k; i++ {
		e.aux = append(e.aux, kheap{ix: i})
	}
	return e, nil
}

// Stats returns the instrumentation counters.
func (e *KCCS) Stats() core.Stats { return e.stats }

// Process applies one window-transition event by translating it into
// visibility operations on the affected cells (Algorithm 4, lines 1-6).
func (e *KCCS) Process(ev core.Event) {
	if !e.cfg.InArea(ev.Obj) {
		return
	}
	if ev.Kind == core.New {
		e.processNew(ev.Obj)
		return
	}
	want := e.rhead // FIFO expiry: the oldest record
	if ev.Kind == core.Grown {
		want = e.rgrow
	}
	s, ok := e.find(ev.Obj.ID, want)
	if !ok {
		return // object was filtered (no owned cell) or unknown; nothing to undo
	}
	e.stats.Events++
	e.dirty = true
	r := e.rec(s)
	cover := e.cfg.CoverRect(r.x, r.y)
	dc := r.wt / e.cfg.WC
	dp := r.wt / e.cfg.WP
	lvl, past := int(r.lvl), r.past
	if ev.Kind == core.Grown && !past {
		r.past = true
		r.lvl = int32(e.k)
		if s == e.rgrow {
			for e.rgrow++; e.rgrow != e.rtail && e.rec(e.rgrow).past; e.rgrow++ {
			}
		}
	}
	for _, c := range e.cellsOf(r) {
		e.stats.CellsTouched++
		if ev.Kind == core.Expired {
			e.applyExpired(c, s, lvl, past, cover, dc, dp)
		} else if !past {
			e.applyGrown(c, lvl, cover, dc)
		}
		if c.live() == 0 {
			e.dropCell(c)
			continue
		}
		e.enqueue(c)
	}
	if ev.Kind == core.Expired {
		e.retire(s)
	}
}

// processNew records an accepted object and appends it to its cover cells.
// Sharded ownership is applied per cover cell (grid.CoverCellsOwned): a kept
// cell still receives every object whose coverage touches it —
// neighbour-column objects included — so its content matches the single
// engine's and the per-cell work is partitioned exactly (each (event, cell)
// pair is processed by one shard). An object with no owned cell gets no
// record.
func (e *KCCS) processNew(o core.Object) {
	e.cellScratch = e.grid.CoverCellsOwned(e.cellScratch[:0], o.X, o.Y, e.cfg.Width, e.cfg.Height, e.cfg.Cols)
	n := len(e.cellScratch)
	if n == 0 {
		return
	}
	e.stats.Events++
	e.dirty = true
	s := e.push(o)
	r := e.rec(s)
	cache := n <= len(r.cells)
	if cache {
		r.nc = uint8(n)
	}
	cover := e.cfg.CoverRect(o.X, o.Y)
	dc := o.Weight / e.cfg.WC
	for i, ck := range e.cellScratch {
		e.stats.CellsTouched++
		c := e.cells[ck.Pack()]
		if c == nil {
			c = e.newCell(ck)
		}
		if cache {
			r.cells[i] = c
		}
		e.applyNew(c, s, cover, dc)
		e.enqueue(c)
	}
}

// Load implements core.TopKLoader. Cells are fresh as New leaves them, their
// static bounds folds of their current objects. Ring, map and shared heap are
// sized once; cells come from slabs, entries from one array with headroom.
func (e *KCCS) Load(live []core.LiveObject) {
	if e.rtail != e.rhead {
		panic("topk: Load into an engine that holds live objects")
	}
	n := 0 // accepted objects: in the area, with an owned cover cell
	for _, l := range live {
		if e.cfg.InArea(l.Obj) {
			e.cellScratch = e.grid.CoverCellsOwned(e.cellScratch[:0], l.Obj.X, l.Obj.Y, e.cfg.Width, e.cfg.Height, e.cfg.Cols)
			n += min(len(e.cellScratch), 1)
		}
	}
	if n == 0 {
		return
	}
	if size := max(minRing, 1<<bits.Len(uint(n-1))); len(e.ring) < size {
		e.ring = make([]kobj, size)
	}
	e.cells = make(map[uint64]*kcell, n+n/4) // was empty; exact-1shard's stream has 1.15 cells per object
	e.queue = slices.Grow(e.queue, n+n/4)
	var slab []kcell
	first, q0, entries := e.rtail, len(e.queue), 0 // a new cell's head counts its entries until carved
	for _, l := range live {
		if !e.cfg.InArea(l.Obj) {
			continue
		}
		e.cellScratch = e.grid.CoverCellsOwned(e.cellScratch[:0], l.Obj.X, l.Obj.Y, e.cfg.Width, e.cfg.Height, e.cfg.Cols)
		if len(e.cellScratch) == 0 {
			continue
		}
		r := e.rec(e.push(l.Obj))
		r.past = l.Past
		if len(e.cellScratch) <= len(r.cells) {
			r.nc = uint8(len(e.cellScratch))
		}
		for i, ck := range e.cellScratch {
			c := e.cells[ck.Pack()]
			if c == nil {
				if len(slab) == 0 {
					slab = make([]kcell, 1024)
				}
				c, slab = &slab[0], slab[1:]
				*c = kcell{key: ck, sud: math.Inf(1), spos: -1}
				e.cells[ck.Pack()] = c
				e.enqueue(c)
			}
			c.head++
			if r.nc > 0 {
				r.cells[i] = c
			}
		}
		entries += len(e.cellScratch)
	}
	cells := e.queue[q0:]
	e.main.cells, e.main.prio = slices.Grow(e.main.cells, len(cells)), slices.Grow(e.main.prio, len(cells))
	backing := make([]uint32, entries+entries/4+len(cells))
	for _, c := range cells {
		m := c.head + c.head/4 + 1
		c.objs, backing, c.head = backing[:0:m], backing[m:], 0
	}
	// Entries and static bounds, in arrival order.
	for s := first; s != e.rtail; s++ {
		r := e.rec(s)
		for _, c := range e.cellsOf(r) {
			c.objs = append(c.objs, s)
			if !r.past {
				c.sus += r.wt / e.cfg.WC
				c.susCur++
			}
		}
	}
	for e.rgrow = first; e.rgrow != e.rtail && e.rec(e.rgrow).past; e.rgrow++ {
	}
	e.stats.Events += uint64(n)
	e.stats.CellsTouched += uint64(entries)
	e.dirty = true
}

// rec returns the record of live seq s.
func (e *KCCS) rec(s uint32) *kobj {
	return &e.ring[s&uint32(len(e.ring)-1)]
}

// push records a newly accepted object at level k and returns its seq. The
// ring doubles only when it is full, copying each live seq to its slot under
// the new mask.
func (e *KCCS) push(o core.Object) uint32 {
	if int(e.rtail-e.rhead) == len(e.ring) {
		ring := make([]kobj, max(2*len(e.ring), minRing))
		mask := uint32(len(ring) - 1)
		for s := e.rhead; s != e.rtail; s++ {
			ring[s&mask] = *e.rec(s)
		}
		e.ring = ring
	}
	s := e.rtail
	e.rtail++
	*e.rec(s) = kobj{id: o.ID, x: o.X, y: o.Y, wt: o.Weight, lvl: int32(e.k)}
	return s
}

// find returns the seq of the live record with the given id. The FIFO order
// of window events puts it at want (the head for Expired, the oldest
// not-yet-Grown record for Grown); otherwise the records, which ascend by
// id, are binary searched.
func (e *KCCS) find(id uint64, want uint32) (uint32, bool) {
	if want != e.rtail {
		if r := e.rec(want); r.id == id && !r.dead {
			return want, true
		}
	}
	lo, hi := uint32(0), e.rtail-e.rhead
	for lo < hi {
		mid := lo + (hi-lo)/2
		if e.rec(e.rhead+mid).id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if s := e.rhead + lo; s != e.rtail {
		if r := e.rec(s); r.id == id && !r.dead {
			return s, true
		}
	}
	return 0, false
}

// retire drops the record of an expired seq. The head is popped, together
// with any dead records behind it; popped slots are zeroed so the ring
// retains no cell. Any other seq (unreachable under FIFO expiry, kept
// correct) is marked dead and popped when it reaches the head.
func (e *KCCS) retire(s uint32) {
	if s != e.rhead {
		// The id keeps the ring searchable; past lets the Grown cursor skip it.
		*e.rec(s) = kobj{id: e.rec(s).id, past: true, dead: true}
		return
	}
	for {
		if e.rgrow == e.rhead {
			e.rgrow++
		}
		*e.rec(e.rhead) = kobj{}
		e.rhead++
		if e.rhead == e.rtail || !e.rec(e.rhead).dead {
			return
		}
	}
}

// cellsOf returns the cells holding the live record r: its cached cells, or,
// for an object with more than four cells, its owned cover cells looked up
// in the map (every one of them holds it while it is live). The result is
// valid until the next call.
func (e *KCCS) cellsOf(r *kobj) []*kcell {
	if r.nc > 0 {
		return r.cells[:r.nc]
	}
	e.cellScratch = e.grid.CoverCellsOwned(e.cellScratch[:0], r.x, r.y, e.cfg.Width, e.cfg.Height, e.cfg.Cols)
	e.heldScratch = e.heldScratch[:0]
	for _, ck := range e.cellScratch {
		if c := e.cells[ck.Pack()]; c != nil {
			e.heldScratch = append(e.heldScratch, c)
		}
	}
	return e.heldScratch
}

// indexIn returns the position in c.objs of live seq s. A cell's seqs
// ascend in arrival order (compaction preserves it), so a binary search by
// offset from the ring head suffices.
func (e *KCCS) indexIn(c *kcell, s uint32) (int, bool) {
	d := s - e.rhead
	lo, hi := c.head, len(c.objs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.objs[mid]-e.rhead < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.objs) && c.objs[lo] == s {
		return lo, true
	}
	return 0, false
}

// dropCell removes an emptied cell from the map and heaps and retires it.
func (e *KCCS) dropCell(c *kcell) {
	delete(e.cells, c.key.Pack())
	if c.split {
		for i := range e.aux {
			e.aux[i].Remove(c)
		}
	} else {
		e.main.Remove(c)
	}
	if c.queued {
		c.gone = true
	} else {
		e.recycle(c)
	}
}

// applyNew appends the object (visible to every problem) and updates the
// bounds and candidates. The new object is last in arrival order, so a
// surviving covered candidate takes the O(1) canonical fold append.
func (e *KCCS) applyNew(c *kcell, s uint32, cover geom.Rect, dc float64) {
	c.objs = append(c.objs, s)
	if !c.split {
		c.sus += dc
		c.susCur++
		if !math.IsInf(c.sud, 1) {
			c.sud += dc
		}
		e.candAddCurLast(c, &c.scand, cover, dc, -1)
		return
	}
	for ix := 0; ix < e.k; ix++ {
		c.us[ix] += dc
		c.usCur[ix]++
		if !math.IsInf(c.ud[ix], 1) {
			c.ud[ix] += dc
		}
		e.candAddCurLast(c, &c.cand[ix], cover, dc, ix)
	}
}

// candAddCurLast applies a stream New (arrival-order last) to one candidate
// slot; ix identifies the slot for the dynamic-bound refresh (-1 = shared).
func (e *KCCS) candAddCurLast(c *kcell, cd *kcand, cover geom.Rect, dc float64, ix int) {
	if !cd.valid {
		return
	}
	switch {
	case !cd.found:
		cd.valid = false
	case cover.CoversOC(cd.p):
		if cd.fc >= cd.fp {
			cd.fc += dc // appended last in arrival order: canonical
			e.setUD(c, ix, e.candScore(cd))
		} else {
			cd.valid = false
		}
	default:
		// New current weight elsewhere in the cell can overtake the
		// candidate: it is no longer certainly the in-cell maximum.
		cd.valid = false
	}
}

func (e *KCCS) setUD(c *kcell, ix int, v float64) {
	if ix < 0 {
		c.sud = v
	} else {
		c.ud[ix] = v
	}
}

// applyGrown applies to one cell the retag of a current object at level lvl
// from Wc to Wp (the caller has updated its record). The transition also
// promotes the object back to level k (Algorithm 4): for the problems it
// was visible to, the retag keeps bounds per Eqn 3 and invalidates covered
// candidates (Lemma 4, case 2); for the problems it was demoted out of, it
// becomes visible as a past object, which only ever lowers scores.
func (e *KCCS) applyGrown(c *kcell, lvl int, cover geom.Rect, dc float64) {
	if !c.split { // lvl == k: a pure retag of the shared slot
		c.sus -= dc
		c.susCur--
		if c.susCur <= 0 {
			c.susCur = 0
			c.sus = 0 // kill float drift once the current window empties
		}
		if c.scand.valid && c.scand.found && cover.CoversOC(c.scand.p) {
			c.scand.valid = false
		}
		return
	}
	if lvl < e.k {
		c.leveled--
	}
	for ix := 0; ix < lvl; ix++ { // retag: visible, Wc -> Wp
		c.us[ix] -= dc
		c.usCur[ix]--
		if c.usCur[ix] <= 0 {
			c.usCur[ix] = 0
			c.us[ix] = 0 // kill float drift once the current window empties
		}
		cd := &c.cand[ix]
		if cd.valid && cd.found && cover.CoversOC(cd.p) {
			cd.valid = false
		}
	}
	for ix := lvl; ix < e.k; ix++ { // a past object becomes visible
		cd := &c.cand[ix]
		if cd.valid && cd.found && cover.CoversOC(cd.p) {
			cd.valid = false
		}
	}
}

// applyExpired removes seq s, an object at level lvl, from one cell and from
// the problems it is visible to. A covered candidate that survives the
// removal of a past object (Lemma 4) is rescored canonically over the
// survivors.
func (e *KCCS) applyExpired(c *kcell, s uint32, lvl int, past bool, cover geom.Rect, dc, dp float64) {
	i := c.head // FIFO expiry: the oldest entry (see the package comment)
	if i == len(c.objs) || c.objs[i] != s {
		var ok bool
		if i, ok = e.indexIn(c, s); !ok {
			return
		}
	}
	if !c.split {
		c.remove(i)
		if past {
			if !math.IsInf(c.sud, 1) {
				c.sud += e.cfg.Alpha * dp
			}
			e.candRmPast(c, &c.scand, cover, -1)
		} else { // expired without a Grown event (defensive)
			c.sus -= dc
			c.susCur--
			if c.susCur <= 0 {
				c.susCur = 0
				c.sus = 0
			}
			e.candRmCur(&c.scand, cover)
		}
		return
	}
	if lvl < e.k {
		c.leveled--
	}
	if !past { // expired without a Grown event (defensive)
		for ix := 0; ix < lvl; ix++ {
			c.us[ix] -= dc
			c.usCur[ix]--
			if c.usCur[ix] <= 0 {
				c.usCur[ix] = 0
				c.us[ix] = 0
			}
		}
	}
	c.remove(i)
	for ix := 0; ix < lvl; ix++ {
		if past {
			if !math.IsInf(c.ud[ix], 1) {
				c.ud[ix] += e.cfg.Alpha * dp
			}
			e.candRmPast(c, &c.cand[ix], cover, ix)
		} else {
			e.candRmCur(&c.cand[ix], cover)
		}
	}
}

// candRmPast applies the removal of a visible past object to one candidate
// slot (the object must already be removed so the rescore folds over the
// survivors).
func (e *KCCS) candRmPast(c *kcell, cd *kcand, cover geom.Rect, ix int) {
	if !cd.valid {
		return
	}
	if !cd.found {
		// A valid not-found candidate stays valid: every point in the cell
		// has fc == 0 and removing past weight keeps scores at zero. Its
		// bound stays the exact 0 the caller just loosened, or a cell whose
		// current objects cover none of its points (a floating-point
		// boundary case, see grid.CoverCells) would top the heap with a
		// positive key and hide every other cell from solve.
		e.setUD(c, ix, 0)
		return
	}
	switch {
	case cover.CoversOC(cd.p):
		if cd.fc >= cd.fp {
			e.rescore(c, cd, ix)
			e.setUD(c, ix, e.candScore(cd))
		} else {
			cd.valid = false
		}
	default:
		// Removing past weight elsewhere can raise another point above the
		// candidate.
		cd.valid = false
	}
}

// candRmCur applies the removal of a visible current object to one
// candidate slot.
func (e *KCCS) candRmCur(cd *kcand, cover geom.Rect) {
	if cd.valid && cd.found && cover.CoversOC(cd.p) {
		cd.valid = false
	} else if cd.valid && !cd.found {
		cd.valid = false // defensive; cannot occur with a visible current object
	}
}

// newCell takes a recycled cell or allocates a fresh one. Fresh cells start
// unsplit; the per-problem state is materialized on first split and kept
// across recycling.
func (e *KCCS) newCell(ck grid.Cell) *kcell {
	var c *kcell
	if n := len(e.free); n > 0 {
		c = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		c = &kcell{sud: math.Inf(1), spos: -1}
	}
	c.key = ck
	e.cells[ck.Pack()] = c
	return c
}

// recycle resets an emptied cell to the state of a fresh one and keeps it
// for reuse; the backing arrays keep their capacity. The reset state is
// indistinguishable from a new cell's, so reuse cannot perturb the
// bit-identical score guarantees.
func (e *KCCS) recycle(c *kcell) {
	c.objs = c.objs[:0]
	c.head = 0
	c.leveled = 0
	c.split = false
	c.sus = 0
	c.susCur = 0
	c.sud = math.Inf(1)
	c.scand = kcand{}
	c.spos = -1
	if c.ksplit != nil {
		for ix := range c.us {
			c.us[ix] = 0
			c.usCur[ix] = 0
			c.ud[ix] = math.Inf(1)
			c.cand[ix] = kcand{}
			c.hpos[ix] = -1
		}
	}
	e.free = append(e.free, c)
}

// ensureSplit materializes per-problem state from the shared slot and moves
// the cell out of the shared heap; the per-problem heap insertions happen
// at the next flush.
func (e *KCCS) ensureSplit(c *kcell) {
	if c.split {
		return
	}
	c.split = true
	if c.ksplit == nil {
		c.ksplit = &ksplit{
			us:    make([]float64, e.k),
			usCur: make([]int, e.k),
			ud:    make([]float64, e.k),
			cand:  make([]kcand, e.k),
			hpos:  make([]int, e.k),
		}
		for ix := range c.hpos {
			c.hpos[ix] = -1
		}
	}
	for ix := 0; ix < e.k; ix++ {
		c.us[ix] = c.sus
		c.usCur[ix] = c.susCur
		c.ud[ix] = c.sud
		c.cand[ix] = c.scand
	}
	e.main.Remove(c)
}

// unsplit folds a split cell with no leveled objects back to the shared
// representation: the k problems see identical content again, so any valid
// per-problem candidate is the exact in-cell maximum for all of them and
// the largest of the per-problem bounds is a valid shared bound. Called
// from flush; the cell re-enters the shared heap there.
func (e *KCCS) unsplit(c *kcell) {
	c.split = false
	c.sus = c.us[0]
	c.susCur = c.usCur[0]
	c.sud = c.ud[0]
	c.scand = kcand{}
	for ix := 0; ix < e.k; ix++ {
		if c.us[ix] > c.sus {
			c.sus = c.us[ix]
		}
		if c.ud[ix] > c.sud {
			c.sud = c.ud[ix]
		}
		if !c.scand.valid && c.cand[ix].valid {
			c.scand = c.cand[ix]
		}
		e.aux[ix].Remove(c)
	}
	if c.scand.valid {
		// Valid candidate => exact maximum; restore the tight bound.
		c.sud = e.candScore(&c.scand)
	}
}

// enqueue marks the cell's heap keys stale until the next flush.
func (e *KCCS) enqueue(c *kcell) {
	if !c.queued {
		c.queued = true
		e.queue = append(e.queue, c)
	}
}

// flush refreshes the heap keys of the queued cells, compacts their expired
// prefixes, folds split cells with no remaining leveled objects back to the
// shared representation, and recycles the cells that emptied since they were
// queued. Every cell an event touched is queued, so after a flush no cell
// holds an expired entry.
func (e *KCCS) flush() {
	for _, c := range e.queue {
		c.queued = false
		if c.gone {
			c.gone = false
			e.recycle(c)
			continue
		}
		if c.head > 0 {
			c.compact()
		}
		if c.split && c.leveled == 0 {
			e.unsplit(c)
		}
		if c.split {
			for ix := range e.aux {
				e.aux[ix].Set(c, minf(c.us[ix], c.ud[ix]))
			}
		} else {
			e.main.Set(c, minf(c.sus, c.sud))
		}
	}
	e.queue = e.queue[:0]
}

func (e *KCCS) candScore(cd *kcand) float64 {
	if !cd.found {
		return 0
	}
	return e.cfg.Score(cd.fc, cd.fp)
}

// rescore recomputes a candidate's window scores at its point as the
// canonical arrival-order fold over the cell's live objects visible to its
// problem (lvl >= ix+1; the shared slot, ix = -1, sees every live object).
func (e *KCCS) rescore(c *kcell, cd *kcand, ix int) {
	var fc, fp float64
	p := cd.p
	ring, mask := e.ring, uint32(len(e.ring)-1)
	for _, s := range c.objs[c.head:] {
		g := &ring[s&mask]
		if int(g.lvl) <= ix || !e.cfg.CoverRect(g.x, g.y).CoversOC(p) {
			continue
		}
		if g.past {
			fp += g.wt / e.cfg.WP
		} else {
			fc += g.wt / e.cfg.WC
		}
	}
	cd.fc, cd.fp = fc, fp
}

// BestK reports the top-k bursty regions, re-running the greedy chain
// (Algorithm 4, lines 2-17) if any event arrived since the last query. The
// returned slice is reused by subsequent calls; callers that retain it must
// copy.
func (e *KCCS) BestK() []core.Result {
	if e.dirty {
		e.resolve()
		e.dirty = false
	}
	for i := range e.top {
		e.out[i] = e.candResult(&e.top[i])
	}
	return e.out
}

// resolve runs the k chained cSPOT problems and refreshes the levels.
func (e *KCCS) resolve() {
	for i := 1; i <= e.k; i++ {
		e.flush()
		pold := e.top[i-1]
		res := e.solve(i)
		e.top[i-1] = res
		e.applyRank(i, pold.found, pold.p, res.found, res.p)
	}
	e.flush()
}

// applyRank runs the level maintenance (Algorithm 4, lines 15-16) that
// commits the answer selP for rank i, with oldP the previously committed
// rank-i answer. The ids consumed by the new point are collected first
// (ascending: arrival order is id order) so the promotion pass can skip them
// with a binary search.
func (e *KCCS) applyRank(i int, oldFound bool, oldP geom.Point, selFound bool, selP geom.Point) {
	e.idScratch = e.idScratch[:0]
	e.selScratch = e.selScratch[:0]
	if selFound {
		// One scan serves both selP passes: the promotion pass in between
		// only touches objects that do not cover selP (an object covering
		// both points at lvl == i is in idScratch and skipped), so the
		// saved set and its levels stay exact.
		for _, s := range e.covering(selP) {
			e.selScratch = append(e.selScratch, s)
			if r := e.rec(s); int(r.lvl) >= i {
				e.idScratch = append(e.idScratch, r.id)
			}
		}
	}
	if oldFound && !(selFound && oldP == selP) {
		// When the committed point is unchanged (the steady state of a stable
		// hotspot), every oldP-covering object at lvl == i also covers selP
		// and so is in idScratch — the promotion pass is a provable no-op and
		// the second covering scan is skipped entirely.
		for _, s := range e.covering(oldP) {
			if r := e.rec(s); int(r.lvl) == i && !containsID(e.idScratch, r.id) {
				e.setLevel(s, e.k) // newly visible to every problem again
			}
		}
	}
	for _, s := range e.selScratch {
		if int(e.rec(s).lvl) > i {
			e.setLevel(s, i) // now consumed by problem i
		}
	}
}

// ProblemBest implements core.TopKShard: flush the lazy heap keys, then run
// the best-first search for chain problem i over the owned cells. No level
// maintenance happens here — the cross-shard coordinator selects the global
// winner and commits it with ApplyRank.
func (e *KCCS) ProblemBest(i int) core.Result {
	e.flush()
	cd := e.solve(i)
	return e.candResult(&cd)
}

// ApplyRank implements core.TopKShard: commit the globally selected rank-i
// answer. The demotion/promotion rules are a pure function of each object's
// identity, level and the two points, so a shard holding a halo copy of an
// object reaches the same level its owner does. Points whose cells this
// engine never saw fall out of covering() naturally.
func (e *KCCS) ApplyRank(i int, old, sel core.Result) {
	e.applyRank(i, old.Found, old.Point, sel.Found, sel.Point)
}

// candResult converts a solved candidate to the engine's reported result.
func (e *KCCS) candResult(cd *kcand) core.Result {
	if !cd.found {
		return core.Result{}
	}
	sc := e.candScore(cd)
	if sc <= 0 {
		return core.Result{}
	}
	return core.Result{
		Point:  cd.p,
		Region: e.cfg.RegionAt(cd.p),
		Score:  sc,
		FC:     cd.fc,
		FP:     cd.fp,
		Found:  true,
	}
}

// covering returns the seqs of the live objects held by this engine whose
// coverage rectangle covers p, in arrival (= id) order. An object covering p
// lies in p's query-width column or the one to its left, so the cells
// holding it include row(p) of columns col(p)-1..col(p)+1; a sharded engine
// keeps only its owned columns of that span (a left-column object can be
// held by the right neighbour's cell), so all three cells are scanned and
// objects appearing in two of them are deduped. The scratch is reused per
// call.
func (e *KCCS) covering(p geom.Point) []uint32 {
	e.covScratch = e.covScratch[:0]
	ring, mask := e.ring, uint32(len(e.ring)-1)
	pc := e.grid.CellOf(p.X, p.Y)
	if e.cfg.Cols == nil {
		// Single engine: every covering object's coverage touches p's own
		// column, so the cell of p holds each — one scan, no dedupe.
		if c := e.cells[pc.Pack()]; c != nil {
			for _, s := range c.objs[c.head:] {
				if g := &ring[s&mask]; e.cfg.CoverRect(g.x, g.y).CoversOC(p) {
					e.covScratch = append(e.covScratch, s)
				}
			}
		}
		return e.covScratch
	}
	// Each cell's seqs ascend, so the per-cell match runs are sorted
	// subsequences: merge the (at most 3) runs by seq instead of sorting the
	// union, dropping the duplicates, so every covering object is reported
	// once, in arrival order.
	var bounds [4]int
	runs := 0
	for di := -1; di <= 1; di++ {
		c := e.cells[(grid.Cell{I: pc.I + di, J: pc.J}).Pack()]
		if c == nil {
			continue
		}
		for _, s := range c.objs[c.head:] {
			if g := &ring[s&mask]; e.cfg.CoverRect(g.x, g.y).CoversOC(p) {
				e.covScratch = append(e.covScratch, s)
			}
		}
		if len(e.covScratch) > bounds[runs] {
			runs++
			bounds[runs] = len(e.covScratch)
		}
	}
	if runs <= 1 {
		return e.covScratch
	}
	e.covMerge = e.covMerge[:0]
	var at [3]int
	for r := 0; r < runs; r++ {
		at[r] = bounds[r]
	}
	for {
		best := -1
		for r := 0; r < runs; r++ {
			if at[r] < bounds[r+1] && (best < 0 || e.covScratch[at[r]]-e.rhead < e.covScratch[at[best]]-e.rhead) {
				best = r
			}
		}
		if best < 0 {
			break
		}
		s := e.covScratch[at[best]]
		at[best]++
		if n := len(e.covMerge); n == 0 || e.covMerge[n-1] != s {
			e.covMerge = append(e.covMerge, s)
		}
	}
	e.covScratch, e.covMerge = e.covMerge, e.covScratch
	return e.covScratch
}

// containsID reports whether ids (ascending) contains id.
func containsID(ids []uint64, id uint64) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// setLevel moves live seq s to lvl, translating the visibility change into
// add/remove operations on the intermediate problems in every cell holding
// the object. The level is the record's, written once. A touched cell is
// split first: its problems no longer see identical content. Level changes
// splice interior arrival positions, so a covered candidate that survives
// one is rescored canonically rather than updated incrementally.
func (e *KCCS) setLevel(s uint32, lvl int) {
	o := e.rec(s)
	old := int(o.lvl)
	if old == lvl {
		return
	}
	o.lvl = int32(lvl)
	dc := o.wt / e.cfg.WC
	dp := o.wt / e.cfg.WP
	cover := e.cfg.CoverRect(o.x, o.y)
	for _, c := range e.cellsOf(o) {
		e.stats.CellsTouched++
		e.ensureSplit(c)
		switch {
		case old == e.k && lvl < e.k:
			c.leveled++
		case old < e.k && lvl == e.k:
			c.leveled--
		}
		if lvl > old { // becomes visible to problems old+1..lvl
			for ix := old; ix < lvl; ix++ {
				if o.past {
					e.addPast(c, ix, cover)
				} else {
					e.addCurInterior(c, ix, cover, dc)
				}
			}
		} else { // becomes invisible to problems lvl+1..old
			for ix := lvl; ix < old; ix++ {
				if o.past {
					if !math.IsInf(c.ud[ix], 1) {
						c.ud[ix] += e.cfg.Alpha * dp
					}
					e.candRmPast(c, &c.cand[ix], cover, ix)
				} else {
					c.us[ix] -= dc
					c.usCur[ix]--
					if c.usCur[ix] <= 0 {
						c.usCur[ix] = 0
						c.us[ix] = 0
					}
					e.candRmCur(&c.cand[ix], cover)
				}
			}
		}
		e.enqueue(c)
	}
}

// addCurInterior makes a current-window object visible to problem ix at an
// interior arrival position (level promotion).
func (e *KCCS) addCurInterior(c *kcell, ix int, cover geom.Rect, dc float64) {
	c.us[ix] += dc
	c.usCur[ix]++
	if !math.IsInf(c.ud[ix], 1) {
		c.ud[ix] += dc
	}
	cd := &c.cand[ix]
	if !cd.valid {
		return
	}
	switch {
	case !cd.found:
		cd.valid = false
	case cover.CoversOC(cd.p):
		if cd.fc >= cd.fp {
			e.rescore(c, cd, ix) // interior insert: recompute the canonical fold
			c.ud[ix] = e.candScore(cd)
		} else {
			cd.valid = false
		}
	default:
		cd.valid = false // new current weight elsewhere can overtake it
	}
}

// addPast makes a past object visible to problem ix. Past weight only
// lowers scores, so the bounds stand; a covered candidate loses its
// guarantee, an uncovered (or not-found) one keeps it.
func (e *KCCS) addPast(c *kcell, ix int, cover geom.Rect) {
	cd := &c.cand[ix]
	if cd.valid && cd.found && cover.CoversOC(cd.p) {
		cd.valid = false
	}
}

// solve runs the lazy best-first search for problem i over the shared heap
// (unsplit cells, whose single slot answers for every problem) and the
// problem's own heap of split cells. The heaps must be flushed (see
// resolve) before it runs.
func (e *KCCS) solve(i int) kcand {
	ix := i - 1
	for {
		mc, mu, mok := e.main.Max()
		sc, su, sok := e.aux[ix].Max()
		var c *kcell
		var u float64
		shared := true
		switch {
		case mok && (!sok || mu >= su):
			c, u = mc, mu
		case sok:
			c, u, shared = sc, su, false
		default:
			return kcand{}
		}
		if u <= 0 {
			return kcand{}
		}
		var cd *kcand
		if shared {
			cd = &c.scand
		} else {
			cd = &c.cand[ix]
		}
		if cd.valid {
			if !cd.found || e.candScore(cd) <= 0 {
				return kcand{}
			}
			// Exact-score tie at the top: the loser heap's root or the
			// winner heap's second-best carries the same key. Resolve by
			// the canonical cross-family order instead of heap order.
			tied := false
			if shared {
				tied = (sok && su == u) || e.main.SecondPrio() == u
			} else {
				tied = (mok && mu == u) || e.aux[ix].SecondPrio() == u
			}
			if tied {
				return e.canonicalSolve(i, c, shared, *cd)
			}
			return *cd
		}
		if shared {
			e.searchCellShared(c)
			e.main.Set(c, minf(c.sus, c.sud))
		} else {
			e.searchCell(c, i)
			e.aux[ix].Set(c, minf(c.us[ix], c.ud[ix]))
		}
	}
}

// canonicalSolve resolves an exact-score tie for problem i by
// core.CompareTopK — the canonical selection order shared with the
// single-region engine and the cross-shard merges — so the solved candidate
// does not depend on heap order or shard partitioning. The winning cell and
// every further cell whose key bitwise-equals the winning key u are popped
// (from whichever heap holds them), the CompareTopK-least candidate is kept,
// and the popped cells are reinstated with their current keys. Only bitwise
// float ties enter this path.
func (e *KCCS) canonicalSolve(i int, top *kcell, topShared bool, best kcand) kcand {
	ix := i - 1
	u := topBound(e, top, topShared, ix)
	bres := e.candResult(&best)
	e.tieShared = e.tieShared[:0]
	e.tieSplit = e.tieSplit[:0]
	pop := func(c *kcell, shared bool) {
		if shared {
			e.main.Remove(c)
			e.tieShared = append(e.tieShared, c)
		} else {
			e.aux[ix].Remove(c)
			e.tieSplit = append(e.tieSplit, c)
		}
	}
	pop(top, topShared)
	for {
		mc, mu, mok := e.main.Max()
		sc, su, sok := e.aux[ix].Max()
		var c *kcell
		shared := true
		switch {
		case mok && mu == u:
			c = mc
		case sok && su == u:
			c, shared = sc, false
		default:
			for _, p := range e.tieShared {
				e.main.Set(p, minf(p.sus, p.sud))
			}
			for _, p := range e.tieSplit {
				e.aux[ix].Set(p, minf(p.us[ix], p.ud[ix]))
			}
			return best
		}
		var cd *kcand
		if shared {
			cd = &c.scand
		} else {
			cd = &c.cand[ix]
		}
		if !cd.valid {
			if shared {
				e.searchCellShared(c)
				e.main.Set(c, minf(c.sus, c.sud))
			} else {
				e.searchCell(c, i)
				e.aux[ix].Set(c, minf(c.us[ix], c.ud[ix]))
			}
			continue
		}
		if r := e.candResult(cd); r.Found && core.CompareTopK(r, bres) < 0 {
			best, bres = *cd, r
		}
		pop(c, shared)
	}
}

// topBound returns the heap key the winning cell was selected under.
func topBound(e *KCCS, c *kcell, shared bool, ix int) float64 {
	if shared {
		return minf(c.sus, c.sud)
	}
	return minf(c.us[ix], c.ud[ix])
}

// searchCellShared runs SL-CSPOT over an unsplit cell — every live object,
// since all of them sit at level k — refreshing the shared candidate and
// bounds, which are simultaneously exact for every problem.
func (e *KCCS) searchCellShared(c *kcell) {
	e.entryScratch = e.entryScratch[:0]
	us := 0.0
	cur := 0
	ring, mask := e.ring, uint32(len(e.ring)-1)
	for _, s := range c.objs[c.head:] {
		g := &ring[s&mask]
		e.entryScratch = append(e.entryScratch, sweep.Entry{X: g.x, Y: g.y, Weight: g.wt, Past: g.past})
		if !g.past {
			us += g.wt / e.cfg.WC
			cur++
		}
	}
	c.sus = us
	c.susCur = cur
	res := e.sr.Search(e.cfg, e.entryScratch, e.grid.CellRect(c.key))
	e.stats.Searches++
	e.stats.SweepEntries += uint64(len(e.entryScratch))
	c.scand = kcand{valid: true, found: res.Found, p: res.Point}
	if res.Found {
		e.rescore(c, &c.scand, -1)
	}
	c.sud = e.candScore(&c.scand)
}

// searchCell runs SL-CSPOT over the objects visible to problem i inside a
// split cell, refreshing the candidate and both bounds. The entry list is
// built in arrival order and the found candidate is rescored canonically,
// so the refreshed state is a pure function of the cell's content and the
// level assignment.
func (e *KCCS) searchCell(c *kcell, i int) {
	ix := i - 1
	e.entryScratch = e.entryScratch[:0]
	us := 0.0
	cur := 0
	ring, mask := e.ring, uint32(len(e.ring)-1)
	for _, s := range c.objs[c.head:] {
		g := &ring[s&mask]
		if int(g.lvl) < i {
			continue
		}
		e.entryScratch = append(e.entryScratch, sweep.Entry{X: g.x, Y: g.y, Weight: g.wt, Past: g.past})
		if !g.past {
			us += g.wt / e.cfg.WC
			cur++
		}
	}
	c.us[ix] = us
	c.usCur[ix] = cur
	res := e.sr.Search(e.cfg, e.entryScratch, e.grid.CellRect(c.key))
	e.stats.Searches++
	e.stats.SweepEntries += uint64(len(e.entryScratch))
	c.cand[ix] = kcand{valid: true, found: res.Found, p: res.Point}
	if res.Found {
		e.rescore(c, &c.cand[ix], ix)
	}
	c.ud[ix] = e.candScore(&c.cand[ix])
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
