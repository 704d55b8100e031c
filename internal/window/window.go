// Package window implements the dual sliding-window event engine of
// Section IV-C: it turns a time-ordered stream of spatial objects into the
// New / Grown / Expired events consumed by the detection engines.
//
// At stream time t the current window is Wc = (t-|Wc|, t] and the past window
// is Wp = (t-|Wc|-|Wp|, t-|Wc|]. An object created at tc therefore
//
//   - enters Wc at tc            (New),
//   - moves from Wc to Wp at tc+|Wc|      (Grown),
//   - leaves Wp at tc+|Wc|+|Wp|          (Expired).
//
// Because the input stream is ordered by creation time, the pending Grown and
// Expired events are each FIFO queues ordered by due time; advancing the
// clock is a two-way merge.
package window

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"surge/internal/core"
)

// Source is the common interface of the time-based (Engine) and
// count-based (CountEngine) window event generators. The detection engines
// consume events and are agnostic to which generator produced them.
type Source interface {
	// Push feeds one object, emitting its New event plus any transitions it
	// makes due, and returns the object's assigned ID.
	Push(o core.Object, emit func(core.Event)) (uint64, error)
	// Advance moves the stream clock without an arrival.
	Advance(t float64, emit func(core.Event)) error
	// Drain flushes every remaining transition (end-of-stream).
	Drain(emit func(core.Event))
	// Now returns the current stream time.
	Now() float64
	// Live returns the number of objects inside the windows.
	Live() int
	// Each calls fn for every live object with ID >= from in arrival (= ID)
	// order; past reports whether the object has already moved from Wc into
	// Wp. The queues are the live set: checkpoints walk it from 0, and a
	// top-k detector catching its chain up walks only the objects it held
	// back. Both queues are ID-ordered, so the start is a binary search and
	// the walk costs O(log live + objects visited).
	Each(from uint64, fn func(o core.Object, past bool))
	// Reserve makes room for n more arrivals (a checkpoint restore).
	Reserve(n int)
}

// Engine generates window-transition events from a time-ordered object
// stream. The zero value is not usable; use New.
type Engine struct {
	wc, wp float64
	now    float64
	nextID uint64
	count  int // objects currently inside Wc or Wp

	grown   queue // objects waiting to move Wc -> Wp, due at T+wc
	expired queue // objects waiting to leave Wp, due at T+wc+wp
}

// New returns an engine with the given current and past window lengths.
func New(wc, wp float64) (*Engine, error) {
	if !(wc > 0) || !(wp > 0) {
		return nil, errors.New("window: window lengths must be positive")
	}
	return &Engine{wc: wc, wp: wp, now: negInf}, nil
}

const negInf = -1.7976931348623157e308

// Now returns the current stream time (the largest time observed so far).
func (e *Engine) Now() float64 { return e.now }

// Live returns the number of objects currently inside either window.
func (e *Engine) Live() int { return e.count }

// Each implements Source: every object of expired (in Wp) arrived before
// every object of grown (still in Wc), and each queue is in arrival order.
func (e *Engine) Each(from uint64, fn func(o core.Object, past bool)) {
	e.expired.each(from, fn, true)
	e.grown.each(from, fn, false)
}

// Reserve implements Source: arrivals enter the Wc queue, past ones the Wp.
func (e *Engine) Reserve(n int) {
	e.grown.items = slices.Grow(e.grown.items, n)
	e.expired.items = slices.Grow(e.expired.items, n)
}

// Push advances the clock to o.T and feeds the object into the stream. All
// Grown/Expired events due at or before o.T are emitted first, then the New
// event for o. The object is assigned a fresh ID, which is returned. emit
// must not be nil.
func (e *Engine) Push(o core.Object, emit func(core.Event)) (uint64, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	if o.T < e.now {
		return 0, fmt.Errorf("window: out-of-order object at t=%v before stream time %v", o.T, e.now)
	}
	e.flush(o.T, emit)
	e.now = o.T
	e.nextID++
	o.ID = e.nextID
	e.count++
	e.grown.push(o)
	emit(core.Event{Kind: core.New, Obj: o})
	return o.ID, nil
}

// Advance moves the clock to t without a new arrival, emitting all
// Grown/Expired events that become due. Moving the clock backwards is an
// error.
func (e *Engine) Advance(t float64, emit func(core.Event)) error {
	if t < e.now {
		return fmt.Errorf("window: cannot advance backwards from %v to %v", e.now, t)
	}
	e.flush(t, emit)
	e.now = t
	return nil
}

// Drain emits the remaining Grown/Expired events for every object still in
// the windows, advancing the clock to the last due time. It is useful at
// end-of-stream.
func (e *Engine) Drain(emit func(core.Event)) {
	last := e.now
	if o, ok := e.expired.peek(); ok {
		last = o.T + e.wc + e.wp
	}
	if o, ok := e.grown.last(); ok {
		if due := o.T + e.wc + e.wp; due > last {
			last = due
		}
	}
	e.flush(last, emit)
	if last > e.now {
		e.now = last
	}
}

// flush emits every pending event with due time <= t, in due-time order.
// When a Grown and an Expired event share a due time the Expired event (for
// the older object) is emitted first; the relative order of events for
// distinct objects at the same instant does not affect the window contents.
func (e *Engine) flush(t float64, emit func(core.Event)) {
	for {
		g, gok := e.grown.peek()
		x, xok := e.expired.peek()
		gdue := g.T + e.wc
		xdue := x.T + e.wc + e.wp
		switch {
		case xok && xdue <= t && (!gok || xdue <= gdue):
			e.expired.pop()
			e.count--
			emit(core.Event{Kind: core.Expired, Obj: x})
		case gok && gdue <= t:
			e.grown.pop()
			e.expired.push(g)
			emit(core.Event{Kind: core.Grown, Obj: g})
		default:
			return
		}
	}
}

// queue is a FIFO of objects backed by a slice with a head index; the
// backing array is compacted opportunistically so that total work stays
// amortised O(1) per element.
type queue struct {
	items []core.Object
	head  int
}

func (q *queue) push(o core.Object) { q.items = append(q.items, o) }

func (q *queue) peek() (core.Object, bool) {
	if q.head >= len(q.items) {
		return core.Object{}, false
	}
	return q.items[q.head], true
}

func (q *queue) last() (core.Object, bool) {
	if q.head >= len(q.items) {
		return core.Object{}, false
	}
	return q.items[len(q.items)-1], true
}

func (q *queue) pop() (core.Object, bool) {
	if q.head >= len(q.items) {
		return core.Object{}, false
	}
	o := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return o, true
}

func (q *queue) len() int { return len(q.items) - q.head }

// each calls fn for every queued object with ID >= from; the queue is in
// arrival order, so IDs ascend.
func (q *queue) each(from uint64, fn func(o core.Object, past bool), past bool) {
	live := q.items[q.head:]
	i, _ := slices.BinarySearchFunc(live, from, func(o core.Object, id uint64) int { return cmp.Compare(o.ID, id) })
	for _, o := range live[i:] {
		fn(o, past)
	}
}
