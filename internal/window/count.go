package window

import (
	"errors"
	"fmt"
	"slices"

	"surge/internal/core"
)

// CountEngine generates window-transition events for count-based sliding
// windows: the current window holds the most recent Nc objects and the past
// window the Np objects before those. It is the classic alternative to the
// paper's time-based windows; the detection engines are event-driven and
// work unchanged on either generator (with window "lengths" Nc and Np used
// for score normalisation).
type CountEngine struct {
	nc, np int
	now    float64
	nextID uint64

	cur  queue // most recent nc objects
	past queue // the np before those
}

// NewCount returns a count-based window engine holding the last nc objects
// in the current window and the np before those in the past window.
func NewCount(nc, np int) (*CountEngine, error) {
	if nc <= 0 || np <= 0 {
		return nil, errors.New("window: window counts must be positive")
	}
	return &CountEngine{nc: nc, np: np, now: negInf}, nil
}

// Now returns the current stream time (the largest time observed so far).
func (e *CountEngine) Now() float64 { return e.now }

// Live returns the number of objects currently inside either window.
func (e *CountEngine) Live() int { return e.cur.len() + e.past.len() }

// Each implements Source: the past window holds the older objects.
func (e *CountEngine) Each(from uint64, fn func(o core.Object, past bool)) {
	e.past.each(from, fn, true)
	e.cur.each(from, fn, false)
}

// Reserve implements Source: the current window holds at most nc objects.
func (e *CountEngine) Reserve(n int) { e.cur.items = slices.Grow(e.cur.items, min(n, e.nc)) }

// Push feeds one object: it enters the current window (New); if the current
// window overflows, its oldest object moves to the past window (Grown); if
// the past window overflows, its oldest object leaves (Expired). Expired
// and Grown are emitted before the New event so window occupancy never
// exceeds nc+np.
func (e *CountEngine) Push(o core.Object, emit func(core.Event)) (uint64, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	if o.T < e.now {
		return 0, fmt.Errorf("window: out-of-order object at t=%v before stream time %v", o.T, e.now)
	}
	e.now = o.T
	if e.cur.len() == e.nc {
		g, _ := e.cur.pop()
		e.past.push(g)
		if e.past.len() > e.np {
			x, _ := e.past.pop()
			emit(core.Event{Kind: core.Expired, Obj: x})
		}
		emit(core.Event{Kind: core.Grown, Obj: g})
	}
	e.nextID++
	o.ID = e.nextID
	e.cur.push(o)
	emit(core.Event{Kind: core.New, Obj: o})
	return o.ID, nil
}

// Advance moves the stream clock without an arrival. Count-based windows do
// not expire with time, so no events are emitted.
func (e *CountEngine) Advance(t float64, emit func(core.Event)) error {
	if t < e.now {
		return fmt.Errorf("window: cannot advance backwards from %v to %v", e.now, t)
	}
	e.now = t
	return nil
}

// Drain emits Grown and Expired events for every remaining object, leaving
// both windows empty (useful at end-of-stream).
func (e *CountEngine) Drain(emit func(core.Event)) {
	for {
		if x, ok := e.past.pop(); ok {
			emit(core.Event{Kind: core.Expired, Obj: x})
			continue
		}
		g, ok := e.cur.pop()
		if !ok {
			return
		}
		emit(core.Event{Kind: core.Grown, Obj: g})
		e.past.push(g)
	}
}
