package gapsurge

import (
	"math/rand/v2"
	"testing"

	"surge/internal/core"
	"surge/internal/window"
)

// checkCells asserts the bookkeeping that ties cells, cell map and layer heap
// together (the heap's own heap[c.pos] == c invariant is cellheap's test): every
// mapped cell is in its layer's heap under its own packed key, and every
// recycled cell is out of all heaps and reset.
func checkCells(t *testing.T, e *Engine, when string) {
	t.Helper()
	for li := range e.layers {
		l := &e.layers[li]
		if l.heap.Len() != len(l.cells) {
			t.Fatalf("%s: layer %d heap holds %d cells, map %d", when, li, l.heap.Len(), len(l.cells))
		}
		for pk, c := range l.cells {
			if c.pos < 0 || c.pos >= l.heap.Len() || c.key.Pack() != pk || c.head == len(c.objs) {
				t.Fatalf("%s: layer %d cell %+v under key %#x: pos %d, %d live objects", when, li, c.key, pk, c.pos, len(c.objs)-c.head)
			}
			if c.head < 0 || c.head > c.grown || c.grown > len(c.objs) {
				t.Fatalf("%s: layer %d cell %+v: cursors head %d grown %d len %d", when, li, c.key, c.head, c.grown, len(c.objs))
			}
		}
	}
	for _, c := range e.free {
		if c.pos != -1 || c.head != 0 || c.grown != 0 || c.fc != 0 || c.fp != 0 || len(c.objs) != 0 {
			t.Fatalf("%s: recycled cell not reset: %+v", when, *c)
		}
	}
}

// TestCellHeapBookkeeping checks the invariants after every event of a
// stream whose cells keep emptying and refilling, with the pop-and-reinstate
// rounds of BestK and of the masked ProblemBest interleaved.
func TestCellHeapBookkeeping(t *testing.T) {
	for _, multi := range []bool{false, true} {
		cfg := core.Config{Width: 1, Height: 1, WC: 5, WP: 5, Alpha: 0.5}
		e, err := NewTopK(cfg, multi, 3)
		if err != nil {
			t.Fatal(err)
		}
		win, err := window.New(cfg.WC, cfg.WP)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(29, 31))
		step := 0
		recycled := false
		emit := func(ev core.Event) {
			e.Process(ev)
			checkCells(t, e, "after Process")
			recycled = recycled || len(e.free) > 0
			if step%5 == 0 {
				top := e.BestK()
				checkCells(t, e, "after BestK")
				for i, r := range top { // the cross-shard chain's protocol
					e.ProblemBest(i + 1)
					e.ApplyRank(i+1, core.Result{}, r)
					checkCells(t, e, "after ProblemBest")
				}
			}
			step++
		}
		tm := 0.0
		for i := 0; i < 1500; i++ {
			tm += rng.ExpFloat64() * 0.1
			o := core.Object{X: rng.Float64()*12 - 6, Y: rng.Float64()*12 - 6, Weight: 1 + rng.Float64(), T: tm}
			if _, err := win.Push(o, emit); err != nil {
				t.Fatal(err)
			}
		}
		if !recycled {
			t.Fatal("no cell was ever recycled; the stream lost its coverage")
		}
		win.Drain(emit)
		for li := range e.layers {
			if n := len(e.layers[li].cells); n != 0 {
				t.Fatalf("layer %d keeps %d cells after drain", li, n)
			}
		}
	}
}
