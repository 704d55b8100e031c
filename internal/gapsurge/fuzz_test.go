package gapsurge

import (
	"math"
	"testing"

	"surge/internal/core"
	"surge/internal/grid"
	"surge/internal/window"
)

// FuzzGAPS drives GAPS and MGAPS through time and count windows over a
// stream decoded from the input, and checks the FIFO cells after every
// event: the cell bookkeeping (checkCells, which includes head <= grown <=
// len), each live cell's past and current counts against a recount, and
// each live cell's fold against, bitwise, the arrival-order recount of the
// live objects. The recount is kept from the events and checked against
// the window's own live set (window.Each) after every push: a count window
// moves its queues before it emits, so mid-push the two differ by design.
//
// Input: byte 0 picks the window kind, the variant and the cell size, bytes
// 1-2 the window lengths, and every further 4 bytes one object — x and y on
// a grid line, half a cell off it, a third of one, or one ulp below it, in
// cells -32..31; a time step that is zero (a tie) one time in four; a
// weight of exactly 1 or an arbitrary one, zero included.
func FuzzGAPS(f *testing.F) {
	f.Add([]byte{0, 3, 3, 4, 4, 0, 1, 5, 4, 0, 1, 9, 9, 8, 200, 4, 5, 3, 1})
	f.Add([]byte{3, 2, 5, 0xfc, 0x81, 0, 0x90, 0x06, 0xfe, 4, 1, 0, 0, 0, 0x85, 0x42, 0x43, 9, 0xff})
	f.Add([]byte{5, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{6, 7, 0, 0x7d, 0x7e, 12, 0x99, 0x7d, 0x7e, 0, 0x99, 0x7d, 0x7e, 0, 0x99, 0x81, 0x82, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		const maxObjs = 256
		counted, multi := in[0]&1 != 0, in[0]&2 != 0
		cw := 1.0
		if in[0]&4 != 0 {
			cw = 0.3 // not a power of two: cell boundaries round
		}
		cfg := core.Config{Width: cw, Height: cw, WC: float64(1 + in[1]%8), WP: float64(1 + in[2]%8), Alpha: 0.5}
		e, err := NewTopK(cfg, multi, 2)
		if err != nil {
			t.Fatal(err)
		}
		var win window.Source
		if counted {
			win, err = window.NewCount(int(cfg.WC), int(cfg.WP))
		} else {
			win, err = window.New(cfg.WC, cfg.WP)
		}
		if err != nil {
			t.Fatal(err)
		}
		var live []core.Event // the recount: live objects in arrival order, Kind Grown when past
		emit := func(ev core.Event) {
			e.Process(ev)
			switch ev.Kind {
			case core.New:
				live = append(live, ev)
			case core.Grown:
				for i := range live {
					if live[i].Obj.ID == ev.Obj.ID {
						live[i].Kind = core.Grown
					}
				}
			case core.Expired:
				for i := range live {
					if live[i].Obj.ID == ev.Obj.ID {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			checkCells(t, e, ev.Kind.String())
			checkRecount(t, e, live)
		}
		coord := func(b byte) float64 {
			c := float64(int8(b) >> 2)
			switch b & 3 {
			case 0:
				return c * cw // on a grid line
			case 1:
				return (c + 0.5) * cw // on a shifted grid's line
			case 2:
				return c*cw + cw/3
			default:
				return math.Nextafter(c*cw, math.Inf(-1))
			}
		}
		tm := 0.0
		for i := 3; i+4 <= len(in) && i < 3+4*maxObjs; i += 4 {
			if in[i+2]%4 != 0 {
				tm += float64(in[i+2]) / 32
			}
			w := 1.0
			if in[i+3]&0x80 != 0 {
				w = float64(in[i+3]&0x7f) / 7.3
			}
			if _, err := win.Push(core.Object{X: coord(in[i]), Y: coord(in[i+1]), Weight: w, T: tm}, emit); err != nil {
				t.Fatal(err)
			}
			n := 0
			win.Each(0, func(o core.Object, past bool) {
				if n >= len(live) || live[n].Obj.ID != o.ID || (live[n].Kind == core.Grown) != past {
					t.Fatalf("after push %d the recount departs from the window at live object %d (ID %d)", i/4, n, o.ID)
				}
				n++
			})
			if n != len(live) {
				t.Fatalf("after push %d the window holds %d live objects, the recount %d", i/4, n, len(live))
			}
		}
		win.Drain(emit)
		for li := range e.layers {
			if n := len(e.layers[li].cells); n != 0 {
				t.Fatalf("layer %d keeps %d cells after drain", li, n)
			}
		}
	})
}

// checkRecount recounts every layer's cells from the live objects in arrival
// order and requires each engine cell to hold the same past and current
// counts and to fold to bitwise the same sums.
func checkRecount(t *testing.T, e *Engine, live []core.Event) {
	t.Helper()
	type sums struct {
		fc, fp float64
		nc, np int
	}
	for li := range e.layers {
		l := &e.layers[li]
		ref := map[grid.Cell]*sums{}
		for _, ev := range live {
			if !e.cfg.InArea(ev.Obj) {
				continue
			}
			ck := l.g.CellOf(ev.Obj.X, ev.Obj.Y)
			r := ref[ck]
			if r == nil {
				r = &sums{}
				ref[ck] = r
			}
			if ev.Kind == core.Grown {
				r.fp += ev.Obj.Weight / e.cfg.WP
				r.np++
			} else {
				r.fc += ev.Obj.Weight / e.cfg.WC
				r.nc++
			}
		}
		if len(ref) != len(l.cells) {
			t.Fatalf("layer %d: %d cells hold live objects, the engine keeps %d", li, len(ref), len(l.cells))
		}
		for ck, r := range ref {
			c := l.cells[ck.Pack()]
			if c == nil {
				t.Fatalf("layer %d: cell %+v holds %d+%d live objects but is not kept", li, ck, r.nc, r.np)
			}
			if c.grown-c.head != r.np || len(c.objs)-c.grown != r.nc {
				t.Fatalf("layer %d cell %+v: cursors give %d past and %d current objects, the recount %d and %d",
					li, ck, c.grown-c.head, len(c.objs)-c.grown, r.np, r.nc)
			}
			fc, fp := c.fold(e.cfg)
			if math.Float64bits(fc) != math.Float64bits(r.fc) || math.Float64bits(fp) != math.Float64bits(r.fp) {
				t.Fatalf("layer %d cell %+v: fold (%v, %v), recount (%v, %v)", li, ck, fc, fp, r.fc, r.fp)
			}
		}
	}
}
