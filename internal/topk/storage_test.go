package topk

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"surge/internal/core"
	"surge/internal/geom"
	"surge/internal/window"
)

// census returns the engine's live cell entries and the entry capacity it
// retains, counting the recycled cells of the free list too.
func census(e *KCCS) (live, capacity int) {
	for _, c := range e.cells {
		live += c.live()
		capacity += cap(c.objs)
	}
	for _, c := range e.free {
		capacity += cap(c.objs)
	}
	return live, capacity
}

// liveIDs returns the ids of the cell's live entries.
func liveIDs(c *kcell) []uint64 {
	ids := make([]uint64, 0, c.live())
	for _, g := range c.objs[c.head:] {
		ids = append(ids, g.id)
	}
	return ids
}

// checkFIFO asserts that every cell is a non-empty arrival-ordered FIFO.
func checkFIFO(t *testing.T, e *KCCS, step int) {
	t.Helper()
	for _, c := range e.cells {
		if c.head < 0 || c.head > len(c.objs) || c.live() == 0 {
			t.Fatalf("event %d: cell %v has head %d of %d entries", step, c.key, c.head, len(c.objs))
		}
		live := c.objs[c.head:]
		for j := 1; j < len(live); j++ {
			if live[j].id <= live[j-1].id {
				t.Fatalf("event %d: cell %v live ids not ascending at %d: %d after %d", step, c.key, j, live[j].id, live[j-1].id)
			}
		}
	}
}

// checkFlushed asserts that a query left no expired entry in any cell.
func checkFlushed(t *testing.T, e *KCCS, step int, after string) {
	t.Helper()
	for _, c := range e.cells {
		if c.head != 0 {
			t.Fatalf("event %d: cell %v has head %d after %s", step, c.key, c.head, after)
		}
	}
}

// storageStream is a random stream with timestamp ties (a third of the
// objects share their predecessor's time), negative coordinates and a
// hotspot that gives some cells long entry lists.
func storageStream(rng *rand.Rand, n int, meanGap float64) []core.Object {
	objs := make([]core.Object, n)
	t := 0.0
	for i := range objs {
		if rng.IntN(3) != 0 {
			t += rng.ExpFloat64() * meanGap
		}
		o := core.Object{X: rng.Float64()*12 - 4, Y: rng.Float64()*12 - 4, Weight: 1 + rng.Float64()*99, T: t}
		if rng.IntN(3) == 0 {
			o.X, o.Y = 1.5+rng.Float64()*1.5, 2+rng.Float64()*1.5
		}
		objs[i] = o
	}
	return objs
}

// TestCellStorageIsFIFO pins the storage discipline of kCCS cells on time
// and count windows, with an Area and with a column ownership mask: after
// every event each cell's live entries ascend by id, every Expired event
// removes the oldest entry of each cell holding the object and nothing
// else, and every query (BestK, or a one-shard chain of ProblemBest and
// ApplyRank) leaves no expired entry behind.
func TestCellStorageIsFIFO(t *testing.T) {
	area := geom.Rect{MinX: -2, MinY: -3, MaxX: 7, MaxY: 6}
	for _, tc := range []struct {
		name  string
		count bool
		area  bool
		cols  *core.ColumnSet
		k     int
		seed  uint64
	}{
		{"time", false, false, nil, 3, 1},
		{"time-area", false, true, nil, 5, 2},
		{"time-cols", false, false, &core.ColumnSet{Block: 2, Shards: 2, Index: 1}, 4, 3},
		{"count", true, false, nil, 3, 4},
		{"count-area-cols", true, true, &core.ColumnSet{Block: 1, Shards: 3, Index: 0}, 5, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Width: 1, Height: 1, WC: 30, WP: 20, Alpha: 0.5, Cols: tc.cols}
			if tc.area {
				cfg.Area = &area
			}
			e, err := NewKCCS(cfg, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			var win window.Source
			if tc.count {
				win, err = window.NewCount(90, 60)
			} else {
				win, err = window.New(cfg.WC, cfg.WP)
			}
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(tc.seed, 77))
			committed := make([]core.Result, tc.k+1) // the one-shard chain's ranks, 1-based
			step := 0
			apply := func(ev core.Event) {
				step++
				var held map[*kcell][]uint64
				if ev.Kind == core.Expired {
					held = map[*kcell][]uint64{}
					for _, c := range e.cells {
						if _, ok := c.lookup(ev.Obj.ID); ok {
							if c.objs[c.head].id != ev.Obj.ID {
								t.Fatalf("event %d: expiring %d but cell %v's oldest entry is %d", step, ev.Obj.ID, c.key, c.objs[c.head].id)
							}
							held[c] = liveIDs(c)
						}
					}
				}
				e.Process(ev)
				checkFIFO(t, e, step)
				for c, before := range held {
					if e.cells[c.key.Pack()] != c {
						if len(before) != 1 {
							t.Fatalf("event %d: cell %v dropped with %d live entries", step, c.key, len(before)-1)
						}
						continue
					}
					if after := liveIDs(c); !slices.Equal(after, before[1:]) {
						t.Fatalf("event %d: expiring %d turned cell %v's ids %v into %v", step, ev.Obj.ID, c.key, before, after)
					}
				}
				switch rng.IntN(8) {
				case 0:
					e.BestK()
					checkFlushed(t, e, step, "BestK")
				case 1:
					for i := 1; i <= tc.k; i++ {
						r := e.ProblemBest(i)
						checkFlushed(t, e, step, "ProblemBest")
						e.ApplyRank(i, committed[i], r)
						committed[i] = r
					}
				}
			}
			for _, o := range storageStream(rng, 3000, 0.4) {
				if _, err := win.Push(o, apply); err != nil {
					t.Fatal(err)
				}
			}
			win.Drain(apply)
			if len(e.cells) != 0 {
				t.Fatalf("%d cells left after the drain", len(e.cells))
			}
		})
	}
}

// TestCellStorageStaysCompact runs a long steady stream with a hotspot and
// a sparse background, querying once per 512-object batch as the server
// does, and bounds the entry capacity the engine retains by three times its
// live entries: append doubling alone can leave twice the live entries, and
// the rest is room for cells whose arrays grew when they held more.
func TestCellStorageStaysCompact(t *testing.T) {
	const (
		batch = 512
		live  = 20000
	)
	cfg := core.Config{Width: 1, Height: 1, WC: 100, WP: 100, Alpha: 0.5}
	e, err := NewKCCS(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	win, err := window.New(cfg.WC, cfg.WP)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	gap := (cfg.WC + cfg.WP) / live
	now := 0.0
	for b := 0; now < 6*(cfg.WC+cfg.WP); b++ {
		for range batch {
			now += rng.ExpFloat64() * gap
			o := core.Object{X: rng.Float64() * 200, Y: rng.Float64() * 200, Weight: 1 + rng.Float64()*99, T: now}
			if rng.IntN(5) < 2 {
				o.X, o.Y = 100+rng.NormFloat64()*8, 100+rng.NormFloat64()*8
			}
			if _, err := win.Push(o, e.Process); err != nil {
				t.Fatal(err)
			}
		}
		e.BestK()
		if now < 2*(cfg.WC+cfg.WP) {
			continue // windows still filling
		}
		if n, c := census(e); c > 3*n {
			t.Fatalf("batch %d: %d entries of capacity retained for %d live entries (%.2fx)", b, c, n, float64(c)/float64(n))
		}
	}
}

// TestEntrySizes pins the layout the memory budget is built on: a 40-byte
// entry, and a cell that fits the 144-byte size class because the
// per-problem state of split cells lives behind a pointer.
func TestEntrySizes(t *testing.T) {
	if s := unsafe.Sizeof(kobj{}); s != 40 {
		t.Errorf("kobj is %d bytes, want 40", s)
	}
	if s := unsafe.Sizeof(kcell{}); s > 144 {
		t.Errorf("kcell is %d bytes, want <= 144", s)
	}
}
