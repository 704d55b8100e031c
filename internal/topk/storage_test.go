package topk

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"surge/internal/core"
	"surge/internal/geom"
	"surge/internal/grid"
	"surge/internal/window"
)

const (
	entrySize  = int(unsafe.Sizeof(uint32(0)))
	recordSize = int(unsafe.Sizeof(kobj{}))
)

// census returns the bytes of the engine's live cell entries and records,
// and the bytes of entry and ring capacity it retains, counting the
// recycled cells of the free list too.
func census(e *KCCS) (live, retained int) {
	for _, c := range e.cells {
		live += c.live() * entrySize
		retained += cap(c.objs) * entrySize
	}
	for _, c := range e.free {
		retained += cap(c.objs) * entrySize
	}
	live += int(e.rtail-e.rhead) * recordSize
	retained += len(e.ring) * recordSize
	return live, retained
}

// liveIDs returns the ids of the cell's live entries.
func liveIDs(e *KCCS, c *kcell) []uint64 {
	ids := make([]uint64, 0, c.live())
	for _, s := range c.objs[c.head:] {
		ids = append(ids, e.rec(s).id)
	}
	return ids
}

// holds reports whether the cell holds the object with the given id.
func holds(e *KCCS, c *kcell, id uint64) bool {
	return slices.Contains(liveIDs(e, c), id)
}

// checkFIFO asserts that every cell is a non-empty arrival-ordered FIFO of
// live records.
func checkFIFO(t *testing.T, e *KCCS, step int) {
	t.Helper()
	for _, c := range e.cells {
		if c.head < 0 || c.head > len(c.objs) || c.live() == 0 {
			t.Fatalf("event %d: cell %v has head %d of %d entries", step, c.key, c.head, len(c.objs))
		}
		live := c.objs[c.head:]
		for j, s := range live {
			if s-e.rhead >= e.rtail-e.rhead || e.rec(s).dead {
				t.Fatalf("event %d: cell %v holds seq %d outside the live ring [%d, %d)", step, c.key, s, e.rhead, e.rtail)
			}
			if j > 0 && e.rec(s).id <= e.rec(live[j-1]).id {
				t.Fatalf("event %d: cell %v live ids not ascending at %d: %d after %d", step, c.key, j, e.rec(s).id, e.rec(live[j-1]).id)
			}
		}
	}
}

// checkRing asserts the ring invariants: it holds exactly the accepted,
// unexpired objects (want, in arrival order), ids ascending; every record
// with cached cells is in each of them and they are the map's cells; the
// Grown cursor lies within the live range with only grown records before
// it; and every slot outside the live range is zero.
func checkRing(t *testing.T, e *KCCS, want []uint64, step int) {
	t.Helper()
	n := e.rtail - e.rhead
	if int(n) > len(e.ring) || e.rgrow-e.rhead > n {
		t.Fatalf("event %d: cursors head %d grow %d tail %d over a ring of %d", step, e.rhead, e.rgrow, e.rtail, len(e.ring))
	}
	var got []uint64
	for s := e.rhead; s != e.rtail; s++ {
		r := e.rec(s)
		if r.dead {
			continue
		}
		if s-e.rhead < e.rgrow-e.rhead && !r.past {
			t.Fatalf("event %d: seq %d (id %d) is before the Grown cursor %d but not past", step, s, r.id, e.rgrow)
		}
		got = append(got, r.id)
		for _, c := range r.cells[:r.nc] {
			if e.cells[c.key.Pack()] != c {
				t.Fatalf("event %d: id %d caches cell %v, which is not live", step, r.id, c.key)
			}
			if _, ok := e.indexIn(c, s); !ok {
				t.Fatalf("event %d: id %d caches cell %v, which does not hold it", step, r.id, c.key)
			}
		}
	}
	if !slices.Equal(got, want) || !slices.IsSorted(got) {
		t.Fatalf("event %d: ring holds ids %v, want %v", step, got, want)
	}
	for s := e.rtail; s != e.rhead+uint32(len(e.ring)); s++ {
		if *e.rec(s) != (kobj{}) {
			t.Fatalf("event %d: popped slot of seq %d is not zero: %+v", step, s, *e.rec(s))
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
			var accepted []uint64                    // ids the ring must hold, in arrival order
			step := 0
			apply := func(ev core.Event) {
				step++
				o := ev.Obj
				var held map[*kcell][]uint64
				switch ev.Kind {
				case core.New:
					if cfg.InArea(o) && len(e.grid.CoverCellsOwned(nil, o.X, o.Y, cfg.Width, cfg.Height, cfg.Cols)) > 0 {
						accepted = append(accepted, o.ID)
					}
				case core.Expired:
					accepted = slices.DeleteFunc(accepted, func(id uint64) bool { return id == o.ID })
					held = map[*kcell][]uint64{}
					for _, c := range e.cells {
						if holds(e, c, o.ID) {
							if oldest := e.rec(c.objs[c.head]).id; oldest != o.ID {
								t.Fatalf("event %d: expiring %d but cell %v's oldest entry is %d", step, o.ID, c.key, oldest)
							}
							held[c] = liveIDs(e, c)
						}
					}
				}
				e.Process(ev)
				checkFIFO(t, e, step)
				checkRing(t, e, accepted, step)
				for c, before := range held {
					if e.cells[c.key.Pack()] != c {
						if len(before) != 1 {
							t.Fatalf("event %d: cell %v dropped with %d live entries", step, c.key, len(before)-1)
						}
						continue
					}
					if after := liveIDs(e, c); !slices.Equal(after, before[1:]) {
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
// does, and bounds the bytes of entry and ring capacity the engine retains
// by three times the bytes of its live entries and records: append doubling
// alone can leave twice the live entries and ring doubling twice the live
// records, and the rest is room for cells whose arrays grew when they held
// more.
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
			t.Fatalf("batch %d: %d bytes of capacity retained for %d live bytes (%.2fx)", b, c, n, float64(c)/float64(n))
		}
	}
}

// TestEntrySizes pins the layout the memory budget is built on: a 4-byte
// cell entry, a record of at most 72 bytes per live object, and a cell that
// fits the 144-byte size class because the per-problem state of split cells
// lives behind a pointer.
func TestEntrySizes(t *testing.T) {
	if entrySize != 4 {
		t.Errorf("a cell entry is %d bytes, want 4", entrySize)
	}
	if recordSize > 72 {
		t.Errorf("kobj is %d bytes, want <= 72", recordSize)
	}
	if s := unsafe.Sizeof(kcell{}); s > 144 {
		t.Errorf("kcell is %d bytes, want <= 144", s)
	}
}

// TestRingWraparound starts engines' sequence numbers just below the uint32
// wrap and drives a stream across it, with an Area and a column ownership
// mask: their answers and Stats must be bitwise those of an engine whose
// ring starts at 0. The later start also doubles the ring after the wrap.
func TestRingWraparound(t *testing.T) {
	area := geom.Rect{MinX: -2, MinY: -3, MaxX: 7, MaxY: 6}
	starts := []uint32{1<<32 - 1000, 1<<32 - 100}
	for _, cols := range []*core.ColumnSet{nil, {Block: 2, Shards: 2, Index: 0}} {
		cfg := core.Config{Width: 1, Height: 1, WC: 30, WP: 20, Alpha: 0.5, Area: &area, Cols: cols}
		const k = 4
		zero, err := NewKCCS(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		var wraps []*KCCS
		for _, s := range starts {
			e, _ := NewKCCS(cfg, k)
			e.rhead, e.rtail, e.rgrow = s, s, s
			wraps = append(wraps, e)
		}
		win, err := window.New(cfg.WC, cfg.WP)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(21, 22))
		step, peak := 0, 0
		apply := func(ev core.Event) {
			step++
			zero.Process(ev)
			peak = max(peak, int(zero.rtail-zero.rhead))
			for _, e := range wraps {
				e.Process(ev)
			}
			if rng.IntN(8) != 0 {
				return
			}
			a := zero.BestK()
			for w, e := range wraps {
				b := e.BestK()
				for i := range a {
					if a[i].Found != b[i].Found || a[i].Point != b[i].Point ||
						math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
						math.Float64bits(a[i].FC) != math.Float64bits(b[i].FC) ||
						math.Float64bits(a[i].FP) != math.Float64bits(b[i].FP) {
						t.Fatalf("cols %v start %d event %d rank %d: from 0 %+v, across the wrap %+v", cols, starts[w], step, i, a[i], b[i])
					}
				}
			}
		}
		for _, o := range storageStream(rng, 3000, 0.1) {
			if _, err := win.Push(o, apply); err != nil {
				t.Fatal(err)
			}
		}
		win.Drain(apply)
		if peak <= minRing {
			t.Fatalf("cols %v: at most %d live records never doubled the ring", cols, peak)
		}
		for w, e := range wraps {
			if e.rtail > starts[w] {
				t.Fatalf("cols %v start %d: the stream did not cross the wrap (tail %d)", cols, starts[w], e.rtail)
			}
			if zero.Stats() != e.Stats() {
				t.Fatalf("cols %v start %d: Stats from 0 %+v, across the wrap %+v", cols, starts[w], zero.Stats(), e.Stats())
			}
		}
	}
}

// TestLoadMatchesEventBuild pins Load against the build it replaces: a twin
// engine shown every live object as New, then Grown if past, as a detector
// catching up does. Streams run on time and count windows, with an Area and
// column ownership masks, negative coordinates, timestamp ties, and anchors
// one ulp below the grid lines 1, 2 and 4, whose floating-point floors give
// them six or nine cells. Right after Load the loaded engine must hold the
// accepted objects as FIFOs of a well-formed ring with the Grown cursor on
// the first current record, leave every cell fresh and queued with its
// static bound the arrival-order fold of its current objects, retain at
// most three times its live bytes, count one event per object and one cell
// touch per entry, and report the twin's scores bitwise at every rank; then
// both take more than two windows of further events with a BestK per 64
// objects and must keep reporting the same scores.
func TestLoadMatchesEventBuild(t *testing.T) {
	area := geom.Rect{MinX: -2, MinY: -3, MaxX: 7, MaxY: 6}
	for _, tc := range []struct {
		name  string
		count bool
		area  bool
		cols  *core.ColumnSet
		k     int
		seed  uint64
	}{
		{"time", false, false, nil, 3, 11},
		{"time-area", false, true, nil, 5, 12},
		{"time-cols", false, false, &core.ColumnSet{Block: 2, Shards: 2, Index: 1}, 4, 13},
		{"count", true, false, nil, 3, 14},
		{"count-area-cols", true, true, &core.ColumnSet{Block: 1, Shards: 3, Index: 0}, 5, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Width: 1, Height: 1, WC: 30, WP: 20, Alpha: 0.5, Cols: tc.cols}
			if tc.area {
				cfg.Area = &area
			}
			var win window.Source
			var err error
			if tc.count {
				win, err = window.NewCount(90, 60)
			} else {
				win, err = window.New(cfg.WC, cfg.WP)
			}
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(tc.seed, 78))
			objs := storageStream(rng, 2000, 0.4)
			cells := map[int]int{}
			for i := range objs {
				if i%7 == 0 {
					b := math.Nextafter(float64(int(1)<<rng.IntN(3)), 0)
					objs[i].X = b
					if rng.IntN(2) == 0 {
						objs[i].Y = b
					}
				}
				cells[len(grid.Aligned(1, 1).CoverCells(nil, objs[i].X, objs[i].Y, 1, 1))]++
			}
			if cells[6] == 0 || cells[9] == 0 {
				t.Fatalf("stream has no six- or nine-cell objects: %v", cells)
			}
			half := len(objs) / 2
			for _, o := range objs[:half] {
				if _, err := win.Push(o, func(core.Event) {}); err != nil {
					t.Fatal(err)
				}
			}

			twin, err := NewKCCS(cfg, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			loaded, _ := NewKCCS(cfg, tc.k)
			var live []core.LiveObject
			var accepted []uint64
			win.Each(0, func(o core.Object, past bool) {
				live = append(live, core.LiveObject{Obj: o, Past: past})
				twin.Process(core.Event{Kind: core.New, Obj: o})
				if past {
					twin.Process(core.Event{Kind: core.Grown, Obj: o})
				}
				if cfg.InArea(o) && len(loaded.grid.CoverCellsOwned(nil, o.X, o.Y, 1, 1, cfg.Cols)) > 0 {
					accepted = append(accepted, o.ID)
				}
			})
			loaded.Load(live)
			checkFIFO(t, loaded, 0)
			checkRing(t, loaded, accepted, 0)
			grow := loaded.rhead
			for grow != loaded.rtail && loaded.rec(grow).past {
				grow++
			}
			if loaded.rgrow != grow {
				t.Fatalf("Grown cursor at %d, first current record at %d", loaded.rgrow, grow)
			}
			for _, c := range loaded.cells {
				var us float64
				cur := 0
				for _, s := range c.objs[c.head:] {
					if r := loaded.rec(s); !r.past {
						us += r.wt / cfg.WC
						cur++
					}
				}
				if math.Float64bits(c.sus) != math.Float64bits(us) || c.susCur != cur || !math.IsInf(c.sud, 1) || c.scand.valid || !c.queued || c.split {
					t.Fatalf("cell %v after Load: sus %v over %d current, sud %v, candidate %+v, queued %v, split %v; want sus %v over %d, +Inf, invalid, queued, unsplit",
						c.key, c.sus, c.susCur, c.sud, c.scand, c.queued, c.split, us, cur)
				}
			}
			if n, c := census(loaded); c > 3*n {
				t.Fatalf("Load retains %d bytes of capacity for %d live bytes (%.2fx)", c, n, float64(c)/float64(n))
			}
			entries := 0
			for _, c := range loaded.cells {
				entries += c.live()
			}
			if st := loaded.Stats(); st.Events != uint64(len(accepted)) || st.CellsTouched != uint64(entries) {
				t.Fatalf("Stats after Load %+v, want %d events and %d cell touches", st, len(accepted), entries)
			}
			same := func(step int) {
				t.Helper()
				a, b := twin.BestK(), loaded.BestK()
				for i := range a {
					if a[i].Found != b[i].Found || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
						t.Fatalf("object %d rank %d: event by event %+v, loaded %+v", step, i, a[i], b[i])
					}
					if a[i].Point != b[i].Point {
						break // an exact tie: the ranks below exclude other objects
					}
					if math.Float64bits(a[i].FC) != math.Float64bits(b[i].FC) || math.Float64bits(a[i].FP) != math.Float64bits(b[i].FP) {
						t.Fatalf("object %d rank %d: event by event %+v, loaded %+v", step, i, a[i], b[i])
					}
				}
			}
			same(half)

			both := func(ev core.Event) {
				twin.Process(ev)
				loaded.Process(ev)
			}
			for i, o := range objs[half:] {
				if _, err := win.Push(o, both); err != nil {
					t.Fatal(err)
				}
				if i%64 == 63 {
					same(half + i)
					checkFIFO(t, loaded, half+i)
				}
			}
		})
	}
}
