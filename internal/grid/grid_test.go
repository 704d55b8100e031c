package grid

import (
	"math"
	"math/rand/v2"
	"testing"

	"surge/internal/core"
	"surge/internal/geom"
)

func TestCellOfPartition(t *testing.T) {
	g := Aligned(2, 3)
	cases := []struct {
		x, y float64
		want Cell
	}{
		{0, 0, Cell{0, 0}},
		{1.999, 2.999, Cell{0, 0}},
		{2, 3, Cell{1, 1}},
		{-0.001, -0.001, Cell{-1, -1}},
		{-2, -3, Cell{-1, -1}},
		{-2.001, -3.001, Cell{-2, -2}},
	}
	for _, c := range cases {
		if got := g.CellOf(c.x, c.y); got != c.want {
			t.Errorf("CellOf(%v,%v) = %+v, want %+v", c.x, c.y, got, c.want)
		}
	}
}

func TestCellRectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	grids := []Grid{
		Aligned(1.5, 2.5),
		Shifted(1.5, 2.5, 0.5, 0),
		Shifted(1.5, 2.5, 0, 0.5),
		Shifted(1.5, 2.5, 0.5, 0.5),
	}
	for _, g := range grids {
		for trial := 0; trial < 2000; trial++ {
			x := (rng.Float64() - 0.5) * 40
			y := (rng.Float64() - 0.5) * 40
			c := g.CellOf(x, y)
			r := g.CellRect(c)
			if !r.ContainsCO(geom.Point{X: x, Y: y}) {
				t.Fatalf("grid %+v: point (%v,%v) not in its cell rect %+v", g, x, y, r)
			}
			// Neighbouring cells must not contain it (partition property).
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					if di == 0 && dj == 0 {
						continue
					}
					nr := g.CellRect(Cell{c.I + di, c.J + dj})
					if nr.ContainsCO(geom.Point{X: x, Y: y}) {
						t.Fatalf("point (%v,%v) in two cells", x, y)
					}
				}
			}
		}
	}
}

func TestFourGridsOffsets(t *testing.T) {
	gs := FourGrids(2, 4)
	wantOff := [4][2]float64{{0, 0}, {1, 0}, {0, 2}, {1, 2}}
	for i, g := range gs {
		if g.OffX != wantOff[i][0] || g.OffY != wantOff[i][1] {
			t.Errorf("grid %d offsets = (%v,%v), want %v", i, g.OffX, g.OffY, wantOff[i])
		}
		if g.CW != 2 || g.CH != 4 {
			t.Errorf("grid %d cell size = %v x %v", i, g.CW, g.CH)
		}
	}
}

// TestCoverCellsLemma1: with cell size equal to the rectangle size, a
// rectangle object overlaps at most (here: exactly) four cells.
func TestCoverCellsLemma1(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	g := Aligned(1.5, 2.5)
	for trial := 0; trial < 3000; trial++ {
		x := (rng.Float64() - 0.5) * 30
		y := (rng.Float64() - 0.5) * 30
		cells := g.CoverCells(nil, x, y, 1.5, 2.5)
		if len(cells) != 4 {
			t.Fatalf("rect at (%v,%v) overlaps %d cells, want 4", x, y, len(cells))
		}
		seen := map[Cell]bool{}
		for _, c := range cells {
			if seen[c] {
				t.Fatalf("duplicate cell %+v", c)
			}
			seen[c] = true
		}
	}
	// Exactly aligned anchor still yields four cells (the closed right/top
	// coverage edge touches the next column/row).
	cells := g.CoverCells(nil, 0, 0, 1.5, 2.5)
	if len(cells) != 4 {
		t.Fatalf("aligned anchor overlaps %d cells, want 4", len(cells))
	}
}

// TestCoverCellsFloatBoundary pins the floating-point exception to Lemma 1:
// an anchor one ulp below the first cell line floors into column 0, while
// x+w rounds up to the second line and floors into column 2, so the object
// gets three columns and three rows. A column ownership mask keeps three
// cells for each owned column.
func TestCoverCellsFloatBoundary(t *testing.T) {
	const w = 8.80643122741617
	x := 8.806431227416168
	if x != math.Nextafter(w, 0) {
		t.Fatalf("anchor %v is not one ulp below %v", x, w)
	}
	g := Aligned(w, w)
	cells := g.CoverCells(nil, x, x, w, w)
	if len(cells) != 9 {
		t.Fatalf("anchor (%v,%v) covers %d cells, want 9: %v", x, x, len(cells), cells)
	}
	for i, c := range cells {
		if want := (Cell{I: i / 3, J: i % 3}); c != want {
			t.Fatalf("cell %d is %+v, want %+v", i, c, want)
		}
	}
	for ix := 0; ix < 3; ix++ {
		cols := &core.ColumnSet{Block: 1, Shards: 3, Index: ix}
		owned := g.CoverCellsOwned(nil, x, x, w, w, cols)
		if len(owned) != 3 {
			t.Fatalf("shard %d of 3 keeps %d cells, want 3: %v", ix, len(owned), owned)
		}
		for _, c := range owned {
			if c.I != ix {
				t.Fatalf("shard %d keeps cell %+v of another column", ix, c)
			}
		}
	}
}

// TestCoverCellsComplete: every cell whose region overlaps the coverage
// rectangle is reported, and no unrelated cell is.
func TestCoverCellsComplete(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 1000; trial++ {
		cw := 1 + rng.Float64()*3
		ch := 1 + rng.Float64()*3
		g := Grid{CW: cw, CH: ch, OffX: rng.Float64(), OffY: rng.Float64()}
		w := 0.3 + rng.Float64()*4 // rect may be bigger than a cell (aG2 inverse case is w < cell)
		h := 0.3 + rng.Float64()*4
		x := (rng.Float64() - 0.5) * 20
		y := (rng.Float64() - 0.5) * 20
		got := map[Cell]bool{}
		for _, c := range g.CoverCells(nil, x, y, w, h) {
			got[c] = true
		}
		cover := geom.NewRect(x, y, w, h)
		// Brute-force scan a superset of candidate cells.
		c0 := g.CellOf(x-cw, y-ch)
		c1 := g.CellOf(x+w+cw, y+h+ch)
		for i := c0.I; i <= c1.I; i++ {
			for j := c0.J; j <= c1.J; j++ {
				cell := Cell{i, j}
				r := g.CellRect(cell)
				// A cell matters iff some covered point lies in it: the
				// coverage box (x, x+w] x (y, y+h] intersects [r.MinX,
				// r.MaxX) x [r.MinY, r.MaxY). That is r.MinX <= x+w &&
				// x < r.MaxX (and same for y) — note the closed right edge.
				want := r.MinX <= x+w && x < r.MaxX && r.MinY <= y+h && y < r.MaxY
				if want != got[cell] {
					t.Fatalf("cell %+v: want %v got %v (cover=%+v grid=%+v)", cell, want, got[cell], cover, g)
				}
			}
		}
	}
}
