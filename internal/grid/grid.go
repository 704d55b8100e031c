// Package grid implements the regular grids used by the SURGE engines.
//
// The exact engine (Cell-CSPOT, Section IV-C of the paper) uses a grid whose
// cells have exactly the query-rectangle size, so every rectangle object
// overlaps at most four cells (Lemma 1; in floating point up to nine, see
// CoverCells). GAP-SURGE (Section V-A) uses the
// same grid with each cell acting as a candidate region, and MGAP-SURGE
// (Section V-B) adds the three half-cell-shifted grids. The adapted aG2
// baseline uses a coarser grid whose cells are a multiple of the query size.
//
// A cell (i, j) of grid g covers the half-open box
// [OffX+i*CW, OffX+(i+1)*CW) x [OffY+j*CH, OffY+(j+1)*CH), so the cells
// partition the plane and every object belongs to exactly one cell.
package grid

import (
	"math"

	"surge/internal/core"
	"surge/internal/geom"
)

// Cell identifies a grid cell by its column and row index.
type Cell struct {
	I, J int
}

// Pack encodes the cell coordinates into one uint64 (each index truncated to
// its low 32 bits). The engines key their cell maps by packed cells so every
// per-event lookup hits the runtime's specialized 64-bit-key map fast paths
// instead of hashing a 16-byte struct; indices beyond ±2^31 would alias, far
// outside any realistic grid extent.
func (c Cell) Pack() uint64 {
	return uint64(uint32(c.I))<<32 | uint64(uint32(c.J))
}

// Unpack inverts Pack for indices within ±2^31.
func Unpack(k uint64) Cell {
	return Cell{I: int(int32(k >> 32)), J: int(int32(k))}
}

// Grid is a regular grid with cell size CW x CH, whose lines are offset from
// the origin by (OffX, OffY).
type Grid struct {
	CW, CH     float64
	OffX, OffY float64
}

// Aligned returns the origin-aligned grid with cell size w x h (the paper's
// Definition 6 grid, "Grid 1").
func Aligned(w, h float64) Grid { return Grid{CW: w, CH: h} }

// Shifted returns the grid with cell size w x h shifted by (fx*w, fy*h).
// Shifted(w, h, 0.5, 0), Shifted(w, h, 0, 0.5) and Shifted(w, h, 0.5, 0.5)
// are the paper's Grids 2-4.
func Shifted(w, h, fx, fy float64) Grid {
	return Grid{CW: w, CH: h, OffX: fx * w, OffY: fy * h}
}

// FourGrids returns the four grids of the MGAP-SURGE algorithm.
func FourGrids(w, h float64) [4]Grid {
	return [4]Grid{
		Shifted(w, h, 0, 0),
		Shifted(w, h, 0.5, 0),
		Shifted(w, h, 0, 0.5),
		Shifted(w, h, 0.5, 0.5),
	}
}

// CellOf returns the cell containing the point (x, y) under the closed-open
// partition.
func (g Grid) CellOf(x, y float64) Cell {
	return Cell{
		I: int(math.Floor((x - g.OffX) / g.CW)),
		J: int(math.Floor((y - g.OffY) / g.CH)),
	}
}

// CellRect returns the region of cell c under closed-open semantics.
func (g Grid) CellRect(c Cell) geom.Rect {
	x := g.OffX + float64(c.I)*g.CW
	y := g.OffY + float64(c.J)*g.CH
	return geom.NewRect(x, y, g.CW, g.CH)
}

// CoverCells appends to dst the cells whose region intersects the coverage
// rectangle (x, x+w] x (y, y+h] of a rectangle object anchored at (x, y),
// and returns the extended slice. When w <= CW and h <= CH (the Cell-CSPOT
// configuration) Lemma 1 bounds this by four cells in exact arithmetic. The
// floors are taken in floating point, though: for an anchor one ulp below a
// cell line, floor(x/CW) can land in the column below and floor((x+w)/CW)
// two columns up, so an object may get three columns and three rows (nine
// cells). Callers must not assume four.
func (g Grid) CoverCells(dst []Cell, x, y, w, h float64) []Cell {
	return g.CoverCellsOwned(dst, x, y, w, h, nil)
}

// CoverCellsOwned is CoverCells restricted to the cells whose column index
// cols owns (nil keeps every cell). It serves the exact engines' sharded
// ownership filter: their grids are query-aligned, so cell column I is
// exactly candidate-point column I, the coverage spans two columns (three
// when a floating-point floor lands on the far side of a cell line, see
// CoverCells), and ownership costs one ShardOf evaluation per column instead
// of one per cell. Keeping the span arithmetic in one place also keeps the engines and
// the shard router agreeing on ownership bit for bit.
func (g Grid) CoverCellsOwned(dst []Cell, x, y, w, h float64, cols *core.ColumnSet) []Cell {
	// Columns run from the one containing the open left edge to the one
	// containing the closed right endpoint x+w; analogously for rows. The
	// left column floor((x-OffX)/CW) always intersects because the coverage
	// interval (x, x+w] starts strictly inside or at the start of it.
	i0 := int(math.Floor((x - g.OffX) / g.CW))
	i1 := int(math.Floor((x + w - g.OffX) / g.CW))
	j0 := int(math.Floor((y - g.OffY) / g.CH))
	j1 := int(math.Floor((y + h - g.OffY) / g.CH))
	for i := i0; i <= i1; i++ {
		if !cols.Owns(i) {
			continue
		}
		for j := j0; j <= j1; j++ {
			dst = append(dst, Cell{I: i, J: j})
		}
	}
	return dst
}
