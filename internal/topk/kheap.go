package topk

import "math"

// kheap is an indexed max-heap over the engine's cells. Unlike the generic
// iheap, the position index lives inside the cells themselves: kcell.spos
// for the shared heap, and for the i-th problem heap hpos[i] of the cell's
// out-of-line ksplit (only split cells enter the problem heaps, and only
// they have a ksplit). So heap maintenance — one Set per flushed cell, one
// Remove per dead cell, on the per-event maintenance path — never touches a
// hash map. Replacing the map-keyed heap removed the dominant cost (16-byte
// key hashing and map probes) of continuous top-k maintenance.
type kheap struct {
	ix    int // position slot this heap maintains: -1 = shared, else problem index
	cells []*kcell
	prio  []float64
}

// Len returns the number of cells in the heap.
func (h *kheap) Len() int { return len(h.cells) }

// Max returns the cell with the highest priority without removing it.
func (h *kheap) Max() (*kcell, float64, bool) {
	if len(h.cells) == 0 {
		return nil, 0, false
	}
	return h.cells[0], h.prio[0], true
}

// SecondPrio returns the second-highest priority in the heap — the larger of
// the root's children, the only slots it can occupy — or -Inf when the heap
// holds fewer than two cells. solve uses it to detect an exact-score tie at
// the top without mutating the heap.
func (h *kheap) SecondPrio() float64 {
	switch len(h.cells) {
	case 0, 1:
		return math.Inf(-1)
	case 2:
		return h.prio[1]
	}
	if h.prio[2] > h.prio[1] {
		return h.prio[2]
	}
	return h.prio[1]
}

// Set inserts c with priority p, or updates c's priority if present.
func (h *kheap) Set(c *kcell, p float64) {
	if i := c.pos(h.ix); i >= 0 {
		old := h.prio[i]
		h.prio[i] = p
		if p > old {
			h.up(i)
		} else if p < old {
			h.down(i)
		}
		return
	}
	h.cells = append(h.cells, c)
	h.prio = append(h.prio, p)
	i := len(h.cells) - 1
	c.setPos(h.ix, i)
	h.up(i)
}

// Remove deletes c from the heap if present.
func (h *kheap) Remove(c *kcell) {
	i := c.pos(h.ix)
	if i < 0 {
		return
	}
	last := len(h.cells) - 1
	if i != last {
		h.cells[i], h.prio[i] = h.cells[last], h.prio[last]
		h.cells[i].setPos(h.ix, i)
	}
	h.cells = h.cells[:last]
	h.prio = h.prio[:last]
	c.setPos(h.ix, -1)
	if i < last {
		h.up(i)
		h.down(i)
	}
}

// up and down sift with a hole instead of pairwise swaps (see iheap): the
// moving cell is held aside, displaced cells shift one level with a single
// position write each, and the held cell is written once at its final slot.

func (h *kheap) up(i int) {
	j := i
	c, p := h.cells[i], h.prio[i]
	for j > 0 {
		parent := (j - 1) / 2
		if h.prio[parent] >= p {
			break
		}
		h.cells[j], h.prio[j] = h.cells[parent], h.prio[parent]
		h.cells[j].setPos(h.ix, j)
		j = parent
	}
	if j != i {
		h.cells[j], h.prio[j] = c, p
		c.setPos(h.ix, j)
	}
}

func (h *kheap) down(i int) {
	n := len(h.cells)
	j := i
	c, p := h.cells[i], h.prio[i]
	for {
		l, r := 2*j+1, 2*j+2
		best := -1
		bp := p
		if l < n && h.prio[l] > bp {
			best, bp = l, h.prio[l]
		}
		if r < n && h.prio[r] > bp {
			best = r
		}
		if best < 0 {
			break
		}
		h.cells[j], h.prio[j] = h.cells[best], h.prio[best]
		h.cells[j].setPos(h.ix, j)
		j = best
	}
	if j != i {
		h.cells[j], h.prio[j] = c, p
		c.setPos(h.ix, j)
	}
}
