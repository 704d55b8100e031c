// Package cellheap provides the indexed max-heap the single-layer engines
// (cellcspot, gapsurge) keep their cells in. Unlike the map-indexed iheap,
// the position index lives inside the cells themselves, following the kheap
// layout proven in internal/topk, so heap maintenance — one Set per touched
// cell, one Remove per emptied cell, on the per-event hot path — never probes
// a hash map.
package cellheap

import "math"

// Positioned is a heap element that stores its own heap position: HeapPos
// returns the address of that field, which must read -1 while the element is
// in no heap.
type Positioned interface {
	HeapPos() *int
}

// Heap is an indexed max-heap over an engine's cells. On top of the kheap
// operations it supports the pop/reinstate loops of the B-CCS best scan and
// the grid top-k, and the canonical tie drain (PopMax + SecondPrio). The
// zero value is an empty heap.
type Heap[C Positioned] struct {
	cells []C
	prio  []float64
}

// Len returns the number of cells in the heap.
func (h *Heap[C]) Len() int { return len(h.cells) }

// Max returns the cell with the highest priority without removing it.
func (h *Heap[C]) Max() (C, float64, bool) {
	if len(h.cells) == 0 {
		var zero C
		return zero, 0, false
	}
	return h.cells[0], h.prio[0], true
}

// SecondPrio returns the second-highest priority in the heap — the larger of
// the root's children, the only slots it can occupy — or -Inf when the heap
// holds fewer than two cells. The best loops use it to detect an exact-score
// tie at the top without mutating the heap.
func (h *Heap[C]) SecondPrio() float64 {
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
func (h *Heap[C]) Set(c C, p float64) {
	if i := *c.HeapPos(); i >= 0 {
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
	*c.HeapPos() = i
	h.up(i)
}

// Remove deletes c from the heap if present.
func (h *Heap[C]) Remove(c C) {
	pos := c.HeapPos()
	i := *pos
	if i < 0 {
		return
	}
	last := len(h.cells) - 1
	if i != last {
		h.cells[i], h.prio[i] = h.cells[last], h.prio[last]
		*h.cells[i].HeapPos() = i
	}
	h.cells = h.cells[:last]
	h.prio = h.prio[:last]
	*pos = -1
	if i < last {
		h.up(i)
		h.down(i)
	}
}

// PopMax removes and returns the cell with the highest priority.
func (h *Heap[C]) PopMax() (C, float64, bool) {
	c, p, ok := h.Max()
	if ok {
		h.Remove(c)
	}
	return c, p, ok
}

// up and down sift with a hole instead of pairwise swaps (see kheap): the
// moving cell is held aside, displaced cells shift one level with a single
// position write each, and the held cell is written once at its final slot.

func (h *Heap[C]) up(i int) {
	j := i
	c, p := h.cells[i], h.prio[i]
	for j > 0 {
		parent := (j - 1) / 2
		if h.prio[parent] >= p {
			break
		}
		h.cells[j], h.prio[j] = h.cells[parent], h.prio[parent]
		*h.cells[j].HeapPos() = j
		j = parent
	}
	if j != i {
		h.cells[j], h.prio[j] = c, p
		*c.HeapPos() = j
	}
}

func (h *Heap[C]) down(i int) {
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
		*h.cells[j].HeapPos() = j
		j = best
	}
	if j != i {
		h.cells[j], h.prio[j] = c, p
		*c.HeapPos() = j
	}
}
