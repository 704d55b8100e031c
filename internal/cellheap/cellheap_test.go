package cellheap

import (
	"math"
	"math/rand/v2"
	"testing"

	"surge/internal/iheap"
)

type tcell struct {
	id  int
	pos int
}

func (c *tcell) HeapPos() *int { return &c.pos }

// checkHeap asserts the position invariants: heap[c.pos] == c for every
// cell in the heap, pos == -1 for every cell outside it, and the heap order.
func checkHeap(t *testing.T, h *Heap[*tcell], all []*tcell, when string) {
	t.Helper()
	in := 0
	for _, c := range all {
		switch {
		case c.pos == -1:
		case c.pos < 0 || c.pos >= len(h.cells) || h.cells[c.pos] != c:
			t.Fatalf("%s: cell %d has pos %d but is not at that slot (len %d)", when, c.id, c.pos, len(h.cells))
		default:
			in++
		}
	}
	if in != h.Len() || len(h.prio) != len(h.cells) {
		t.Fatalf("%s: %d cells point into a heap of %d (prio %d)", when, in, h.Len(), len(h.prio))
	}
	for i := 1; i < len(h.prio); i++ {
		if h.prio[(i-1)/2] < h.prio[i] {
			t.Fatalf("%s: heap order broken at slot %d", when, i)
		}
	}
}

// TestAgainstKeyedHeap drives Heap and the map-indexed iheap.Heap with the
// same operations — Set, Remove and the engines' pop-and-reinstate round —
// over few distinct priorities, so ties are everywhere. Both sift the same
// way, so the layouts, and with them the tie winner at the root, must agree
// after every operation; the position invariants are checked alongside.
func TestAgainstKeyedHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	for trial := 0; trial < 40; trial++ {
		var h Heap[*tcell]
		ref := iheap.New[int]()
		cells := make([]*tcell, 48)
		for i := range cells {
			cells[i] = &tcell{id: i, pos: -1}
		}
		for op := 0; op < 600; op++ {
			c := cells[rng.IntN(len(cells))]
			switch rng.IntN(6) {
			case 0, 1, 2:
				p := float64(rng.IntN(8))
				h.Set(c, p)
				ref.Set(c.id, p)
			case 3:
				h.Remove(c)
				ref.Remove(c.id)
				if c.pos != -1 {
					t.Fatalf("removed cell %d keeps pos %d", c.id, c.pos)
				}
			default: // pop up to n cells, then reinstate them in pop order
				var popped []*tcell
				var prios []float64
				for n := rng.IntN(6); n > 0 && h.Len() > 0; n-- {
					pc, pp, _ := h.PopMax()
					rk, rp, _ := ref.PopMax()
					if pc.id != rk || pp != rp {
						t.Fatalf("trial %d op %d: popped %d/%v, keyed heap %d/%v", trial, op, pc.id, pp, rk, rp)
					}
					if pc.pos != -1 {
						t.Fatalf("popped cell %d keeps pos %d", pc.id, pc.pos)
					}
					checkHeap(t, &h, cells, "mid-pop")
					popped, prios = append(popped, pc), append(prios, pp)
				}
				for i, pc := range popped {
					h.Set(pc, prios[i])
					ref.Set(pc.id, prios[i])
				}
			}
			checkHeap(t, &h, cells, "after op")
			if h.Len() != ref.Len() {
				t.Fatalf("trial %d op %d: len %d, keyed heap %d", trial, op, h.Len(), ref.Len())
			}
			if gc, gp, ok := h.Max(); ok {
				if rk, rp, _ := ref.Max(); gc.id != rk || gp != rp {
					t.Fatalf("trial %d op %d: root %d/%v, keyed heap %d/%v", trial, op, gc.id, gp, rk, rp)
				}
			}
			second := math.Inf(-1)
			for i := 1; i < len(h.prio); i++ {
				second = max(second, h.prio[i])
			}
			if got := h.SecondPrio(); got != second {
				t.Fatalf("trial %d op %d: SecondPrio %v, want %v", trial, op, got, second)
			}
		}
	}
}
