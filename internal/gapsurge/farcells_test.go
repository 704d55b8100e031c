package gapsurge_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"surge/internal/core"
	"surge/internal/gapsurge"
	"surge/internal/geom"
	"surge/internal/grid"
)

// refObj is one live object of the brute-force reference, kept in arrival
// order so the reference folds sum exactly as the engine's do.
type refObj struct {
	id      uint64
	x, y, w float64
	past    bool
}

// bruteTopK recounts every cell of every grid from the live objects and
// applies Algorithm 6 (one grid: the k best cells) or Algorithm 7 (four
// grids: the k best non-overlapping among the top 4k of each).
func bruteTopK(cfg core.Config, grids []grid.Grid, live []refObj, k int) []core.Result {
	var pool []core.Result
	for _, g := range grids {
		type agg struct{ fc, fp float64 }
		cells := map[grid.Cell]*agg{}
		for _, o := range live {
			ck := g.CellOf(o.x, o.y)
			a := cells[ck]
			if a == nil {
				a = &agg{}
				cells[ck] = a
			}
			if o.past {
				a.fp += o.w / cfg.WP
			} else {
				a.fc += o.w / cfg.WC
			}
		}
		var rs []core.Result
		for ck, a := range cells {
			if s := cfg.Score(a.fc, a.fp); s > 0 {
				r := g.CellRect(ck)
				rs = append(rs, core.Result{
					Point: geom.Point{X: r.MaxX, Y: r.MaxY}, Region: r,
					Score: s, FC: a.fc, FP: a.fp, Found: true,
				})
			}
		}
		slices.SortFunc(rs, core.CompareTopK)
		take := k
		if len(grids) > 1 {
			take = 4 * k
		}
		pool = append(pool, rs[:min(take, len(rs))]...)
	}
	slices.SortFunc(pool, core.CompareTopK)
	out := make([]core.Result, k)
	n := 0
	for _, r := range pool {
		if n == k {
			break
		}
		if !slices.ContainsFunc(out[:n], func(p core.Result) bool { return p.Region.Overlaps(r.Region) }) {
			out[n] = r
			n++
		}
	}
	return out
}

// TestTopKFarCellsAgainstBruteForce runs GAPS and MGAPS over clusters whose
// cell indices are negative, beyond 2^16 and near ±2^30, placed so that a
// cell key packed with too few bits or a slipped sign would alias two
// populated cells, and compares BestK (and Best's score) bitwise with the
// brute-force recount. Cells empty and refill throughout, so recycled cells change keys.
func TestTopKFarCellsAgainstBruteForce(t *testing.T) {
	centres := [][2]float64{
		{0, 0}, {-1, -1}, {65536, 0}, {0, 65536}, {-65536, 3}, {3, -65536},
		{70000, -70000}, {1 << 20, -(1 << 20)}, {1 << 30, 1 << 30}, {-(1 << 30), 1<<30 + 1},
	}
	for _, multi := range []bool{false, true} {
		cfg := core.Config{Width: 1, Height: 1, WC: 30, WP: 30, Alpha: 0.6}
		const k = 3
		eng, err := gapsurge.NewTopK(cfg, multi, k)
		if err != nil {
			t.Fatal(err)
		}
		grids := []grid.Grid{grid.Aligned(cfg.Width, cfg.Height)}
		if multi {
			g4 := grid.FourGrids(cfg.Width, cfg.Height)
			grids = g4[:]
		}
		rng := rand.New(rand.NewPCG(77, 13))
		objs := randomStream(43, 1500, 1, cfg.WC, cfg.WP, 150)
		for i := range objs {
			c := centres[rng.IntN(len(centres))]
			objs[i].X = c[0] + (objs[i].X-0.5)*3
			objs[i].Y = c[1] + (objs[i].Y-0.5)*3
		}
		var live []refObj
		step := 0
		drive(t, cfg.WC, cfg.WP, objs, func(ev core.Event) {
			eng.Process(ev)
			at, found := slices.BinarySearchFunc(live, ev.Obj.ID, func(o refObj, id uint64) int {
				switch {
				case o.id < id:
					return -1
				case o.id > id:
					return 1
				}
				return 0
			})
			switch ev.Kind {
			case core.New:
				live = append(live, refObj{id: ev.Obj.ID, x: ev.Obj.X, y: ev.Obj.Y, w: ev.Obj.Weight})
			case core.Grown:
				if !found {
					t.Fatalf("event %d: Grown for unknown object", step)
				}
				live[at].past = true
			case core.Expired:
				if !found {
					t.Fatalf("event %d: Expired for unknown object", step)
				}
				live = slices.Delete(live, at, at+1)
			}
			if step%23 == 0 {
				want := bruteTopK(cfg, grids, live, k)
				if got := eng.BestK(); !slices.Equal(got, want) {
					t.Fatalf("multi=%v event %d: BestK\n got  %+v\n want %+v", multi, step, got, want)
				}
				// Best takes the first grid on an exact tie, BestK the
				// CompareTopK-least region: only the score is common.
				if got := eng.Best(); got.Found != want[0].Found || got.Score != want[0].Score {
					t.Fatalf("multi=%v event %d: Best\n got  %+v\n want %+v", multi, step, got, want[0])
				}
			}
			step++
		})
	}
}
