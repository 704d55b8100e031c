package gapsurge_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"surge/internal/core"
	"surge/internal/gapsurge"
	"surge/internal/geom"
	"surge/internal/topk"
	"surge/internal/window"
)

func almost(a, b float64) bool {
	d := math.Abs(a - b)
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d <= 1e-9*m
}

func randomStream(seed uint64, n int, span, wc, wp float64, liveTarget int) []core.Object {
	rng := rand.New(rand.NewPCG(seed, seed*0x9e3779b9+1))
	meanGap := (wc + wp) / float64(liveTarget)
	objs := make([]core.Object, n)
	t := 0.0
	for i := range objs {
		t += rng.ExpFloat64() * meanGap
		objs[i] = core.Object{
			X:      rng.Float64() * span,
			Y:      rng.Float64() * span,
			Weight: 1 + rng.Float64()*99,
			T:      t,
		}
	}
	return objs
}

func drive(t *testing.T, wc, wp float64, objs []core.Object, step func(core.Event)) {
	t.Helper()
	win, err := window.New(wc, wp)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if _, err := win.Push(o, step); err != nil {
			t.Fatal(err)
		}
	}
	win.Drain(step)
}

// TestApproximationGuarantee is Theorem 3/4 as an executable property: after
// every event, S(GAPS) and S(MGAPS) must be at least (1-alpha)/4 of the
// oracle optimum.
func TestApproximationGuarantee(t *testing.T) {
	for _, alpha := range []float64{0, 0.3, 0.7, 0.9} {
		cfg := core.Config{Width: 1, Height: 1, WC: 50, WP: 50, Alpha: alpha}
		gaps, _ := gapsurge.New(cfg, false)
		mgaps, _ := gapsurge.New(cfg, true)
		oracle, _ := topk.NewOracle(cfg)
		ratio := (1 - alpha) / 4
		step := 0
		objs := randomStream(uint64(1000*alpha+3), 800, 7, cfg.WC, cfg.WP, 110)
		drive(t, cfg.WC, cfg.WP, objs, func(ev core.Event) {
			gaps.Process(ev)
			mgaps.Process(ev)
			oracle.Process(ev)
			opt := oracle.Best()
			if !opt.Found {
				step++
				return
			}
			g := gaps.Best()
			m := mgaps.Best()
			if g.Score < ratio*opt.Score-1e-9 {
				t.Fatalf("event %d: GAPS %v below guarantee %v (opt %v, alpha %v)",
					step, g.Score, ratio*opt.Score, opt.Score, alpha)
			}
			if m.Score < ratio*opt.Score-1e-9 {
				t.Fatalf("event %d: MGAPS %v below guarantee %v", step, m.Score, ratio*opt.Score)
			}
			// MGAPS dominates GAPS (its grid 1 is the GAPS grid) and never
			// beats the optimum.
			if m.Score < g.Score-1e-9 {
				t.Fatalf("event %d: MGAPS %v below GAPS %v", step, m.Score, g.Score)
			}
			if g.Score > opt.Score+1e-9 || m.Score > opt.Score+1e-9 {
				t.Fatalf("event %d: approximation above optimum (g=%v m=%v opt=%v)",
					step, g.Score, m.Score, opt.Score)
			}
			step++
		})
	}
}

// TestCellScoreIsTrueRegionScore: the reported cell's score must equal the
// true burst score of the cell region over the live objects.
func TestCellScoreIsTrueRegionScore(t *testing.T) {
	cfg := core.Config{Width: 1.2, Height: 0.9, WC: 40, WP: 20, Alpha: 0.45}
	gaps, _ := gapsurge.New(cfg, false)
	mgaps, _ := gapsurge.New(cfg, true)
	oracle, _ := topk.NewOracle(cfg) // reuse its live-set bookkeeping
	objs := randomStream(17, 600, 6, cfg.WC, cfg.WP, 90)
	step := 0
	drive(t, cfg.WC, cfg.WP, objs, func(ev core.Event) {
		gaps.Process(ev)
		mgaps.Process(ev)
		oracle.Process(ev)
		for _, res := range []core.Result{gaps.Best(), mgaps.Best()} {
			if !res.Found {
				continue
			}
			fc, fp := oracle.RegionScore(res.Region)
			if !almost(cfg.Score(fc, fp), res.Score) {
				t.Fatalf("event %d: cell %+v reports %v but true score is %v",
					step, res.Region, res.Score, cfg.Score(fc, fp))
			}
		}
		step++
	})
}

// TestLemma7Tightness reproduces the paper's Figure 11: four unit-weight
// current objects at the centre corners of four cells, and four past objects
// placed so each cell's past score equals its current score. The optimal
// region covering all four currents scores 4 while every cell scores 1-alpha
// — the (1-alpha)/4 bound is tight.
func TestLemma7Tightness(t *testing.T) {
	alpha := 0.5
	cfg := core.Config{Width: 2, Height: 2, WC: 1, WP: 1, Alpha: alpha}
	gaps, _ := gapsurge.New(cfg, false)
	oracle, _ := topk.NewOracle(cfg)
	eps := 0.25
	// Cell (0,0) spans [0,2)x[0,2); the four cells meet at (2,2).
	cur := [][2]float64{{2 - eps, 2 - eps}, {2 + eps, 2 - eps}, {2 - eps, 2 + eps}, {2 + eps, 2 + eps}}
	// One past object per cell, far from the centre so the optimal region
	// (which hugs the centre) avoids them.
	past := [][2]float64{{0.1, 0.1}, {3.9, 0.1}, {0.1, 3.9}, {3.9, 3.9}}
	var id uint64
	emit := func(kind core.EventKind, x, y float64) core.Event {
		id++
		return core.Event{Kind: kind, Obj: core.Object{ID: id, X: x, Y: y, Weight: 1, T: 0}}
	}
	// Feed events directly: the past objects are already grown, the current
	// ones are new.
	for _, p := range past {
		ev := emit(core.New, p[0], p[1])
		gaps.Process(ev)
		oracle.Process(ev)
		ev.Kind = core.Grown
		gaps.Process(ev)
		oracle.Process(ev)
	}
	for _, c := range cur {
		ev := emit(core.New, c[0], c[1])
		gaps.Process(ev)
		oracle.Process(ev)
	}
	opt := oracle.Best()
	if !almost(opt.Score, 4) {
		t.Fatalf("optimal score = %v, want 4", opt.Score)
	}
	got := gaps.Best()
	if !almost(got.Score, 1-alpha) {
		t.Fatalf("GAPS score = %v, want %v (tight example)", got.Score, 1-alpha)
	}
	if r := got.Score / opt.Score; !almost(r, (1-alpha)/4) {
		t.Fatalf("ratio = %v, want exactly (1-alpha)/4 = %v", r, (1-alpha)/4)
	}
}

func TestEmptyEngines(t *testing.T) {
	cfg := core.Config{Width: 1, Height: 1, WC: 1, WP: 1, Alpha: 0.5}
	for _, multi := range []bool{false, true} {
		e, err := gapsurge.New(cfg, multi)
		if err != nil {
			t.Fatal(err)
		}
		if res := e.Best(); res.Found {
			t.Fatalf("multi=%v: empty engine found %+v", multi, res)
		}
		for i, r := range mustK(t, cfg, multi, 3) {
			if r.Found {
				t.Fatalf("multi=%v: empty top-k slot %d found", multi, i)
			}
		}
	}
}

func mustK(t *testing.T, cfg core.Config, multi bool, k int) []core.Result {
	t.Helper()
	e, err := gapsurge.NewTopK(cfg, multi, k)
	if err != nil {
		t.Fatal(err)
	}
	return e.BestK()
}

// TestTopKProperties: ranks are sorted by score, regions are pairwise
// non-overlapping, and each reported score is the true score of its region.
func TestTopKProperties(t *testing.T) {
	for _, multi := range []bool{false, true} {
		cfg := core.Config{Width: 1, Height: 1, WC: 50, WP: 50, Alpha: 0.5}
		k := 4
		eng, _ := gapsurge.NewTopK(cfg, multi, k)
		oracle, _ := topk.NewOracle(cfg)
		objs := randomStream(23, 700, 6, cfg.WC, cfg.WP, 120)
		step := 0
		drive(t, cfg.WC, cfg.WP, objs, func(ev core.Event) {
			eng.Process(ev)
			oracle.Process(ev)
			res := eng.BestK()
			if len(res) != k {
				t.Fatalf("BestK returned %d slots, want %d", len(res), k)
			}
			for i := 1; i < len(res); i++ {
				if res[i].Found && !res[i-1].Found {
					t.Fatalf("event %d: found slot %d after empty slot", step, i)
				}
				if res[i].Found && res[i].Score > res[i-1].Score+1e-9 {
					t.Fatalf("event %d: ranks out of order: %v > %v", step, res[i].Score, res[i-1].Score)
				}
			}
			for i := 0; i < len(res); i++ {
				if !res[i].Found {
					continue
				}
				fc, fp := oracle.RegionScore(res[i].Region)
				if !almost(cfg.Score(fc, fp), res[i].Score) {
					t.Fatalf("event %d slot %d: reported %v true %v", step, i, res[i].Score, cfg.Score(fc, fp))
				}
				for j := 0; j < i; j++ {
					if res[j].Found && res[i].Region.Overlaps(res[j].Region) {
						t.Fatalf("event %d: regions %d and %d overlap", step, i, j)
					}
				}
			}
			step++
		})
	}
}

// TestTopKAgainstBruteForce: for the single-grid variant, the k reported
// cells must be the k best cells of a brute-force recount.
func TestTopKAgainstBruteForce(t *testing.T) {
	cfg := core.Config{Width: 1, Height: 1, WC: 30, WP: 30, Alpha: 0.6}
	k := 3
	eng, _ := gapsurge.NewTopK(cfg, false, k)

	type lobj struct {
		x, y, w float64
		past    bool
	}
	live := map[uint64]*lobj{}
	objs := randomStream(41, 500, 5, cfg.WC, cfg.WP, 80)
	step := 0
	drive(t, cfg.WC, cfg.WP, objs, func(ev core.Event) {
		eng.Process(ev)
		switch ev.Kind {
		case core.New:
			live[ev.Obj.ID] = &lobj{x: ev.Obj.X, y: ev.Obj.Y, w: ev.Obj.Weight}
		case core.Grown:
			live[ev.Obj.ID].past = true
		case core.Expired:
			delete(live, ev.Obj.ID)
		}
		if step%37 == 0 { // brute force is O(n log n); sample the stream
			type cellAgg struct{ fc, fp float64 }
			agg := map[[2]int]*cellAgg{}
			for _, o := range live {
				key := [2]int{int(math.Floor(o.x / cfg.Width)), int(math.Floor(o.y / cfg.Height))}
				a := agg[key]
				if a == nil {
					a = &cellAgg{}
					agg[key] = a
				}
				if o.past {
					a.fp += o.w / cfg.WP
				} else {
					a.fc += o.w / cfg.WC
				}
			}
			var scores []float64
			for _, a := range agg {
				if s := cfg.Score(a.fc, a.fp); s > 0 {
					scores = append(scores, s)
				}
			}
			// Descending sort.
			for i := range scores {
				for j := i + 1; j < len(scores); j++ {
					if scores[j] > scores[i] {
						scores[i], scores[j] = scores[j], scores[i]
					}
				}
			}
			res := eng.BestK()
			for i := 0; i < k; i++ {
				want := 0.0
				if i < len(scores) {
					want = scores[i]
				}
				got := 0.0
				if res[i].Found {
					got = res[i].Score
				}
				if !almost(got, want) {
					t.Fatalf("event %d rank %d: got %v want %v", step, i, got, want)
				}
			}
		}
		step++
	})
}

// TestGAPSWorstCasePlacement: an optimal region straddling four cells is
// found by one of MGAPS's shifted grids at full score when the objects sit
// within a half-cell of each other.
func TestMGAPSShiftedGridWins(t *testing.T) {
	cfg := core.Config{Width: 2, Height: 2, WC: 1, WP: 1, Alpha: 0.5}
	gaps, _ := gapsurge.New(cfg, false)
	mgaps, _ := gapsurge.New(cfg, true)
	// Cluster tightly around the four-cell corner (2,2): grid 4 (shifted by
	// half in both axes) has a cell centred there.
	pts := [][2]float64{{1.8, 1.8}, {2.2, 1.8}, {1.8, 2.2}, {2.2, 2.2}}
	var id uint64
	for _, p := range pts {
		id++
		ev := core.Event{Kind: core.New, Obj: core.Object{ID: id, X: p[0], Y: p[1], Weight: 1, T: 0}}
		gaps.Process(ev)
		mgaps.Process(ev)
	}
	g, m := gaps.Best(), mgaps.Best()
	if !almost(g.Score, 1) {
		t.Fatalf("GAPS = %v, want 1 (each aligned cell holds one object)", g.Score)
	}
	if !almost(m.Score, 4) {
		t.Fatalf("MGAPS = %v, want 4 (shifted grid captures the cluster)", m.Score)
	}
	if !m.Region.ContainsCO(geom.Point{X: 2, Y: 2}) {
		t.Fatalf("MGAPS region %+v should contain the cluster centre", m.Region)
	}
}

func TestStatsCount(t *testing.T) {
	cfg := core.Config{Width: 1, Height: 1, WC: 10, WP: 10, Alpha: 0.5}
	e, _ := gapsurge.New(cfg, false)
	objs := randomStream(3, 200, 4, cfg.WC, cfg.WP, 40)
	n := 0
	drive(t, cfg.WC, cfg.WP, objs, func(ev core.Event) { e.Process(ev); n++ })
	if got := e.Stats().Events; got != uint64(n) {
		t.Fatalf("events = %d, want %d", got, n)
	}
}

// TestBestKCachesAndReusesItsAnswer pins BestK's contract: without an event
// since the last call it returns the cached answer without recomputing (no
// heap pops, no allocation); after one it recomputes into the same buffer,
// so a caller that retains the slice must have copied it.
func TestBestKCachesAndReusesItsAnswer(t *testing.T) {
	for _, multi := range []bool{false, true} {
		cfg := core.Config{Width: 1, Height: 1, WC: 10, WP: 10, Alpha: 0.5}
		e, _ := gapsurge.NewTopK(cfg, multi, 3)
		var id uint64
		add := func(x, y, w float64) {
			id++
			e.Process(core.Event{Kind: core.New, Obj: core.Object{ID: id, X: x, Y: y, Weight: w}})
		}
		add(0.5, 0.5, 2)
		add(3.5, 3.5, 1)
		held := e.BestK()
		before := slices.Clone(held)
		if !before[0].Found || !before[1].Found || before[2].Found {
			t.Fatalf("multi=%v: want two regions, got %+v", multi, before)
		}
		if n := testing.AllocsPerRun(20, func() { e.BestK() }); n != 0 {
			t.Fatalf("multi=%v: clean BestK allocates %v times per call", multi, n)
		}
		if !slices.Equal(e.BestK(), before) {
			t.Fatalf("multi=%v: answer changed without an event", multi)
		}
		add(3.5, 3.5, 5) // the second region overtakes the first
		after := e.BestK()
		if after[0].Region != before[1].Region || after[0].Score <= before[0].Score {
			t.Fatalf("multi=%v: answer not refreshed after an event: %+v", multi, after)
		}
		if &held[0] != &after[0] {
			t.Fatalf("multi=%v: BestK moved to a new buffer", multi)
		}
	}
}
