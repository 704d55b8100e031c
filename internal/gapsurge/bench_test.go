package gapsurge_test

import (
	"math/rand/v2"
	"testing"

	"surge/internal/core"
	"surge/internal/gapsurge"
	"surge/internal/window"
)

// BenchmarkProcess times Engine.Process alone on the steady-state event mix
// of a full pair of windows (one New, one Grown and one Expired per object;
// about benchLive live objects, a fifth of them in a hotspot so some cells
// hold long object lists and most hold a few). The window engine that
// produces the events runs with the timer stopped.
func BenchmarkProcess(b *testing.B) {
	for _, bc := range []struct {
		name  string
		multi bool
	}{{"GAPS", false}, {"MGAPS", true}} {
		b.Run(bc.name, func(b *testing.B) {
			const (
				benchLive = 20000
				span      = 100.0
				chunk     = 1 << 14
			)
			cfg := core.Config{Width: 1, Height: 1, WC: 100, WP: 100, Alpha: 0.5}
			eng, err := gapsurge.NewTopK(cfg, bc.multi, 5)
			if err != nil {
				b.Fatal(err)
			}
			win, err := window.New(cfg.WC, cfg.WP)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(7, 11))
			gap := (cfg.WC + cfg.WP) / benchLive
			now := 0.0
			evs := make([]core.Event, 0, chunk+2)
			emit := func(ev core.Event) { evs = append(evs, ev) }
			// fill refills evs with at least n events of fresh arrivals.
			fill := func(n int) {
				evs = evs[:0]
				for len(evs) < n {
					now += rng.ExpFloat64() * gap
					o := core.Object{X: rng.Float64() * span, Y: rng.Float64() * span, Weight: 1 + rng.Float64()*99, T: now}
					if rng.IntN(5) == 0 {
						o.X, o.Y = 50+rng.Float64()*3, 50+rng.Float64()*3
					}
					if _, err := win.Push(o, emit); err != nil {
						b.Fatal(err)
					}
				}
			}
			for now < cfg.WC+cfg.WP { // warm up to full windows
				fill(chunk)
				for _, ev := range evs {
					eng.Process(ev)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				b.StopTimer()
				fill(min(chunk, b.N-done))
				evs = evs[:min(len(evs), b.N-done)]
				b.StartTimer()
				for _, ev := range evs {
					eng.Process(ev)
				}
				done += len(evs)
			}
		})
	}
}
