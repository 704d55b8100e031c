package topk

import (
	"testing"

	"surge/internal/core"
	"surge/internal/stream"
	"surge/internal/window"
)

// BenchmarkMaintain times the maintained chain the way the server runs it on
// the benchmark's exact-1shard workload: a TaxiLike stream at 15M objects a
// day, 300 s windows, a query of 1/1000 of the range and k = 5, applied in
// 512-object batches of Process calls followed by one BestK. The windows are
// filled before the timer starts (about 104k live objects) and the stream
// is cycled with shifted times, so every batch is steady state. An op is one
// batch; ns/event divides the time by the window events processed, and
// B/live-obj is the cell-entry and record memory the engine retains per live
// object when the run ends (see census).
func BenchmarkMaintain(b *testing.B) {
	const (
		rate   = 15e6 // objects per day
		batch  = 512
		refill = 64 // batches of events generated per timer stop
	)
	d := stream.TaxiLike(1)
	cfg := core.Config{Width: d.QueryWidth(), Height: d.QueryHeight(), WC: 300, WP: 300, Alpha: 0.5}
	e, err := NewKCCS(cfg, 5)
	if err != nil {
		b.Fatal(err)
	}
	win, err := window.New(cfg.WC, cfg.WP)
	if err != nil {
		b.Fatal(err)
	}
	src := stream.Stretch(d.Generate(int(rate/86400*3*cfg.WC)), rate)
	period := src[len(src)-1].T + 86400/rate
	next := 0
	var evs []core.Event
	var ends []int // evs[ends[i-1]:ends[i]] are the events of batch i
	emit := func(ev core.Event) { evs = append(evs, ev) }
	fill := func(batches int) {
		evs, ends = evs[:0], ends[:0]
		for range batches {
			for range batch {
				o := src[next%len(src)]
				o.T += float64(next/len(src)) * period
				next++
				if _, err := win.Push(o, emit); err != nil {
					b.Fatal(err)
				}
			}
			ends = append(ends, len(evs))
		}
	}
	run := func() {
		lo := 0
		for _, hi := range ends {
			for _, ev := range evs[lo:hi] {
				e.Process(ev)
			}
			e.BestK()
			lo = hi
		}
	}
	for win.Now() < cfg.WC+cfg.WP {
		fill(refill)
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for done := 0; done < b.N; done += len(ends) {
		b.StopTimer()
		fill(min(refill, b.N-done))
		b.StartTimer()
		run()
		events += len(evs)
	}
	b.StopTimer()
	_, retained := census(e)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(retained)/float64(e.rtail-e.rhead), "B/live-obj")
}
