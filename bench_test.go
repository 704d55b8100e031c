// Benchmarks mirroring the paper's evaluation (Section VII): one testing.B
// target per table/figure. These run fixed small workloads so `go test
// -bench=.` finishes quickly; `go run ./cmd/surgebench` produces the full
// sweeps and paper-style tables.
package surge_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"surge"
	"surge/internal/bench"
	"surge/internal/core"
	"surge/internal/stream"
)

// benchDataset returns a rate-scaled Taxi-like dataset (the densest of the
// three Table-I workloads) plus its default paper configuration: q = 1/1000
// of the range, 5-minute windows, alpha = 0.5.
func benchDataset() (stream.Dataset, core.Config) {
	d := stream.TaxiLike(1)
	d.RatePerHour *= 0.1
	cfg := core.Config{
		Width:  d.QueryWidth(),
		Height: d.QueryHeight(),
		WC:     5 * 60,
		WP:     5 * 60,
		Alpha:  0.5,
	}
	return d, cfg
}

var (
	benchObjsOnce sync.Once
	benchObjs     []core.Object
)

func benchStream() []core.Object {
	benchObjsOnce.Do(func() {
		d, _ := benchDataset()
		benchObjs = d.Generate(8000)
	})
	return benchObjs
}

func replayBench(b *testing.B, engineName string, cfg core.Config, objs []core.Object) {
	b.Helper()
	b.ReportAllocs()
	var last bench.Measurement
	for i := 0; i < b.N; i++ {
		eng, err := bench.NewEngine(engineName, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = bench.Replay(cfg, eng, objs)
	}
	if last.Objects > 0 {
		b.ReportMetric(float64(last.Elapsed.Nanoseconds())/float64(last.Objects), "ns/obj")
	}
}

// BenchmarkTable1Datasets measures workload generation (Table I substrate).
func BenchmarkTable1Datasets(b *testing.B) {
	for _, name := range []string{"UK", "US", "Taxi"} {
		b.Run(name, func(b *testing.B) {
			var d stream.Dataset
			switch name {
			case "UK":
				d = stream.UKLike(1)
			case "US":
				d = stream.USLike(2)
			default:
				d = stream.TaxiLike(3)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				objs := d.Generate(10000)
				if len(objs) != 10000 {
					b.Fatal("bad generation")
				}
			}
		})
	}
}

// BenchmarkFig5Exact: per-object cost of the four exact engines (Figure 5).
func BenchmarkFig5Exact(b *testing.B) {
	d, cfg := benchDataset()
	_ = d
	objs := benchStream()
	for _, en := range []string{"CCS", "B-CCS", "Base", "aG2"} {
		b.Run(en, func(b *testing.B) { replayBench(b, en, cfg, objs) })
	}
}

// BenchmarkTable2SearchRatio reports the search-trigger ratio of CCS vs
// B-CCS as benchmark metrics (Table II).
func BenchmarkTable2SearchRatio(b *testing.B) {
	_, cfg := benchDataset()
	objs := benchStream()
	for _, en := range []string{"CCS", "B-CCS"} {
		b.Run(en, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				eng, err := bench.NewEngine(en, cfg)
				if err != nil {
					b.Fatal(err)
				}
				m := bench.Replay(cfg, eng, objs)
				ratio = m.Stats.SearchRatio()
			}
			b.ReportMetric(ratio*100, "%search")
		})
	}
}

// BenchmarkFig6Approx: per-object cost of GAPS and MGAPS (Figure 6).
func BenchmarkFig6Approx(b *testing.B) {
	_, cfg := benchDataset()
	objs := benchStream()
	for _, en := range []string{"GAPS", "MGAPS"} {
		b.Run(en, func(b *testing.B) { replayBench(b, en, cfg, objs) })
	}
}

// BenchmarkFig7Alpha: cost vs the balance parameter (Figure 7).
func BenchmarkFig7Alpha(b *testing.B) {
	_, cfg := benchDataset()
	objs := benchStream()
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		for _, en := range []string{"CCS", "GAPS"} {
			b.Run(fmt.Sprintf("%s/alpha=%.1f", en, alpha), func(b *testing.B) {
				c := cfg
				c.Alpha = alpha
				replayBench(b, en, c, objs)
			})
		}
	}
}

// BenchmarkTable3ApproxAlpha reports the empirical approximation ratios vs
// alpha as metrics (Table III).
func BenchmarkTable3ApproxAlpha(b *testing.B) {
	_, cfg := benchDataset()
	objs := benchStream()
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			c := cfg
			c.Alpha = alpha
			var g, m float64
			for i := 0; i < b.N; i++ {
				var err error
				g, m, err = bench.ApproxRatio(c, objs, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(g*100, "%GAPS")
			b.ReportMetric(m*100, "%MGAPS")
		})
	}
}

// BenchmarkTable4ApproxWindow reports approximation ratios vs window size
// (Table IV).
func BenchmarkTable4ApproxWindow(b *testing.B) {
	d, cfg := benchDataset()
	for _, wMin := range []float64{1, 5, 10} {
		b.Run(fmt.Sprintf("window=%gm", wMin), func(b *testing.B) {
			c := cfg
			c.WC = wMin * 60
			c.WP = wMin * 60
			objs := d.Generate(6000)
			var g, m float64
			for i := 0; i < b.N; i++ {
				var err error
				g, m, err = bench.ApproxRatio(c, objs, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(g*100, "%GAPS")
			b.ReportMetric(m*100, "%MGAPS")
		})
	}
}

// BenchmarkFig8Scalability: per-stream-hour cost at increasing arrival rates
// (Figure 8). The same base stream is stretched to each target rate.
func BenchmarkFig8Scalability(b *testing.B) {
	d, cfg := benchDataset()
	base := d.Generate(8000)
	for _, ratePerDay := range []float64{2e5, 6e5, 1e6} {
		objs := stream.Stretch(base, ratePerDay)
		for _, en := range []string{"CCS", "GAPS"} {
			b.Run(fmt.Sprintf("%s/rate=%.0fk", en, ratePerDay/1e3), func(b *testing.B) {
				var last bench.Measurement
				for i := 0; i < b.N; i++ {
					eng, err := bench.NewEngine(en, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = bench.Replay(cfg, eng, objs)
				}
				b.ReportMetric(last.PerStreamHour(), "s/stream-hour")
			})
		}
	}
}

// BenchmarkFig9TopK: per-object cost of the top-k engines (Figure 9),
// including the naive baseline on a reduced sample.
func BenchmarkFig9TopK(b *testing.B) {
	_, cfg := benchDataset()
	objs := benchStream()
	for _, en := range []string{"kCCS", "kGAPS", "kMGAPS"} {
		for _, k := range []int{3, 5} {
			b.Run(fmt.Sprintf("%s/k=%d", en, k), func(b *testing.B) {
				var last bench.Measurement
				for i := 0; i < b.N; i++ {
					eng, err := bench.NewTopKEngine(en, cfg, k)
					if err != nil {
						b.Fatal(err)
					}
					last = bench.ReplayTopK(cfg, eng, objs, 1500)
				}
				if last.Objects > 0 {
					b.ReportMetric(float64(last.Elapsed.Nanoseconds())/float64(last.Objects), "ns/obj")
				}
			})
		}
	}
	b.Run("Naive/k=3", func(b *testing.B) {
		var last bench.Measurement
		for i := 0; i < b.N; i++ {
			eng, err := bench.NewTopKEngine("Naive", cfg, 3)
			if err != nil {
				b.Fatal(err)
			}
			last = bench.ReplayTopK(cfg, eng, objs, 100)
		}
		if last.Objects > 0 {
			b.ReportMetric(float64(last.Elapsed.Nanoseconds())/float64(last.Objects), "ns/obj")
		}
	})
}

// BenchmarkCaseStudy: end-to-end burst tracking on an injected hotspot
// (Section VII-G).
func BenchmarkCaseStudy(b *testing.B) {
	d, cfg := benchDataset()
	objs := d.Generate(6000)
	objs = stream.Inject(objs, stream.Burst{
		CX: 12.7, CY: 42.05, SX: cfg.Width / 6, SY: cfg.Height / 6,
		Start: objs[len(objs)-1].T * 0.7, Duration: 300, Count: 200, Seed: 1,
	})
	replayBench(b, "CCS", cfg, objs)
}

// BenchmarkRestoreTopK times RestoreTopKSharded of the kCCS chain, its first
// answer included, on exact-1shard's stream: a TaxiLike stream at 15M
// objects a day with 300 s windows and k = 5, checkpointed when exactly the
// two windows are full (about 104k live objects) and restored into one and
// two shards. ns/live-obj divides the restore time by the live objects;
// B/live-obj is the heap the restore allocates per live object.
func BenchmarkRestoreTopK(b *testing.B) {
	const rate = 15e6 // objects per day
	d := stream.TaxiLike(1)
	opt := surge.Options{Width: d.QueryWidth(), Height: d.QueryHeight(), Window: 300, Alpha: 0.5}
	src := stream.Stretch(d.Generate(int(rate/86400*2*opt.Window)), rate)
	objs := make([]surge.Object, len(src))
	for i, o := range src {
		objs[i] = surge.Object{X: o.X, Y: o.Y, Weight: o.Weight, Time: o.T}
	}
	// The checkpoint is engine-independent, so the cheap grid engine writes it.
	det, err := surge.New(surge.GridApprox, opt)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := det.PushBatch(objs); err != nil {
		b.Fatal(err)
	}
	ckpt, err := det.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	live := det.Live()
	det.Close()
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			alloc := ms.TotalAlloc
			b.ResetTimer()
			for range b.N {
				td, err := surge.RestoreTopKSharded(surge.CellCSPOT, ckpt, 5, shards, surge.KeepShards)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				td.Close()
				b.StartTimer()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			n := float64(b.N * live)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/live-obj")
			b.ReportMetric(float64(ms.TotalAlloc-alloc)/n, "B/live-obj")
		})
	}
}
