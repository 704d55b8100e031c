package bench

import (
	"fmt"
	"io"
	"math"

	"surge/internal/core"
	"surge/internal/geom"
	"surge/internal/stream"
	"surge/internal/window"
)

// Options configure an experiment run. The zero value is not usable; use
// DefaultOptions.
type Options struct {
	Out   io.Writer
	Seed  uint64
	Alpha float64
	K     int
	// RateScale multiplies the datasets' arrival rates. The paper runs 1M
	// objects at full Twitter/taxi rates on a 64GB server; the default scale
	// keeps every sweep point affordable on a laptop while preserving the
	// relative behaviour of the algorithms. Use -full (RateScale=1).
	RateScale float64
	// MaxExact / MaxApprox cap the number of measured objects per sweep
	// point for exact and approximate engines respectively.
	MaxExact  int
	MaxApprox int
}

// DefaultOptions returns laptop-scale defaults.
func DefaultOptions(out io.Writer) Options {
	return Options{
		Out:       out,
		Seed:      1,
		Alpha:     0.5,
		K:         5,
		RateScale: 0.1,
		MaxExact:  8000,
		MaxApprox: 120000,
	}
}

// Experiments returns the registry of experiment ids in run order.
func Experiments() []string {
	return []string{"table1", "fig5", "table2", "fig6", "fig7", "table3", "table4", "fig8", "fig9", "case", "ablation", "roadnet"}
}

// Run executes one experiment by id.
func Run(id string, o Options) error {
	switch id {
	case "table1":
		return Table1(o)
	case "fig5":
		return Fig5(o)
	case "table2":
		return Table2(o)
	case "fig6":
		return Fig6(o)
	case "fig7":
		return Fig7(o)
	case "table3":
		return Table3(o)
	case "table4":
		return Table4(o)
	case "fig8":
		return Fig8(o)
	case "fig9":
		return Fig9(o)
	case "case":
		return CaseStudy(o)
	case "ablation":
		return Ablation(o)
	case "roadnet":
		return RoadNet(o)
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, Experiments())
	}
}

// dataset returns the named Table-I dataset with the run's rate scale.
func (o Options) dataset(name string) stream.Dataset {
	var d stream.Dataset
	switch name {
	case "UK":
		d = stream.UKLike(o.Seed)
	case "US":
		d = stream.USLike(o.Seed + 1)
	default:
		d = stream.TaxiLike(o.Seed + 2)
	}
	d.RatePerHour *= o.RateScale
	return d
}

// windowSweeps returns each dataset's paper window sweep in seconds.
func windowSweeps() map[string][]float64 {
	return map[string][]float64{
		"Taxi": {1 * 60, 5 * 60, 10 * 60, 20 * 60, 30 * 60},
		"UK":   {0.5 * 3600, 1 * 3600, 2 * 3600, 5 * 3600, 12 * 3600},
		"US":   {0.5 * 3600, 1 * 3600, 2 * 3600, 5 * 3600, 12 * 3600},
	}
}

func windowLabel(name string, w float64) string {
	if name == "Taxi" {
		return fmt.Sprintf("%gm", w/60)
	}
	return fmt.Sprintf("%gh", w/3600)
}

// genFor generates just enough stream for a sweep point: the 2-window
// warm-up plus the measured sample plus slack.
func genFor(d stream.Dataset, windowSec float64, measured int) []core.Object {
	warm := int(d.RatePerHour/3600*2*windowSec*1.08) + 100
	return d.Generate(warm + measured + measured/10 + 100)
}

func (o Options) cfgFor(d stream.Dataset, windowSec, sizeMult float64) core.Config {
	return core.Config{
		Width:  d.QueryWidth() * sizeMult,
		Height: d.QueryHeight() * sizeMult,
		WC:     windowSec,
		WP:     windowSec,
		Alpha:  o.Alpha,
	}
}

// Table1 reproduces Table I: the dataset envelopes of the generated streams.
func Table1(o Options) error {
	t := NewTable(o.Out, "Table I: datasets (generated; published envelope in parentheses)",
		"Dataset", "Objects", "Rate/hour (paper)", "Lat range (paper)", "Lon range (paper)", "Mean weight")
	for _, name := range []string{"UK", "US", "Taxi"} {
		d := o.dataset(name)
		n := int(d.RatePerHour * 24) // one simulated day
		if n > 1000000 {
			n = 1000000
		}
		objs := d.Generate(n)
		s := stream.Summarize(objs)
		t.Row(name, s.Count,
			fmt.Sprintf("%.0f (%.0f)", s.RatePerHour, d.RatePerHour),
			fmt.Sprintf("[%.1f, %.1f] ([%.1f, %.1f])", s.XMin, s.XMax, d.XMin, d.XMax),
			fmt.Sprintf("[%.1f, %.1f] ([%.1f, %.1f])", s.YMin, s.YMax, d.YMin, d.YMax),
			fmt.Sprintf("%.1f", s.MeanWeight))
	}
	t.Flush()
	return nil
}

// Fig5 reproduces Figure 5: per-object runtime of the exact solutions (CCS,
// B-CCS, Base, aG2) against the window length (a-c) and query size (d-f).
func Fig5(o Options) error {
	engines := []string{"CCS", "B-CCS", "Base", "aG2"}
	for _, name := range []string{"Taxi", "UK", "US"} {
		d := o.dataset(name)
		t := NewTable(o.Out, fmt.Sprintf("Fig 5 (%s): exact solutions, time/object (us) vs window", name),
			append([]string{"Window"}, engines...)...)
		for _, w := range windowSweeps()[name] {
			objs := genFor(d, w, o.MaxExact)
			cfg := o.cfgFor(d, w, 1)
			row := []any{windowLabel(name, w)}
			for _, en := range engines {
				eng, err := NewEngine(en, cfg)
				if err != nil {
					return err
				}
				m := ReplayLimited(cfg, eng, objs, o.MaxExact)
				row = append(row, fmt.Sprintf("%.1f", m.MicrosPerObject()))
			}
			t.Row(row...)
		}
		t.Flush()

		t = NewTable(o.Out, fmt.Sprintf("Fig 5 (%s): exact solutions, time/object (us) vs query size", name),
			append([]string{"Size"}, engines...)...)
		wDef := defaultWindow(name)
		objs := genFor(d, wDef, o.MaxExact)
		for _, mult := range []float64{0.5, 1, 2, 3} {
			cfg := o.cfgFor(d, wDef, mult)
			row := []any{fmt.Sprintf("%gq", mult)}
			for _, en := range engines {
				eng, err := NewEngine(en, cfg)
				if err != nil {
					return err
				}
				m := ReplayLimited(cfg, eng, objs, o.MaxExact)
				row = append(row, fmt.Sprintf("%.1f", m.MicrosPerObject()))
			}
			t.Row(row...)
		}
		t.Flush()
	}
	return nil
}

func defaultWindow(name string) float64 {
	if name == "Taxi" {
		return 5 * 60
	}
	return 3600
}

// Table2 reproduces Table II: the percentage of rectangle events that
// trigger a cell search, CCS vs B-CCS, across the window sweep.
func Table2(o Options) error {
	for _, name := range []string{"Taxi", "UK", "US"} {
		d := o.dataset(name)
		t := NewTable(o.Out, fmt.Sprintf("Table II (%s): %% of events triggering a search", name),
			"Window", "CCS", "B-CCS")
		for _, w := range windowSweeps()[name] {
			objs := genFor(d, w, o.MaxExact)
			cfg := o.cfgFor(d, w, 1)
			row := []any{windowLabel(name, w)}
			for _, en := range []string{"CCS", "B-CCS"} {
				eng, err := NewEngine(en, cfg)
				if err != nil {
					return err
				}
				m := ReplayLimited(cfg, eng, objs, o.MaxExact)
				row = append(row, fmt.Sprintf("%.2f%%", m.Stats.SearchRatio()*100))
			}
			t.Row(row...)
		}
		t.Flush()
	}
	return nil
}

// Fig6 reproduces Figure 6: per-object runtime of GAPS and MGAPS vs window
// length and query size.
func Fig6(o Options) error {
	engines := []string{"GAPS", "MGAPS"}
	for _, name := range []string{"Taxi", "UK", "US"} {
		d := o.dataset(name)
		t := NewTable(o.Out, fmt.Sprintf("Fig 6 (%s): approximate solutions, time/object (us) vs window", name),
			append([]string{"Window"}, engines...)...)
		for _, w := range windowSweeps()[name] {
			objs := genFor(d, w, o.MaxApprox)
			cfg := o.cfgFor(d, w, 1)
			row := []any{windowLabel(name, w)}
			for _, en := range engines {
				eng, _ := NewEngine(en, cfg)
				m := ReplayLimited(cfg, eng, objs, o.MaxApprox)
				row = append(row, fmt.Sprintf("%.3f", m.MicrosPerObject()))
			}
			t.Row(row...)
		}
		t.Flush()

		t = NewTable(o.Out, fmt.Sprintf("Fig 6 (%s): approximate solutions, time/object (us) vs query size", name),
			append([]string{"Size"}, engines...)...)
		wDef := defaultWindow(name)
		objs := genFor(d, wDef, o.MaxApprox)
		for _, mult := range []float64{0.5, 1, 2, 3} {
			cfg := o.cfgFor(d, wDef, mult)
			row := []any{fmt.Sprintf("%gq", mult)}
			for _, en := range engines {
				eng, _ := NewEngine(en, cfg)
				m := ReplayLimited(cfg, eng, objs, o.MaxApprox)
				row = append(row, fmt.Sprintf("%.3f", m.MicrosPerObject()))
			}
			t.Row(row...)
		}
		t.Flush()
	}
	return nil
}

// Fig7 reproduces Figure 7: runtime vs the balance parameter alpha on the
// US dataset, for the exact (CCS, aG2) and approximate (GAPS, MGAPS)
// solutions.
func Fig7(o Options) error {
	d := o.dataset("US")
	w := defaultWindow("US")
	exact := []string{"CCS", "aG2"}
	approx := []string{"GAPS", "MGAPS"}
	t := NewTable(o.Out, "Fig 7(a): exact solutions on US, time/object (us) vs alpha",
		append([]string{"alpha"}, exact...)...)
	objsE := genFor(d, w, o.MaxExact)
	objsA := genFor(d, w, o.MaxApprox)
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := o.cfgFor(d, w, 1)
		cfg.Alpha = alpha
		row := []any{alpha}
		for _, en := range exact {
			eng, _ := NewEngine(en, cfg)
			m := ReplayLimited(cfg, eng, objsE, o.MaxExact)
			row = append(row, fmt.Sprintf("%.1f", m.MicrosPerObject()))
		}
		t.Row(row...)
	}
	t.Flush()
	t = NewTable(o.Out, "Fig 7(b): approximate solutions on US, time/object (us) vs alpha",
		append([]string{"alpha"}, approx...)...)
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := o.cfgFor(d, w, 1)
		cfg.Alpha = alpha
		row := []any{alpha}
		for _, en := range approx {
			eng, _ := NewEngine(en, cfg)
			m := ReplayLimited(cfg, eng, objsA, o.MaxApprox)
			row = append(row, fmt.Sprintf("%.3f", m.MicrosPerObject()))
		}
		t.Row(row...)
	}
	t.Flush()
	return nil
}

// ApproxRatio replays one stream through CCS (exact), GAPS and MGAPS
// simultaneously and returns the mean score ratios of the approximations
// over the events past warm-up (Tables III and IV). maxMeasured caps the
// measured objects (0 = unlimited).
func ApproxRatio(cfg core.Config, objs []core.Object, maxMeasured int) (gapsRatio, mgapsRatio float64, err error) {
	exact, err := NewEngine("CCS", cfg)
	if err != nil {
		return 0, 0, err
	}
	gaps, _ := NewEngine("GAPS", cfg)
	mgaps, _ := NewEngine("MGAPS", cfg)
	win, err := window.New(cfg.WC, cfg.WP)
	if err != nil {
		return 0, 0, err
	}
	warm := true
	var sumG, sumM float64
	samples := 0
	measured := 0
	step := func(ev core.Event) {
		if warm && ev.Kind == core.Expired {
			warm = false
		}
		exact.Process(ev)
		gaps.Process(ev)
		mgaps.Process(ev)
		if warm {
			return
		}
		opt := exact.Best()
		if !opt.Found || opt.Score <= 0 {
			return
		}
		g, m := gaps.Best(), mgaps.Best()
		sumG += g.Score / opt.Score
		sumM += m.Score / opt.Score
		samples++
	}
	for _, ob := range objs {
		if _, err := win.Push(ob, step); err != nil {
			return 0, 0, err
		}
		if !warm {
			measured++
			if maxMeasured > 0 && measured >= maxMeasured {
				break
			}
		}
	}
	if samples == 0 {
		return 0, 0, fmt.Errorf("bench: no ratio samples (stream too short for window %v)", cfg.WC)
	}
	return sumG / float64(samples), sumM / float64(samples), nil
}

// Table3 reproduces Table III: approximation ratio vs alpha on US.
func Table3(o Options) error {
	d := o.dataset("US")
	w := defaultWindow("US")
	t := NewTable(o.Out, "Table III: approximation ratio vs alpha (US)",
		"alpha", "GAPS", "MGAPS")
	objs := genFor(d, w, o.MaxExact)
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := o.cfgFor(d, w, 1)
		cfg.Alpha = alpha
		g, m, err := ApproxRatio(cfg, objs, o.MaxExact)
		if err != nil {
			return err
		}
		t.Row(alpha, fmt.Sprintf("%.2f%%", g*100), fmt.Sprintf("%.2f%%", m*100))
	}
	t.Flush()
	return nil
}

// Table4 reproduces Table IV (Appendix K): approximation ratio vs window
// size on all three datasets.
func Table4(o Options) error {
	for _, name := range []string{"Taxi", "UK", "US"} {
		d := o.dataset(name)
		t := NewTable(o.Out, fmt.Sprintf("Table IV (%s): approximation ratio vs window", name),
			"Window", "GAPS", "MGAPS")
		for _, w := range windowSweeps()[name] {
			cfg := o.cfgFor(d, w, 1)
			objs := genFor(d, w, o.MaxExact)
			g, m, err := ApproxRatio(cfg, objs, o.MaxExact)
			if err != nil {
				return err
			}
			t.Row(windowLabel(name, w), fmt.Sprintf("%.2f%%", g*100), fmt.Sprintf("%.2f%%", m*100))
		}
		t.Flush()
	}
	return nil
}

// Fig8 reproduces Figure 8: scalability with the arrival rate. The stream
// is stretched to rates of 2-10 million objects/day (scaled by RateScale)
// and the wall-clock time to process one hour of stream is reported for CCS
// and GAPS.
func Fig8(o Options) error {
	t := NewTable(o.Out, "Fig 8: processing time per stream-hour (s) vs arrival rate",
		"Rate (M/day)", "CCS UK", "CCS US", "CCS Taxi", "GAPS UK", "GAPS US", "GAPS Taxi")
	w := 3600.0
	type key struct{ rate, ds string }
	results := map[key]string{}
	rates := []float64{2e6, 4e6, 6e6, 8e6, 10e6}
	for _, name := range []string{"UK", "US", "Taxi"} {
		d := o.dataset(name)
		base := d.Generate(int(200000 * o.RateScale * 10)) // base stream to stretch
		for _, rate := range rates {
			scaled := rate * o.RateScale
			objs := stream.Stretch(base, scaled)
			cfg := o.cfgFor(d, w, 1)
			for _, en := range []string{"CCS", "GAPS"} {
				eng, _ := NewEngine(en, cfg)
				limit := o.MaxExact
				if en == "GAPS" {
					limit = o.MaxApprox
				}
				m := ReplayLimited(cfg, eng, objs, limit)
				results[key{fmt.Sprintf("%g", rate/1e6), en + " " + name}] = fmt.Sprintf("%.3f", m.PerStreamHour())
			}
		}
	}
	for _, rate := range rates {
		r := fmt.Sprintf("%g", rate/1e6)
		t.Row(r,
			results[key{r, "CCS UK"}], results[key{r, "CCS US"}], results[key{r, "CCS Taxi"}],
			results[key{r, "GAPS UK"}], results[key{r, "GAPS US"}], results[key{r, "GAPS Taxi"}])
	}
	t.Flush()
	fmt.Fprintf(o.Out, "(rates scaled by RateScale=%g; one stream-hour at scale 1 holds the paper's object volume)\n", o.RateScale)
	return nil
}

// Fig9 reproduces Figure 9: top-k detection. (a-c) runtime vs window for
// kCCS/kGAPS/kMGAPS (plus Naive on a small US configuration), (d-f) runtime
// vs k.
func Fig9(o Options) error {
	engines := []string{"kCCS", "kGAPS", "kMGAPS"}
	maxTopkExact := o.MaxExact / 4
	if maxTopkExact < 500 {
		maxTopkExact = 500
	}
	for _, name := range []string{"Taxi", "UK", "US"} {
		d := o.dataset(name)
		t := NewTable(o.Out, fmt.Sprintf("Fig 9 (%s): top-k (k=%d), time/object (us) vs window", name, o.K),
			append([]string{"Window"}, engines...)...)
		for _, w := range windowSweeps()[name] {
			objs := genFor(d, w, maxTopkExact)
			cfg := o.cfgFor(d, w, 1)
			row := []any{windowLabel(name, w)}
			for _, en := range engines {
				eng, err := NewTopKEngine(en, cfg, o.K)
				if err != nil {
					return err
				}
				limit := maxTopkExact
				if en != "kCCS" {
					limit = o.MaxApprox
				}
				m := ReplayTopK(cfg, eng, objs, limit)
				row = append(row, fmt.Sprintf("%.2f", m.MicrosPerObject()))
			}
			t.Row(row...)
		}
		t.Flush()
	}
	// Naive comparison on a deliberately small US configuration, as in the
	// paper ("we only run it with a small sliding window on US").
	{
		d := o.dataset("US")
		w := 0.5 * 3600
		cfg := o.cfgFor(d, w, 1)
		objs := genFor(d, w, 300)
		t := NewTable(o.Out, "Fig 9(c) inset: naive top-k baseline (US, 0.5h window)",
			"Engine", "time/object (us)")
		for _, en := range []string{"Naive", "kCCS"} {
			eng, _ := NewTopKEngine(en, cfg, o.K)
			m := ReplayTopK(cfg, eng, objs, 300)
			t.Row(en, fmt.Sprintf("%.1f", m.MicrosPerObject()))
		}
		t.Flush()
	}
	// (d-f): runtime vs k.
	for _, name := range []string{"Taxi", "UK", "US"} {
		d := o.dataset(name)
		w := defaultWindow(name)
		objs := genFor(d, w, maxTopkExact)
		t := NewTable(o.Out, fmt.Sprintf("Fig 9 (%s): top-k, time/object (us) vs k", name),
			"k", "kCCS", "kGAPS", "kMGAPS")
		for _, k := range []int{3, 5, 7, 9} {
			cfg := o.cfgFor(d, w, 1)
			row := []any{k}
			for _, en := range engines {
				eng, _ := NewTopKEngine(en, cfg, k)
				limit := maxTopkExact
				if en != "kCCS" {
					limit = o.MaxApprox
				}
				m := ReplayTopK(cfg, eng, objs, limit)
				row = append(row, fmt.Sprintf("%.2f", m.MicrosPerObject()))
			}
			t.Row(row...)
		}
		t.Flush()
	}
	return nil
}

// CaseStudy reproduces Section VII-G qualitatively: a localized burst is
// planted in a Taxi-like stream and CCS is expected to lock onto it while
// it is inside the current window.
func CaseStudy(o Options) error {
	d := o.dataset("Taxi")
	w := 5 * 60.0
	cfg := o.cfgFor(d, w, 1)
	objs := d.Generate(int(d.RatePerHour/3600*2.5*3600) + 2000)
	burst := stream.Burst{
		CX: 12.70, CY: 42.05, SX: cfg.Width / 6, SY: cfg.Height / 6,
		Start: 2 * 3600, Duration: w, Count: 300, Seed: o.Seed,
	}
	objs = stream.Inject(objs, burst)
	eng, err := NewEngine("CCS", cfg)
	if err != nil {
		return err
	}
	win, err := window.New(cfg.WC, cfg.WP)
	if err != nil {
		return err
	}
	hits, queries := 0, 0
	var sample core.Result
	for _, ob := range objs {
		if _, err := win.Push(ob, eng.Process); err != nil {
			return err
		}
		if ob.T > burst.Start+30 && ob.T < burst.Start+burst.Duration {
			res := eng.Best()
			queries++
			if res.Found && res.Region.ContainsCO(geom.Point{X: burst.CX, Y: burst.CY}) {
				hits++
				sample = res
			}
		}
	}
	t := NewTable(o.Out, "Case study: planted burst tracking (Taxi-like, CCS)",
		"Metric", "Value")
	t.Row("burst centre", fmt.Sprintf("(%.3f, %.3f)", burst.CX, burst.CY))
	t.Row("burst objects / duration", fmt.Sprintf("%d / %.0fs", burst.Count, burst.Duration))
	t.Row("queries during burst", queries)
	t.Row("queries locked on burst", fmt.Sprintf("%d (%.1f%%)", hits, 100*float64(hits)/math.Max(1, float64(queries))))
	if sample.Found {
		t.Row("sample detected region", fmt.Sprintf("[%.5f,%.5f]x[%.5f,%.5f] score %.1f",
			sample.Region.MinX, sample.Region.MaxX, sample.Region.MinY, sample.Region.MaxY, sample.Score))
	}
	t.Flush()
	if queries > 0 && float64(hits)/float64(queries) < 0.5 {
		return fmt.Errorf("case study: burst tracked in only %d/%d queries", hits, queries)
	}
	return nil
}
