// Command surged runs a SURGE detector over a CSV stream of spatial objects
// and prints the bursty region whenever it changes.
//
// Input format (stdin or -in file), one object per line, time-ordered:
//
//	time,x,y,weight
//
// Example:
//
//	surged -algo CCS -width 0.01 -height 0.01 -window 3600 -alpha 0.5 < objects.csv
//
// With -demo it generates a Taxi-like synthetic stream with a planted burst
// instead of reading input, which makes a quick smoke test:
//
//	surged -demo
//
// For heavy streams, -shards N runs the sharded concurrent pipeline (N engine
// goroutines over a spatial column partitioning; 0 = one per CPU) and -batch M
// ingests M objects per detector synchronisation (-batch auto picks 1
// single-engine, 512 sharded). Inside the pipeline the router sizes its
// per-shard event batches by observed backlog. A summary with the shard
// count and merged engine statistics is reported on exit.
//
// With the serve subcommand, surged instead runs as a long-lived HTTP
// service (see surge/internal/server and the surge/client package):
//
//	surged serve -addr :7077 -algo CCS -shards 0 -checkpoint surge.ckpt
//
// See serve.go for the endpoint list and flags.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"surge"
	"surge/internal/stream"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		algo   = flag.String("algo", "CCS", "algorithm: CCS, B-CCS, Base, aG2, GAPS, MGAPS, Oracle")
		width  = flag.Float64("width", 0.01, "query rectangle width")
		height = flag.Float64("height", 0.01, "query rectangle height")
		win    = flag.Float64("window", 3600, "window length |Wc| (= |Wp| unless -past-window)")
		pastW  = flag.Float64("past-window", 0, "past window length |Wp| (0 = same as -window)")
		alpha  = flag.Float64("alpha", 0.5, "burst-score balance parameter in [0,1)")
		k      = flag.Int("k", 1, "track top-k bursty regions")
		in     = flag.String("in", "-", "input CSV file ('-' = stdin)")
		every  = flag.Int("every", 1, "print at most every Nth change")
		demo   = flag.Bool("demo", false, "run on a generated demo stream with a planted burst")
		shards = flag.Int("shards", 1, "engine shards: 1 = single engine, 0 = one per CPU")
		batch  = flag.String("batch", "auto", "objects ingested per detector sync: a number, or auto (1 single-engine, 512 sharded)")
	)
	flag.Parse()

	alg, err := parseAlgo(*algo)
	if err != nil {
		fatal(err)
	}
	nShards := *shards
	if nShards == 0 {
		nShards = runtime.NumCPU()
	}
	if nShards < 1 {
		fatal(fmt.Errorf("invalid -shards %d", *shards))
	}
	nBatch, err := parseBatch(*batch, nShards)
	if err != nil {
		fatal(err)
	}
	opt := surge.Options{
		Width: *width, Height: *height,
		Window: *win, PastWindow: *pastW, Alpha: *alpha,
		Shards: nShards,
	}

	var src io.Reader
	switch {
	case *demo:
		src = demoStream(&opt)
	case *in == "-":
		src = os.Stdin
	default:
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}

	if *k > 1 {
		if err := runTopK(alg, opt, *k, src, *every, nBatch); err != nil {
			fatal(err)
		}
		return
	}
	if err := runSingle(alg, opt, src, *every, nBatch); err != nil {
		fatal(err)
	}
}

// parseBatch resolves the -batch flag: "auto" (or 0) selects 1 on the
// single-engine path and 512 on the sharded pipeline, where per-object
// synchronisation would dominate.
func parseBatch(s string, shards int) (int, error) {
	n := 0
	if s != "auto" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("invalid -batch %q (want a number or auto)", s)
		}
		n = v
	}
	if n == 0 {
		if shards > 1 {
			return 512, nil
		}
		return 1, nil
	}
	if n < 1 {
		return 0, fmt.Errorf("invalid -batch %d", n)
	}
	return n, nil
}

func parseAlgo(s string) (surge.Algorithm, error) {
	alg, err := surge.ParseAlgorithm(s)
	if err != nil {
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
	return alg, nil
}

func runSingle(alg surge.Algorithm, opt surge.Options, src io.Reader, every, batchSize int) error {
	det, err := surge.New(alg, opt)
	if err != nil {
		return err
	}
	defer det.Close()
	var (
		last    surge.Result
		changes int
		objects int
		buf     = make([]surge.Object, 0, batchSize)
		start   = time.Now()
	)
	report := func(t float64, res surge.Result) {
		if regionChanged(last, res) {
			changes++
			if changes%every == 0 {
				printResult(t, res)
			}
			last = res
		}
	}
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		res, err := det.PushBatch(buf)
		if err != nil {
			return err
		}
		report(buf[len(buf)-1].Time, res)
		buf = buf[:0]
		return nil
	}
	err = forEachObject(src, func(o surge.Object) error {
		objects++
		if batchSize == 1 {
			res, err := det.Push(o)
			if err != nil {
				return err
			}
			report(o.Time, res)
			return nil
		}
		buf = append(buf, o)
		if len(buf) >= batchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := det.Stats()
	fmt.Fprintf(os.Stderr,
		"surged: %d objects in %v (%.0f objects/s), shards=%d batch=%d, events=%d searches=%d (%.2f%% of events)\n",
		objects, elapsed.Round(time.Millisecond),
		float64(objects)/math.Max(elapsed.Seconds(), 1e-9),
		det.Shards(), batchSize, st.Events, st.Searches, st.SearchRatio()*100)
	return nil
}

// runTopK streams the objects through a top-k detector — honouring -shards
// via the cross-shard chain — ingesting nBatch objects per detector
// synchronisation and printing the refreshed top-k at most every -every
// objects.
func runTopK(alg surge.Algorithm, opt surge.Options, k int, src io.Reader, every, nBatch int) error {
	det, err := surge.NewTopK(alg, opt, k)
	if err != nil {
		return err
	}
	defer det.Close()
	n, lastPrint := 0, 0
	batch := make([]surge.Object, 0, nBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		res, err := det.PushBatch(batch)
		if err != nil {
			return err
		}
		n += len(batch)
		t := batch[len(batch)-1].Time
		batch = batch[:0]
		if n/every > lastPrint {
			lastPrint = n / every
			fmt.Printf("t=%.1f top-%d:\n", t, k)
			for i, r := range res {
				if !r.Found {
					break
				}
				fmt.Printf("  #%d score=%.2f region=[%.4f,%.4f]x[%.4f,%.4f]\n",
					i+1, r.Score, r.Region.MinX, r.Region.MaxX, r.Region.MinY, r.Region.MaxY)
			}
		}
		return nil
	}
	if err := forEachObject(src, func(o surge.Object) error {
		batch = append(batch, o)
		if len(batch) >= nBatch {
			return flush()
		}
		return nil
	}); err != nil {
		return err
	}
	return flush()
}

func regionChanged(a, b surge.Result) bool {
	if a.Found != b.Found {
		return true
	}
	if !b.Found {
		return false
	}
	return a.Region != b.Region || math.Abs(a.Score-b.Score) > 1e-9*(1+math.Abs(a.Score))
}

func printResult(t float64, r surge.Result) {
	if !r.Found {
		fmt.Printf("t=%.1f no bursty region\n", t)
		return
	}
	fmt.Printf("t=%.1f score=%.2f region=[%.4f,%.4f]x[%.4f,%.4f]\n",
		t, r.Score, r.Region.MinX, r.Region.MaxX, r.Region.MinY, r.Region.MaxY)
}

func forEachObject(src io.Reader, f func(surge.Object) error) error {
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return fmt.Errorf("line %d: want time,x,y,weight", line)
		}
		var vals [4]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("line %d field %d: %v", line, i+1, err)
			}
			vals[i] = v
		}
		if err := f(surge.Object{Time: vals[0], X: vals[1], Y: vals[2], Weight: vals[3]}); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
	}
	return sc.Err()
}

// demoStream renders a Taxi-like synthetic stream with a planted burst as
// CSV and tunes the options to the dataset's paper defaults.
func demoStream(opt *surge.Options) io.Reader {
	d := stream.TaxiLike(42)
	d.RatePerHour *= 0.05
	objs := d.Generate(4000)
	objs = stream.Inject(objs, stream.Burst{
		CX: 12.7, CY: 42.05,
		SX: d.QueryWidth() / 6, SY: d.QueryHeight() / 6,
		Start: objs[len(objs)-1].T * 0.6, Duration: 300, Count: 200, Seed: 42,
	})
	opt.Width = d.QueryWidth()
	opt.Height = d.QueryHeight()
	opt.Window = 300
	var b strings.Builder
	for _, o := range objs {
		fmt.Fprintf(&b, "%f,%f,%f,%f\n", o.T, o.X, o.Y, o.Weight)
	}
	return strings.NewReader(b.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "surged:", err)
	os.Exit(1)
}
