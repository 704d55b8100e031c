// Command surgebench regenerates the tables and figures of the SURGE paper's
// evaluation (Section VII) on synthetic workloads matching the published
// dataset envelopes; -list prints the experiment index. The served system is
// measured by `go run ./benchmark`, not here.
//
// Usage:
//
//	surgebench -exp all                 # every experiment, laptop scale
//	surgebench -exp fig5,table2         # a subset
//	surgebench -exp fig8 -full          # paper-scale arrival rates
//	surgebench -list                    # show experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"surge/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		seed      = flag.Uint64("seed", 1, "workload seed")
		alpha     = flag.Float64("alpha", 0.5, "burst-score balance parameter")
		k         = flag.Int("k", 5, "k for the top-k experiments")
		rateScale = flag.Float64("rate-scale", 0.1, "arrival-rate scale (1 = paper rates)")
		maxExact  = flag.Int("max-exact", 8000, "measured objects per point for exact engines")
		maxApprox = flag.Int("max-approx", 120000, "measured objects per point for approximate engines")
		full      = flag.Bool("full", false, "paper scale: rate-scale=1, larger samples")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}

	o := bench.DefaultOptions(os.Stdout)
	o.Seed = *seed
	o.Alpha = *alpha
	o.K = *k
	o.RateScale = *rateScale
	o.MaxExact = *maxExact
	o.MaxApprox = *maxApprox
	if *full {
		o.RateScale = 1
		o.MaxExact = 50000
		o.MaxApprox = 1000000
	}

	ids := bench.Experiments()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		start := time.Now()
		if err := bench.Run(id, o); err != nil {
			fmt.Fprintf(os.Stderr, "surgebench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}
