// Command benchmark is the SURGE service benchmark: it builds ./cmd/surged,
// runs `surged serve` as a subprocess and drives it over loopback from this
// one load-generator process. See README.md for the workloads, the metrics
// and how they interact.
//
//	go run ./benchmark --workload exact-1shard --seed 1 --seconds 20 --trace 0
//	go run ./benchmark --workload exact-1shard --seed 1 --seconds 20 --trace 1
//	go run ./benchmark --runs 10 --summary out.json     # every workload, ten seeds each
//	go run ./benchmark --compare old.json new.json
//
// The last line of standard output of a single run is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// MarshalJSON writes a value JSON has no number for — +Inf where a
// percentile reaches into the failed operations, NaN for an empty sample —
// as null, with the value spelled out beside it.
func (m metricValue) MarshalJSON() ([]byte, error) {
	if finite(m.Value) {
		type plain metricValue
		return json.Marshal(plain(m))
	}
	return json.Marshal(struct {
		Value     *float64 `json:"value"`
		Unit      string   `json:"unit"`
		NonFinite string   `json:"non_finite"`
	}{nil, m.Unit, strconv.FormatFloat(m.Value, 'g', -1, 64)})
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a run as written to <out>/result-*.json: the result plus where
// and on what it was measured. Claim is null: this benchmark measures, the
// changes judged with it claim.
type record struct {
	Workload        string            `json:"workload"`
	Seed            uint64            `json:"seed"`
	Seconds         float64           `json:"seconds"`
	Trace           bool              `json:"trace"`
	PacedRate       float64           `json:"paced_rate_objs_per_s"`
	Samples         map[string]int    `json:"samples"`
	FailedShare     float64           `json:"failed_share"`
	TailPercentiles map[string]string `json:"tail_percentiles"`
	// Backlog is set when the paced phase could not sustain the pinned rate
	// (see backlogGrowing): its latencies then grow with the phase's length,
	// and summarize counts the run so that -compare can discount them.
	Backlog string `json:"backlog_growing,omitempty"`
	// SatSlices is the throughput of each slice of the sat phase, whose
	// median is ingest_objs_per_s: how steady the box was during the run.
	SatSlices []float64 `json:"sat_slice_objs_per_s,omitempty"`
	// Shares splits server.ingest_ns_per_obj by layer (traced runs).
	Shares map[string]float64 `json:"ingest_share_by_layer,omitempty"`
	Env    environment        `json:"env"`
	result
	Claim any `json:"claim"`
}

type environment struct {
	GitCommit       string `json:"git_commit"`
	GoVersion       string `json:"go_version"`
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs_loadgen"`
	ChildGOMAXPROCS string `json:"gomaxprocs_surged"`
	DataDirFS       string `json:"data_dir_fs"`
}

func readEnvironment(outDir string) environment {
	env := environment{
		GitCommit:       "unknown",
		GoVersion:       runtime.Version(),
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ChildGOMAXPROCS: os.Getenv("GOMAXPROCS"),
		DataDirFS:       fsType(outDir),
	}
	if env.ChildGOMAXPROCS == "" {
		env.ChildGOMAXPROCS = "default"
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them, one after the other)")
		seed         = flag.Uint64("seed", 1, "seed of the generated stream")
		seconds      = flag.Float64("seconds", 20, "how long a run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for the surged binary, child stderr, scratch data, results and traces")
		runs         = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		summary      = flag.String("summary", "", "with -runs: write medians and quartiles per workload and metric to this file")
		compare      = flag.Bool("compare", false, "compare two -summary files: benchmark -compare old.json new.json")
		smoke        = flag.Bool("smoke", false, "one tiny run of approx-durable, to check the harness itself")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare old.json new.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	ws, setups := workloads, setupRepeats
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		ws = []workload{w}
	}
	if *smoke {
		w, _ := workloadByName("approx-durable")
		ws, *seconds, setups = []workload{w}, 1, 1
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := &bench{ctx: ctx, reap: newReaper(), outDir: *outDir}
	// SIGINT/SIGTERM: stop the build or boot in flight, kill the children,
	// remove the scratch directories, and only then exit. Every other exit
	// path runs the same cleanup through the defer below.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		b.reap.cleanup()
		os.Exit(130)
	}()
	code := func() int {
		defer b.reap.cleanup()
		if err := os.MkdirAll(b.outDir, 0o755); err != nil {
			return fail(err)
		}
		var err error
		if b.bin, err = buildSurged(ctx, b.outDir); err != nil {
			return fail(err)
		}
		env := readEnvironment(b.outDir)
		var all []record
		for _, w := range ws {
			for r := 0; r < *runs; r++ {
				spec := runSpec{w: w, seed: *seed + uint64(r), seconds: *seconds, setups: setups, trace: *trace != 0}
				rec, err := b.run(spec)
				if err != nil {
					return fail(fmt.Errorf("%s seed %d: %w", w.Name, spec.seed, err))
				}
				rec.Env = env
				if err := writeJSON(filepath.Join(b.outDir, fmt.Sprintf("result-%s-%d-trace%d.json", w.Name, spec.seed, *trace)), rec); err != nil {
					return fail(err)
				}
				if err := printRecord(rec); err != nil {
					return fail(err)
				}
				all = append(all, *rec)
			}
		}
		if *summary != "" {
			if err := writeJSON(*summary, summarize(all, env)); err != nil {
				return fail(err)
			}
		}
		return 0
	}()
	os.Exit(code)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func fatal(err error) { os.Exit(fail(err)) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRecord prints every metric by name with its unit, then the result
// object as the last line.
func printRecord(rec *record) error {
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%t paced=%g objs/s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.PacedRate)
	for _, d := range defs {
		if m, ok := rec.Metrics[d.Name]; ok {
			fmt.Printf("%-40s %14.4f %-6s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
		}
	}
	fmt.Printf("ops_attempted=%d ops_failed=%d failed_share=%g\n", rec.Attempted, rec.Failed, rec.FailedShare)
	fmt.Println(string(line))
	return nil
}

// setupRepeats is how many times a run sets up, each time on a fresh child;
// setup_s is the median and the last child is the one measured.
const setupRepeats = 3

// run measures one workload once.
func (b *bench) run(spec runSpec) (*record, error) {
	if spec.trace {
		return b.runTraced(spec)
	}
	var ref *reference
	var s *session
	setupS := make([]float64, 0, spec.setups)
	for i := 0; i < spec.setups; i++ {
		if s != nil {
			s.close()
		}
		var took time.Duration
		var err error
		s, took, err = b.setup(spec, &ref, "surged-"+spec.w.Name+".stderr")
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer s.close()
	return b.measure(spec, s, median(setupS))
}

// measure runs the timed phases of an untraced run on a set-up session:
// sat, paced, the teardown checks, and kill -9 with recovery.
func (b *bench) measure(spec runSpec, s *session, setupS float64) (*record, error) {
	sat, err := s.sat(s.p.fillEnd, s.p.satEnd)
	if err != nil {
		return nil, err
	}
	paced, err := s.paced(s.p.satEnd, len(s.p.bodies), nil)
	if err != nil {
		return nil, err
	}
	pre, _, err := s.finalChecks()
	if err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	usage, err := readProc(s.c.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	recovery, err := s.recover(pre)
	if err != nil {
		return nil, err
	}

	ack := sortedCopy(latencies(paced.ack))
	query := sortedCopy(latencies(paced.query))
	detect := sortedCopy(paced.detectMS)
	rec := newRecord(spec)
	rec.set("setup_s", setupS)
	rec.set("ingest_objs_per_s", sat.objsPerS)
	rec.SatSlices = sat.sliceRate
	rec.Backlog = paced.backlog
	rec.set("server_cpu_us_per_obj", float64(sat.cpu)/float64(time.Microsecond)/float64(sat.objects))
	rec.set("ack_p50_ms", percentile(ack, 0.5))
	rec.set("detect_p50_ms", percentile(detect, 0.5))
	rec.set("query_p50_ms", percentile(query, 0.5))
	rec.Samples["ack"], rec.Samples["detect"], rec.Samples["query"] = len(ack), len(detect), len(query)
	rec.set("recovery_s", recovery.Seconds())
	rec.set("peak_rss_mb", usage.peakRSS)
	rec.Attempted = s.p.satEnd + len(paced.ack) + len(paced.query)
	rec.Failed = paced.failures()
	rec.FailedShare = float64(rec.Failed) / float64(rec.Attempted)
	return rec, nil
}

func latencies(ts []opTiming) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.latencyMS()
	}
	return out
}

func newRecord(spec runSpec) *record {
	return &record{
		Workload:        spec.w.Name,
		Seed:            spec.seed,
		Seconds:         spec.seconds,
		Trace:           spec.trace,
		PacedRate:       spec.w.pacedRate,
		Samples:         map[string]int{},
		TailPercentiles: map[string]string{},
		result:          result{Correct: true, Metrics: map[string]metricValue{}},
	}
}

// set stores a metric under its declared unit.
func (r *record) set(name string, v float64) {
	d, ok := defByName(endToEnd, name)
	if !ok {
		if d, ok = defByName(perLayer, name); !ok {
			panic("undeclared metric " + name)
		}
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

// setTail stores a tail-latency metric from a sorted sample: the highest
// percentile with at least ten samples beyond it, which is the p99 of the
// metric's name from 1000 samples up. tail_percentiles says which it was.
func (r *record) setTail(name string, sorted []float64) {
	v, q := tail(sorted)
	r.set(name, v)
	r.Samples[name] = len(sorted)
	r.TailPercentiles[name] = fmt.Sprintf("p%.4g", 100*q)
}
