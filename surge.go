package surge

import (
	"errors"
	"fmt"
	"strings"

	"surge/internal/ag2"
	"surge/internal/cellcspot"
	"surge/internal/core"
	"surge/internal/gapsurge"
	"surge/internal/geom"
	"surge/internal/shard"
	"surge/internal/topk"
	"surge/internal/window"
)

// ErrClosed is returned by Push, PushBatch and AdvanceTo after Close. The
// query methods (Best, Stats, Now, Live, Checkpoint) keep reporting the
// state captured at Close, so a server can drain its answer and write a
// final checkpoint during shutdown while new ingests are rejected.
var ErrClosed = errors.New("surge: detector is closed")

// Algorithm selects a detection engine.
type Algorithm int

const (
	// CellCSPOT is the paper's exact solution (Algorithm 2, "CCS").
	CellCSPOT Algorithm = iota
	// StaticBound is the exact B-CCS ablation: static upper bounds only.
	StaticBound
	// Baseline is the exact Base ablation: no upper bounds.
	Baseline
	// AG2 is the adapted continuous-MaxRS baseline of Amagata & Hara.
	AG2
	// GridApprox is GAP-SURGE (Algorithm 3), the O(log n) grid approximation.
	GridApprox
	// MultiGrid is MGAP-SURGE (Algorithm 5), the best of four shifted grids.
	MultiGrid
	// Oracle recomputes the bursty point from scratch on every query. It is
	// exact and simple but slow; it serves as the reference answer.
	Oracle
)

// String returns the paper's abbreviation for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case CellCSPOT:
		return "CCS"
	case StaticBound:
		return "B-CCS"
	case Baseline:
		return "Base"
	case AG2:
		return "aG2"
	case GridApprox:
		return "GAPS"
	case MultiGrid:
		return "MGAPS"
	case Oracle:
		return "Oracle"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm is the inverse of Algorithm.String: it parses the paper's
// abbreviation (case-insensitive; "BCCS" is accepted for "B-CCS") as used by
// surged's -algo flag and the server's query configuration.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch {
	case strings.EqualFold(s, "CCS"):
		return CellCSPOT, nil
	case strings.EqualFold(s, "B-CCS"), strings.EqualFold(s, "BCCS"):
		return StaticBound, nil
	case strings.EqualFold(s, "Base"):
		return Baseline, nil
	case strings.EqualFold(s, "aG2"):
		return AG2, nil
	case strings.EqualFold(s, "GAPS"):
		return GridApprox, nil
	case strings.EqualFold(s, "MGAPS"):
		return MultiGrid, nil
	case strings.EqualFold(s, "Oracle"):
		return Oracle, nil
	default:
		return 0, fmt.Errorf("surge: unknown algorithm %q (want CCS, B-CCS, Base, aG2, GAPS, MGAPS or Oracle)", s)
	}
}

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Region is an axis-aligned rectangle; a detected region covers the
// half-open box [MinX, MaxX) x [MinY, MaxY).
type Region struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether the region covers the point (x, y).
func (r Region) Contains(x, y float64) bool {
	return r.MinX <= x && x < r.MaxX && r.MinY <= y && y < r.MaxY
}

// Overlaps reports whether two regions share interior points.
func (r Region) Overlaps(o Region) bool {
	return r.MinX < o.MaxX && o.MinX < r.MaxX && r.MinY < o.MaxY && o.MinY < r.MaxY
}

// Object is one stream element: a weighted point created at Time.
type Object struct {
	X, Y   float64
	Weight float64
	Time   float64
}

// Result is a detected bursty region. When Found is false the windows
// contain nothing that yields a positive burst score and the other fields
// are zero.
type Result struct {
	Region Region
	Score  float64
	Found  bool
}

// Stats exposes the engines' instrumentation counters (see core.Stats).
type Stats struct {
	Events       uint64
	Searches     uint64
	SearchEvents uint64
	SweepEntries uint64
	CellsTouched uint64
}

// SearchRatio is the fraction of events that triggered at least one snapshot
// search — the quantity of the paper's Table II.
func (s Stats) SearchRatio() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.SearchEvents) / float64(s.Events)
}

// Options configures a detector.
type Options struct {
	// Width and Height are the query-rectangle extents (the paper's a x b).
	Width, Height float64
	// Window is the length of the current window |Wc|.
	Window float64
	// PastWindow is the length of the past window |Wp|; 0 means equal to
	// Window (the paper's default).
	PastWindow float64
	// Alpha balances burstiness against significance; it must lie in [0, 1).
	Alpha float64
	// Area optionally restricts detection to a preferred area A; objects
	// outside are ignored.
	Area *Region
	// AG2Gamma is the aG2 grid-cell multiplier (default 10, as in the
	// paper's experiments). Ignored by the other algorithms.
	AG2Gamma float64
	// CountWindows switches from the paper's time-based sliding windows to
	// count-based ones: Window and PastWindow are then object counts (the
	// current window holds the last Window objects), and scores are
	// normalised by those counts. Object times are still required to be
	// non-decreasing.
	CountWindows bool
	// Shards selects the sharded concurrent pipeline: the plane is
	// partitioned into query-width column blocks striped over Shards engine
	// goroutines, each owning the candidate bursty points of its columns,
	// with boundary objects replicated into a one-query-width halo so every
	// shard scores its candidates over complete data. 0 or 1 keeps the
	// single-engine path with its exact current behaviour. The sharded
	// detector returns the same best scores as the single-engine path;
	// call Close when done to stop the shard goroutines. AG2 has no sharded
	// variant and silently falls back to the single-engine path
	// (Detector.Shards reports the effective count).
	Shards int
	// ShardBlockCols is the ownership block width in query-width columns
	// for the sharded pipeline (0 selects the default). Smaller blocks
	// spread hotspots over more shards; larger blocks route fewer boundary
	// objects to two shards.
	ShardBlockCols int
}

func (o Options) config() (core.Config, error) {
	wp := o.PastWindow
	if wp == 0 {
		wp = o.Window
	}
	cfg := core.Config{
		Width:  o.Width,
		Height: o.Height,
		WC:     o.Window,
		WP:     wp,
		Alpha:  o.Alpha,
	}
	if o.Area != nil {
		cfg.Area = &geom.Rect{MinX: o.Area.MinX, MinY: o.Area.MinY, MaxX: o.Area.MaxX, MaxY: o.Area.MaxY}
	}
	return cfg, cfg.Validate()
}

type statser interface{ Stats() core.Stats }

// Detector continuously maintains the bursty region over a stream of
// objects. It is not safe for concurrent use by multiple goroutines: with
// Options.Shards >= 2 the parallelism lives inside (a pipeline of per-shard
// engine goroutines), while Push, PushBatch and the query methods are still
// called from a single goroutine.
type Detector struct {
	alg      Algorithm
	cfg      core.Config
	win      window.Source
	eng      core.Engine     // single-engine path; nil when sharded
	pipe     *shard.Pipeline // sharded pipeline; nil when single-engine
	cur      core.Result
	err      error              // first pipeline failure, surfaced by Err
	ckptObjs []checkpointObject // checkpoint scratch, reused across calls
	ag2Gamma float64
	counted  bool
	shards   int // requested Options.Shards (recorded in checkpoints)
	blkCols  int // requested Options.ShardBlockCols
	closed   bool

	// served is the standalone chain AttachTopKBest handed the stream to;
	// when set, every stream and query method delegates to it.
	served *TopKDetector

	// The window engine's emit callbacks, captured once: binding a method
	// value per Push would put one closure allocation on the per-object hot
	// path.
	stepFn      func(core.Event)
	stepQuietFn func(core.Event)
	routeStepFn func(core.Event)

	finalStats Stats // merged stats captured by Close (sharded path)
}

// New returns a detector running the given algorithm.
func New(alg Algorithm, opt Options) (*Detector, error) {
	cfg, err := opt.config()
	if err != nil {
		return nil, err
	}
	win, err := newSource(opt, cfg)
	if err != nil {
		return nil, err
	}
	gamma := opt.AG2Gamma
	if gamma == 0 {
		gamma = 10
	}
	d := &Detector{
		alg: alg, cfg: cfg, win: win,
		ag2Gamma: gamma,
		counted:  opt.CountWindows,
		shards:   opt.Shards,
		blkCols:  opt.ShardBlockCols,
	}
	if opt.Shards >= 2 && alg != AG2 {
		d.pipe, err = shard.New(cfg, opt.Shards, opt.ShardBlockCols,
			func(scfg core.Config) (core.Engine, error) { return newEngine(alg, scfg, opt) })
		if err != nil {
			return nil, err
		}
		d.routeStepFn = d.pipe.Route
		return d, nil
	}
	d.eng, err = newEngine(alg, cfg, opt)
	if err != nil {
		return nil, err
	}
	d.stepFn = d.step
	d.stepQuietFn = d.eng.Process
	return d, nil
}

// newSource builds the time- or count-based window event generator.
func newSource(opt Options, cfg core.Config) (window.Source, error) {
	if !opt.CountWindows {
		return window.New(cfg.WC, cfg.WP)
	}
	nc, np := int(cfg.WC), int(cfg.WP)
	if float64(nc) != cfg.WC || float64(np) != cfg.WP {
		return nil, fmt.Errorf("surge: count-based windows need integer counts, got %v/%v", cfg.WC, cfg.WP)
	}
	return window.NewCount(nc, np)
}

// testWrap passes a freshly built engine through the core.TestEngineWrap
// fault-injection seam; a nil check in production.
func testWrap[E any](eng E, err error) (E, error) {
	if err == nil && core.TestEngineWrap != nil {
		eng = core.TestEngineWrap(eng).(E)
	}
	return eng, err
}

func newEngine(alg Algorithm, cfg core.Config, opt Options) (core.Engine, error) {
	return testWrap(newEngineRaw(alg, cfg, opt))
}

func newEngineRaw(alg Algorithm, cfg core.Config, opt Options) (core.Engine, error) {
	switch alg {
	case CellCSPOT:
		return cellcspot.New(cfg, cellcspot.ModeCCS)
	case StaticBound:
		return cellcspot.New(cfg, cellcspot.ModeStatic)
	case Baseline:
		return cellcspot.New(cfg, cellcspot.ModeBase)
	case AG2:
		gamma := opt.AG2Gamma
		if gamma == 0 {
			gamma = 10
		}
		return ag2.New(cfg, gamma)
	case GridApprox:
		return gapsurge.New(cfg, false)
	case MultiGrid:
		return gapsurge.New(cfg, true)
	case Oracle:
		return topk.NewOracle(cfg)
	default:
		return nil, fmt.Errorf("surge: unknown algorithm %v", alg)
	}
}

// Algorithm returns the detector's algorithm.
func (d *Detector) Algorithm() Algorithm { return d.alg }

// Options returns the detector's effective configuration — for a restored
// detector, the options reconstructed from the checkpoint (with any
// RestoreSharded overrides applied). PastWindow is always explicit, even
// when it was derived from Window.
func (d *Detector) Options() Options {
	return options(d.cfg, d.ag2Gamma, d.counted, d.shards, d.blkCols)
}

// options rebuilds the Options a detector of either kind was created with.
func options(cfg core.Config, ag2Gamma float64, counted bool, shards, blkCols int) Options {
	opt := Options{
		Width:          cfg.Width,
		Height:         cfg.Height,
		Window:         cfg.WC,
		PastWindow:     cfg.WP,
		Alpha:          cfg.Alpha,
		AG2Gamma:       ag2Gamma,
		CountWindows:   counted,
		Shards:         shards,
		ShardBlockCols: blkCols,
	}
	if cfg.Area != nil {
		opt.Area = &Region{
			MinX: cfg.Area.MinX, MinY: cfg.Area.MinY,
			MaxX: cfg.Area.MaxX, MaxY: cfg.Area.MaxY,
		}
	}
	return opt
}

// Push feeds one object into the stream, processes every window transition
// it makes due, and returns the refreshed bursty region. Objects must arrive
// in non-decreasing time order. On a sharded detector every Push is a full
// pipeline synchronisation; use PushBatch for throughput. On error the
// previous answer is retained and returned, exactly as for PushBatch. After
// Close it returns the last answer and ErrClosed.
func (d *Detector) Push(o Object) (Result, error) {
	if d.served != nil {
		return d.servedBest(d.served.Push(o))
	}
	if d.closed {
		return toResult(d.cur), ErrClosed
	}
	if d.pipe != nil {
		return d.pushSharded([]Object{o})
	}
	_, err := d.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, d.stepFn)
	return toResult(d.cur), err
}

// PushBatch feeds a time-ordered batch of objects and returns the bursty
// region after the whole batch has been processed. It amortises the
// per-arrival query refresh: window transitions are still applied one by
// one (so the final answer is identical to pushing the objects
// individually), but the detection engines are only queried once at the end
// of the batch — on the sharded pipeline this is the single synchronisation
// point, on the single-engine path it lets the lazy engines defer searches
// across the batch. On error the stream state includes every object before
// the offending one and the previous answer is retained. After Close it
// returns the last answer and ErrClosed.
func (d *Detector) PushBatch(objs []Object) (Result, error) {
	if d.served != nil {
		return d.servedBest(d.served.PushBatch(objs))
	}
	if d.closed {
		return toResult(d.cur), ErrClosed
	}
	if d.pipe != nil {
		return d.pushSharded(objs)
	}
	for _, o := range objs {
		if _, err := d.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, d.stepQuietFn); err != nil {
			return toResult(d.cur), err
		}
	}
	d.cur = d.eng.Best()
	return toResult(d.cur), nil
}

func (d *Detector) pushSharded(objs []Object) (Result, error) {
	for _, o := range objs {
		if _, err := d.win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, d.routeStepFn); err != nil {
			return toResult(d.cur), err
		}
	}
	res, _, err := d.pipe.Query()
	if err != nil {
		d.recordErr(err)
		return toResult(d.cur), err
	}
	d.cur = res
	return toResult(d.cur), nil
}

// AdvanceTo moves the stream clock to t without a new arrival (processing
// any Grown/Expired transitions that become due) and returns the refreshed
// bursty region. On error the previous answer is retained and returned,
// exactly as for PushBatch. After Close it returns the last answer and
// ErrClosed.
func (d *Detector) AdvanceTo(t float64) (Result, error) {
	if d.served != nil {
		return d.servedBest(d.served.AdvanceTo(t))
	}
	if d.closed {
		return toResult(d.cur), ErrClosed
	}
	if d.pipe != nil {
		if err := d.win.Advance(t, d.routeStepFn); err != nil {
			return toResult(d.cur), err
		}
		res, _, err := d.pipe.Query()
		if err != nil {
			d.recordErr(err)
			return toResult(d.cur), err
		}
		d.cur = res
		return toResult(d.cur), nil
	}
	if err := d.win.Advance(t, d.stepFn); err != nil {
		return toResult(d.cur), err
	}
	d.cur = d.eng.Best()
	return toResult(d.cur), nil
}

// step processes one window event and refreshes the current answer, matching
// the paper's continuous semantics (one detection per rectangle message).
// PushBatch feeds the engine directly and refreshes once per batch.
func (d *Detector) step(ev core.Event) {
	d.eng.Process(ev)
	d.cur = d.eng.Best()
}

// Best returns the current bursty region. On a sharded detector this is a
// pipeline synchronisation point; if the pipeline fails, the previous answer
// is served and the error is recorded for Err. After Close it keeps
// returning the answer captured at Close.
func (d *Detector) Best() Result {
	if d.served != nil {
		return d.served.BestK()[0]
	}
	if d.closed {
		return toResult(d.cur)
	}
	if d.pipe != nil {
		if res, _, err := d.pipe.Query(); err == nil {
			d.cur = res
		} else {
			d.recordErr(err)
		}
		return toResult(d.cur)
	}
	d.cur = d.eng.Best()
	return toResult(d.cur)
}

// recordErr keeps the first pipeline failure for Err.
func (d *Detector) recordErr(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first error the sharded pipeline reported to a query or
// push, nil if none. A detector with a non-nil Err keeps serving its last
// good answer (Best) but can no longer refresh it; serving layers should
// surface the condition (the bundled server reports it on /healthz).
func (d *Detector) Err() error {
	if d.served != nil {
		return d.served.Err()
	}
	return d.err
}

// Now returns the current stream time.
func (d *Detector) Now() float64 {
	if d.served != nil {
		return d.served.Now()
	}
	return d.win.Now()
}

// Live returns the number of objects currently inside the two windows.
func (d *Detector) Live() int {
	if d.served != nil {
		return d.served.Live()
	}
	return d.win.Live()
}

// Shards returns the number of engine shards processing the stream (1 on
// the single-engine path, including the AG2 fallback).
func (d *Detector) Shards() int {
	if d.served != nil {
		return d.served.Shards()
	}
	if d.pipe != nil {
		return d.pipe.Shards()
	}
	return 1
}

// Close stops the detector: on the sharded path the shard goroutines are
// shut down after buffered events are flushed and a final synchronisation
// runs, so Best and Stats keep reporting the end-of-stream answer. After
// Close, Push, PushBatch and AdvanceTo return ErrClosed (on both the sharded
// and the single-engine path) while the query methods keep answering from
// the captured state. Close is idempotent.
func (d *Detector) Close() error {
	if d.served != nil {
		return d.served.Close()
	}
	if d.closed {
		return nil
	}
	d.closed = true
	if d.pipe == nil {
		d.cur = d.eng.Best()
		if s, ok := d.eng.(statser); ok {
			d.finalStats = toStats(s.Stats())
		}
		return nil
	}
	if res, st, err := d.pipe.Query(); err == nil {
		d.cur = res
		d.finalStats = toStats(st)
	}
	return d.pipe.Close()
}

// Stats returns instrumentation counters for engines that expose them. On a
// sharded detector the per-shard counters are summed (a synchronisation
// point; after Close the counters captured at Close are returned); an event
// replicated into a halo is counted by each shard that received it, so
// Events can exceed the single-engine count while the search and cell
// counters match.
func (d *Detector) Stats() Stats {
	if d.served != nil {
		return d.served.Stats()
	}
	if d.closed {
		return d.finalStats
	}
	if d.pipe != nil {
		_, st, err := d.pipe.Query()
		if err != nil {
			d.recordErr(err)
			return Stats{}
		}
		return toStats(st)
	}
	if s, ok := d.eng.(statser); ok {
		return toStats(s.Stats())
	}
	return Stats{}
}

func toStats(st core.Stats) Stats {
	return Stats{
		Events:       st.Events,
		Searches:     st.Searches,
		SearchEvents: st.SearchEvents,
		SweepEntries: st.SweepEntries,
		CellsTouched: st.CellsTouched,
	}
}

func toResult(r core.Result) Result {
	if !r.Found {
		return Result{}
	}
	return Result{
		Region: Region{MinX: r.Region.MinX, MinY: r.Region.MinY, MaxX: r.Region.MaxX, MaxY: r.Region.MaxY},
		Score:  r.Score,
		Found:  true,
	}
}
