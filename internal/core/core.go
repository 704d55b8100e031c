// Package core defines the shared model of the SURGE problem: spatial
// objects, the sliding-window event vocabulary, the query configuration and
// the burst-score function (Definition 1 of the paper), together with the
// SURGE-to-cSPOT reduction helpers (Section IV-A).
//
// All detection engines consume the same stream of Events and report
// Results, so the engines are interchangeable behind the Engine interface.
package core

import (
	"errors"
	"fmt"
	"math"

	"surge/internal/geom"
)

// Object is a spatial object o = <w, rho, tc>: a weighted point created at
// time T. Times are float64 in any consistent unit (the benchmarks use
// seconds). ID is assigned by the window engine when the object enters the
// stream and is used by the engines to track the object across its
// New -> Grown -> Expired lifecycle.
type Object struct {
	ID     uint64
	X, Y   float64
	Weight float64
	T      float64
}

// Point returns the object's location.
func (o Object) Point() geom.Point { return geom.Point{X: o.X, Y: o.Y} }

// Validate rejects objects the engines cannot index safely: non-finite
// coordinates or times, and negative or non-finite weights (the burst score
// and every upper-bound argument assume non-negative weights).
func (o Object) Validate() error {
	if math.IsNaN(o.X) || math.IsInf(o.X, 0) || math.IsNaN(o.Y) || math.IsInf(o.Y, 0) {
		return fmt.Errorf("core: object has non-finite location (%v, %v)", o.X, o.Y)
	}
	if math.IsNaN(o.T) || math.IsInf(o.T, 0) {
		return fmt.Errorf("core: object has non-finite time %v", o.T)
	}
	if !(o.Weight >= 0) || math.IsInf(o.Weight, 0) {
		return fmt.Errorf("core: object weight %v must be finite and non-negative", o.Weight)
	}
	return nil
}

// EventKind classifies the three window-transition events of Section IV-C.
type EventKind uint8

const (
	// New: the object enters the current window Wc.
	New EventKind = iota
	// Grown: the object leaves Wc and enters the past window Wp.
	Grown
	// Expired: the object leaves Wp.
	Expired
)

// String returns the paper's name for the event kind.
func (k EventKind) String() string {
	switch k {
	case New:
		return "new"
	case Grown:
		return "grown"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is a window-transition event e = <g, l> for the rectangle object
// derived from Obj.
type Event struct {
	Kind EventKind
	Obj  Object
}

// Config is the SURGE query q = <A, a x b, |W|> plus the burst-score balance
// parameter alpha. Width and Height are the x- and y-extents of the query
// rectangle; WC and WP are the lengths of the current and past windows (the
// paper assumes WC == WP but the solutions, and this implementation, work
// with distinct lengths).
type Config struct {
	Width, Height float64
	WC, WP        float64
	Alpha         float64
	// Area restricts detection to a preferred area A. Objects outside A are
	// ignored. Nil means the whole plane.
	Area *geom.Rect
	// Cols optionally restricts the engine to the candidate bursty points
	// whose query-width column belongs to the set (the sharded pipeline's
	// ownership filter). Nil means the engine owns the whole plane.
	Cols *ColumnSet
}

// ColumnSet selects a periodic subset of the query-width columns of the
// plane. Column m is the x-interval [m*Width, (m+1)*Width); the columns are
// grouped into contiguous blocks of Block columns and the blocks are striped
// round-robin over Shards shards, so block B belongs to shard B mod Shards.
//
// The sharded pipeline gives shard Index the set {m : floor(m/Block) mod
// Shards == Index}. Because ownership is defined on integer column indices
// (the same floor(x/Width) arithmetic the engines' grids use), an engine and
// the router always agree on who owns a candidate point.
type ColumnSet struct {
	Block  int // columns per contiguous block (>= 1)
	Shards int // number of shards the blocks are striped over (>= 1)
	Index  int // this engine's shard index in [0, Shards)
}

// Validate reports whether the column set is usable.
func (s *ColumnSet) Validate() error {
	if s == nil {
		return nil
	}
	if s.Block < 1 || s.Shards < 1 || s.Index < 0 || s.Index >= s.Shards {
		return fmt.Errorf("core: invalid column set %+v", *s)
	}
	return nil
}

// Owns reports whether column m belongs to the set.
func (s *ColumnSet) Owns(m int) bool {
	if s == nil {
		return true
	}
	return s.ShardOf(m) == s.Index
}

// ShardOf returns the shard index owning column m (floor division, so the
// striping is uniform across negative columns too).
func (s *ColumnSet) ShardOf(m int) int {
	b := m / s.Block
	if m < 0 && m%s.Block != 0 {
		b--
	}
	r := b % s.Shards
	if r < 0 {
		r += s.Shards
	}
	return r
}

// OwnsCol reports whether the engine owns candidate points in column m;
// engines with no column restriction own every column.
func (c Config) OwnsCol(m int) bool { return c.Cols.Owns(m) }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case !(c.Width > 0) || !(c.Height > 0) || math.IsInf(c.Width, 0) || math.IsInf(c.Height, 0):
		return errors.New("core: query rectangle must have positive finite width and height")
	case !(c.WC > 0) || !(c.WP > 0) || math.IsInf(c.WC, 0) || math.IsInf(c.WP, 0):
		return errors.New("core: window lengths must be positive and finite")
	case !(c.Alpha >= 0 && c.Alpha < 1): // also rejects NaN
		return errors.New("core: alpha must be in [0, 1)")
	case c.Area != nil && c.Area.Empty():
		return errors.New("core: preferred area must have positive extent")
	}
	return c.Cols.Validate()
}

// Score computes the burst score from window scores that are already
// normalised by the window lengths:
//
//	S = alpha * max(fc - fp, 0) + (1 - alpha) * fc.
func (c Config) Score(fc, fp float64) float64 {
	d := fc - fp
	if d < 0 {
		d = 0
	}
	return c.Alpha*d + (1-c.Alpha)*fc
}

// CoverRect returns the coverage rectangle of the rectangle object generated
// from an object anchored at (x, y): the set of points p such that the query
// region whose top-right corner is p covers the object. It is interpreted
// with open-closed semantics (geom.Rect.CoversOC).
func (c Config) CoverRect(x, y float64) geom.Rect {
	return geom.NewRect(x, y, c.Width, c.Height)
}

// RegionAt returns the query region whose top-right corner is p, interpreted
// with closed-open semantics (geom.Rect.ContainsCO).
func (c Config) RegionAt(p geom.Point) geom.Rect {
	return geom.Rect{MinX: p.X - c.Width, MinY: p.Y - c.Height, MaxX: p.X, MaxY: p.Y}
}

// InArea reports whether the object falls inside the preferred area.
func (c Config) InArea(o Object) bool {
	return c.Area == nil || c.Area.ContainsCO(o.Point())
}

// Result is the answer of a detection engine at the current stream time: the
// bursty point (top-right corner of the bursty region), the region itself and
// its burst score. Found is false when the windows hold no objects that could
// yield a positive score; Score is then 0 and Region is meaningless.
type Result struct {
	Point  geom.Point
	Region geom.Rect
	Score  float64
	FC, FP float64
	Found  bool
}

// Engine is the common interface of all single-region detectors.
type Engine interface {
	// Process applies one window-transition event.
	Process(ev Event)
	// Best reports the current bursty region.
	Best() Result
}

// TestEngineWrap, when non-nil, wraps every engine the surge package builds:
// it is handed an Engine or a TopKEngine (a TopKShard where the engine is
// one) and must return a value of the same interface. It exists for
// fault-injection tests only — the serving layer uses it to plant a
// panicking engine inside a shard worker and assert the pipeline's panic
// containment end to end. Production code never sets it, so the nil check
// at construction is the entire steady-state cost.
var TestEngineWrap func(eng any) any

// TopKEngine is the common interface of the top-k detectors.
type TopKEngine interface {
	Process(ev Event)
	// BestK reports the current top-k bursty regions in rank order. Slots
	// beyond the number of non-empty regions have Found == false.
	BestK() []Result
}

// TopKShard is the maskable per-problem search API a top-k engine exposes to
// the sharded pipeline's cross-shard greedy chain. The chain (Definition 9)
// is driven globally by a coordinator: for each rank i it collects every
// shard's best owned candidate for problem i, selects the global winner, and
// commits it back so the objects it covers become invisible to the problems
// of higher rank — exactly the level discipline the single-engine chain runs
// locally.
//
// The methods are a protocol, not independent queries: ProblemBest(i) is
// only meaningful when the globally selected answers of every rank < i have
// been committed with ApplyRank since the last stream event, and ApplyRank
// must be called rank by rank in ascending order. Engines answer over their
// owned candidate columns only (Config.Cols); the masking rules are defined
// on object identity, so an engine holding a halo copy of an object applies
// the same visibility change its owner does and the per-shard states stay
// mutually consistent.
type TopKShard interface {
	TopKEngine
	// ProblemBest reports the engine's best owned candidate for chain
	// problem i (1-based) under the mask state committed for ranks < i.
	ProblemBest(i int) Result
	// ApplyRank commits the globally selected answer for rank i: sel's
	// covered objects are masked out of the higher-ranked problems, and
	// objects that were masked at rank i for the previously committed
	// answer old — but are not covered by sel — become visible again.
	ApplyRank(i int, old, sel Result)
}

// LiveObject is one object of a window's live set; Past once it is in Wp.
type LiveObject struct {
	Obj  Object
	Past bool
}

// TopKLoader builds an engine holding no live object from a live set in
// arrival order: the state New for each object, then Grown if past, leaves.
type TopKLoader interface {
	Load(live []LiveObject)
}

// CompareTopK is the canonical selection order of the top-k merges: found
// before not-found, higher score first, exact score ties broken on the
// region's coordinates (lexicographically ascending). Score ties are real in
// the multi-grid chains — the same object set can fill two overlapping cells
// of different shifted grids with bitwise-equal fold scores — so every
// implementation of the greedy chain (single-engine merge, per-layer
// selection, cross-shard coordinator) must pick ties identically or the
// masking of lower ranks diverges. Returns a negative value when a is
// better, positive when b is, 0 only for equal keys.
func CompareTopK(a, b Result) int {
	switch {
	case a.Found != b.Found:
		if a.Found {
			return -1
		}
		return 1
	case !a.Found:
		return 0
	case a.Score != b.Score:
		if a.Score > b.Score {
			return -1
		}
		return 1
	case a.Region.MinX != b.Region.MinX:
		if a.Region.MinX < b.Region.MinX {
			return -1
		}
		return 1
	case a.Region.MinY != b.Region.MinY:
		if a.Region.MinY < b.Region.MinY {
			return -1
		}
		return 1
	case a.Region.MaxX != b.Region.MaxX:
		if a.Region.MaxX < b.Region.MaxX {
			return -1
		}
		return 1
	case a.Region.MaxY != b.Region.MaxY:
		if a.Region.MaxY < b.Region.MaxY {
			return -1
		}
		return 1
	}
	return 0
}

// Stats carries cheap instrumentation counters shared by the engines. It
// powers Table II (search-trigger ratio) and the ablation benchmarks.
type Stats struct {
	// Events is the number of events processed.
	Events uint64
	// Searches is the number of snapshot (sweep-line) searches executed.
	Searches uint64
	// SearchEvents is the number of events whose processing triggered at
	// least one snapshot search.
	SearchEvents uint64
	// SweepEntries is the total number of rectangle entries fed to the
	// snapshot searches (a proxy for search cost).
	SweepEntries uint64
	// CellsTouched is the number of per-cell updates performed.
	CellsTouched uint64
}

// SearchRatio returns the fraction of events that triggered at least one
// snapshot search (the quantity reported in Table II).
func (s Stats) SearchRatio() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.SearchEvents) / float64(s.Events)
}
