package server

import (
	"fmt"
	"sync/atomic"

	"surge"
	"surge/client"
	"surge/internal/core"
)

// DefaultQueryID is the registry id of the query the legacy single-query
// endpoints (/v1/best, /v1/topk, /v1/subscribe, ...) address. It always
// exists and cannot be deleted.
const DefaultQueryID = "default"

// tenantConfig is one query's resolved engine configuration: everything
// that determines the answer stream. Two tenants with equal tenantConfigs
// are answer-identical by construction, which is what lets the registry
// host them on one shared engine slot; fresh slots of equal windows (Window,
// PastWindow, CountWindows) built at boot consume one shared window.
type tenantConfig struct {
	Algorithm surge.Algorithm
	Options   surge.Options
	TopK      int
}

// key renders the engine-defining configuration as a slot-sharing key.
// Options.Area is folded in by value, not by pointer, so two configs that
// spell the same area share.
func (c tenantConfig) key() string {
	area := ""
	if c.Options.Area != nil {
		area = fmt.Sprintf("%v", *c.Options.Area)
	}
	o := c.Options
	return fmt.Sprintf("%d|%v|%v|%v|%v|%v|%s|%v|%t|%d|%d|%d",
		c.Algorithm, o.Width, o.Height, o.Window, o.PastWindow, o.Alpha,
		area, o.AG2Gamma, o.CountWindows, o.Shards, o.ShardBlockCols, c.TopK)
}

// windowKey renders the configuration's sliding windows as a window-sharing
// key: a PastWindow of 0 means Window, as in surge.Options.
func (c tenantConfig) windowKey() string {
	o := c.Options
	wp := o.PastWindow
	if wp == 0 {
		wp = o.Window
	}
	return fmt.Sprintf("%v|%v|%t", o.Window, wp, o.CountWindows)
}

// chainFor maps a served algorithm to the maintained top-k chain whose
// rank 1 answers for it: the exact family (CCS, B-CCS, Base) all solve the
// unconstrained problem the kCCS chain's first problem solves, and the grid
// approximations pair with their own chains (GAPS with kGAPS, MGAPS with
// kMGAPS). Rank 1 has bitwise the score that algorithm's single-region
// engine reports; among equal-score regions the chain may pick another one
// than the engine would (ROADMAP item 14b). aG2 and Oracle have no such
// chain, so they are not served; they stay library and surgebench
// baselines.
func chainFor(alg surge.Algorithm) (surge.Algorithm, error) {
	switch alg {
	case surge.CellCSPOT, surge.StaticBound, surge.Baseline:
		return surge.CellCSPOT, nil
	case surge.GridApprox, surge.MultiGrid:
		return alg, nil
	default:
		return 0, fmt.Errorf("server: algorithm %v is not served (served: CCS, B-CCS, Base, GAPS, MGAPS)", alg)
	}
}

// engineSlot hosts one maintained top-k chain (best is its rank 1) for one
// or more tenants of identical configuration. Slots are pinned to a worker
// of the server's shared tenant pool: every ingest batch, the event loop
// feeds each window group once, runs each slot's apply — its chain consuming
// its group's events — on the slot's worker, waits at the pool barrier,
// then reads the pend* results. So slot state needs no lock, exactly like
// the old single-detector loop ownership, just with N islands instead of
// one.
//
// Sharing happens only at registration time (boot grouping, never
// retroactively), and a live restore unshares: the restored tenant gets a
// private slot, on a private window, while the others keep the old one.
type engineSlot struct {
	cfg    tenantConfig
	key    string
	worker int          // pool worker this slot's applies are pinned to
	refs   atomic.Int32 // tenants bound to this slot; loop-owned writes

	det *surge.TopKDetector // the chain serving best and top-k
	grp *windowGroup        // the window the chain consumes

	// Per-batch outputs: written by apply on the slot's worker, read by the
	// event loop after the pool barrier.
	pendRes      surge.Result
	pendErr      error
	pendPanicked bool

	// failed is the panic that interrupted an apply. The engine saw only
	// part of that batch, so — like a shard pipeline whose worker panicked —
	// the slot refuses every later batch and serves its last good answer;
	// /healthz reports it. Written by apply, read by the loop between batches.
	failed error

	lastTopK []surge.Result
	tkSnap   *client.TopK // wire snapshot of lastTopK; rebuilt only on change
}

// apply runs on the slot's pool worker (or inline on the loop when the
// registry holds a single slot): the chain consumes the events its window
// group's feed made of the batch, and the slot refreshes its top-k
// snapshot. The batch is already decided against the stream clock
// (Server.decide), so it is in time order for every window. A quiet apply —
// boot replay of an unsequenced WAL record — consumes as
// TopKDetector.Replay does and reads nothing: the chain catches up at the
// slot's next read. A panic — an engine bug tripped by this batch — is
// recovered into pendErr/pendPanicked so one broken tenant engine never
// takes the worker, the loop, or the other tenants down.
func (sl *engineSlot) apply(quiet bool) {
	sl.pendErr, sl.pendPanicked = sl.failed, sl.failed != nil
	if sl.failed != nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			sl.pendErr = fmt.Errorf("%w: batch apply panicked: %v", errPipeline, r)
			sl.pendPanicked = true
			sl.failed = sl.pendErr
		}
	}()
	res, err := sl.det.Consume(sl.grp.evs, quiet)
	if err == nil {
		err = sl.grp.err
	}
	if err != nil {
		// The previous answer stands.
		if sl.det.Err() != nil {
			// The engine pipeline itself failed, not the request: the slot
			// serves its last good answer from here on.
			err = fmt.Errorf("%w: %w", errPipeline, err)
		}
		sl.pendErr = err
	} else if !quiet {
		sl.pendRes = res[0]
	}
	if !quiet {
		sl.refreshTopKLocal()
	}
}

// refreshTopKLocal recomputes the slot's top-k wire snapshot when the
// maintained answer changed (bitwise). The snapshot pointer is the change
// signal the loop uses per tenant: a new pointer means a new answer.
func (sl *engineSlot) refreshTopKLocal() {
	res := sl.det.BestK()
	if topkEqual(res, sl.lastTopK) {
		return
	}
	sl.lastTopK = append(sl.lastTopK[:0], res...)
	snap := &client.TopK{
		K:          sl.det.K(),
		Algorithm:  sl.det.Algorithm().String(),
		Continuous: true,
		Results:    make([]client.Result, len(sl.lastTopK)),
	}
	for i, r := range sl.lastTopK {
		snap.Results[i] = client.FromResult(r)
	}
	sl.tkSnap = snap
}

// close releases the slot's chain. Only called once the loop no longer
// references the slot (it left s.slots), so nothing races the teardown: a
// chain on a shared window does not read the window at Close.
func (sl *engineSlot) close() error {
	return sl.det.Close()
}

// windowGroup is the slots whose chains consume one sliding window: a
// private window's single slot, or the boot registry's fresh slots of equal
// windowKey. The window belongs to the group, not to a slot: the loop feeds
// each batch through any member, once, and every member's chain consumes
// the same read-only events, so deleting any member leaves the others fed.
// Loop-owned; the members read evs and err during the pool phase.
type windowGroup struct {
	slots []*engineSlot // members in registry order (rebuildSlots)
	evs   []core.Event  // the last feed's window events
	err   error         // the last feed's error, every member's
}

// tenant is one registered query: its identity, its binding to an engine
// slot, its own notification plane (hub, sequence numbers, SSE ring) and
// its own counters. Fields below the marker are loop-owned; the atomics
// serve handlers lock-free.
type tenant struct {
	id        string
	cfg       tenantConfig
	isDefault bool

	// slot is the engine binding; the loop swaps it on restore. Handlers
	// load it only for the chain's immutable options.
	slot atomic.Pointer[engineSlot]

	// view is what every read of this query serves: one load, never the
	// loop (see view).
	view atomic.Pointer[view]

	// Loop-owned notification state.
	last  surge.Result // last published answer
	seq   uint64       // bursty-region change sequence
	tkSeq uint64       // top-k change sequence
	eid   uint64       // SSE event id, shared by both event kinds
	dead  bool         // set on delete; loop ops must not touch the slot after

	// gone is closed on delete so this tenant's SSE handlers disconnect.
	gone chan struct{}

	hub hub

	// Per-query counters (atomics so stats and metrics read them lock-free).
	notifs     atomic.Uint64
	dropped    atomic.Uint64
	topkNotifs atomic.Uint64
	topkFast   atomic.Uint64
	snapshots  atomic.Uint64
	restores   atomic.Uint64
}

// view is one query's published read state: its client.State, its top-k
// snapshot and its slot's error. The event loop builds a fresh one after
// every batch, before the ingest ack (so a read that follows an ack sees
// that batch), and on create, restore and at the end of boot replay. It is
// immutable once stored, and every read of the query — /v1/best, /v1/topk,
// the SSE hello, the restore reply, the stats, info and metrics rows and
// /healthz — is one atomic load of it, so no read waits on ingest.
type view struct {
	state client.State
	topk  *client.TopK
	// err is the newest apply's error, so a batch error that a shared ack
	// hides (another slot applied it) shows in this query's stats until a
	// batch applies cleanly; a failed chain's view keeps its failure.
	err string
}

// tenantSeed is one query to register at boot: its resolved configuration
// plus an optional checkpoint to seed the engine from. slotTag groups
// checkpointed seeds that came from the same persisted slot (-1 = fresh);
// seeds share an engine slot when both the configuration key and the tag
// agree, so identical fresh tenants share and registry-checkpoint sharing
// is restored bitwise.
type tenantSeed struct {
	id      string
	cfg     tenantConfig
	ckpt    []byte
	slotTag int
}

// buildSlot constructs a slot off the event loop: fresh from cfg — on its
// own window, or on the window of on (a fresh boot slot of equal windowKey)
// — or restored from a checkpoint in one replay (the checkpoint's recorded
// query options define the chain; cfg supplies algorithm, k and shard
// layout, as surge.RestoreTopKSharded documents).
func (s *Server) buildSlot(cfg tenantConfig, ckpt []byte, on *engineSlot) (*engineSlot, error) {
	chain, err := chainFor(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	var det *surge.TopKDetector
	grp := &windowGroup{}
	switch {
	case ckpt != nil:
		det, err = surge.RestoreTopKSharded(chain, ckpt, cfg.TopK, cfg.Options.Shards, cfg.Options.ShardBlockCols)
	case on != nil:
		det, err = surge.NewTopKOn(on.det, chain, cfg.Options, cfg.TopK)
		grp = on.grp
	default:
		det, err = surge.NewTopK(chain, cfg.Options, cfg.TopK)
	}
	if err != nil {
		return nil, err
	}
	sl := &engineSlot{cfg: cfg, key: cfg.key(), det: det, grp: grp}
	sl.read() // BestK has k >= 1 slots, so the first call always builds tkSnap
	return sl, nil
}

// read refreshes the slot's answer and top-k snapshot from its chain: when
// the slot is built, and once at the end of boot replay.
func (sl *engineSlot) read() {
	sl.refreshTopKLocal()
	sl.pendRes = sl.lastTopK[0]
}

// newTenant binds a tenant to a slot. Runs at boot or on the event loop.
func (s *Server) newTenant(id string, cfg tenantConfig, sl *engineSlot) *tenant {
	t := &tenant{id: id, cfg: cfg, gone: make(chan struct{})}
	t.slot.Store(sl)
	sl.refs.Add(1)
	t.last = sl.pendRes
	t.view.Store(s.viewOf(t, sl, client.FromResult(t.last)))
	t.hub.subs = make(map[*subscriber]struct{})
	t.hub.ringCap = s.ringCap
	t.hub.occ = s.hubOcc
	return t
}

// rebuildSlots recomputes the unique-slot fan-out list, the window groups
// and their members from the registry order. Loop-owned.
func (s *Server) rebuildSlots() {
	seen := make(map[*engineSlot]bool, len(s.order))
	s.slots = s.slots[:0]
	for _, g := range s.groups {
		g.slots = g.slots[:0]
	}
	s.groups = s.groups[:0]
	for _, t := range s.order {
		sl := t.slot.Load()
		if seen[sl] {
			continue
		}
		seen[sl] = true
		s.slots = append(s.slots, sl)
		if len(sl.grp.slots) == 0 {
			s.groups = append(s.groups, sl.grp)
		}
		sl.grp.slots = append(sl.grp.slots, sl)
	}
}

// validQueryID reports whether id is a legal registry id: 1-64 characters
// from [a-zA-Z0-9._-], so ids embed cleanly in URL paths and metric labels.
func validQueryID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// resolveQuery resolves one wire QueryConfig against the server defaults:
// empty algorithm and zero geometry fields inherit the default query's
// values, TopK 0 inherits the default k, Shards 0 selects the single-engine
// layout that rides the shared tenant workers.
func resolveQuery(cfg Config, qc client.QueryConfig) (tenantConfig, error) {
	tc := defaultTenantConfig(cfg)
	if qc.Algorithm != "" {
		alg, err := surge.ParseAlgorithm(qc.Algorithm)
		if err == nil {
			_, err = chainFor(alg)
		}
		if err != nil {
			return tenantConfig{}, fmt.Errorf("server: query %q: %w", qc.ID, err)
		}
		tc.Algorithm = alg
	}
	if qc.Width != 0 {
		tc.Options.Width = qc.Width
	}
	if qc.Height != 0 {
		tc.Options.Height = qc.Height
	}
	if qc.Window != 0 {
		tc.Options.Window = qc.Window
	}
	if qc.PastWindow != 0 {
		tc.Options.PastWindow = qc.PastWindow
	}
	if qc.Alpha != 0 {
		tc.Options.Alpha = qc.Alpha
	}
	if qc.TopK != 0 {
		tc.TopK = qc.TopK
	}
	if tc.TopK < 1 {
		return tenantConfig{}, fmt.Errorf("server: query %q: invalid TopK %d", qc.ID, tc.TopK)
	}
	// Per-query engines default to the single-engine path: tenancy scales by
	// spreading slots over the shared workers, not by spawning a shard
	// pipeline per query. An explicit Shards >= 2 opts this query into its
	// own pipeline.
	tc.Options.Shards = qc.Shards
	if tc.Options.Shards < 1 {
		tc.Options.Shards = 1
	}
	tc.Options.ShardBlockCols = qc.ShardBlockCols
	return tc, nil
}

// defaultTenantConfig is the resolved configuration of the default query.
func defaultTenantConfig(cfg Config) tenantConfig {
	return tenantConfig{Algorithm: cfg.Algorithm, Options: cfg.Options, TopK: cfg.TopK}
}

// bootSeeds builds the boot registry from a Config: the default query
// (seeded by Config.Checkpoint when set) plus every entry of
// Config.Queries. Called after the Config defaults are resolved.
func bootSeeds(cfg Config) ([]tenantSeed, error) {
	defTag := -1
	if cfg.Checkpoint != nil {
		defTag = 0
	}
	seeds := []tenantSeed{{id: DefaultQueryID, cfg: defaultTenantConfig(cfg), ckpt: cfg.Checkpoint, slotTag: defTag}}
	seen := map[string]bool{DefaultQueryID: true}
	for _, qc := range cfg.Queries {
		if !validQueryID(qc.ID) {
			return nil, fmt.Errorf("server: invalid query id %q (want 1-64 chars of [a-zA-Z0-9._-])", qc.ID)
		}
		if seen[qc.ID] {
			return nil, fmt.Errorf("server: duplicate query id %q", qc.ID)
		}
		seen[qc.ID] = true
		tc, err := resolveQuery(cfg, qc)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, tenantSeed{id: qc.ID, cfg: tc, slotTag: -1})
	}
	return seeds, nil
}
