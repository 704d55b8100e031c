package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	mrand "math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"surge"
	"surge/client"
	"surge/internal/fault"
	"surge/internal/wal"
)

// DurableConfig configures the write-ahead-logged variant of the server
// (surged serve -data-dir). The directory holds two things: wal/, the
// segment files logging every acknowledged ingest batch, and surge.ckpt,
// the newest durable checkpoint (detector state + covered WAL position +
// ingest dedupe table). Boot loads the checkpoint, replays the WAL tail
// (replayLog) and resumes exactly where the acknowledged stream left off.
type DurableConfig struct {
	// Dir is the data directory (required; created if missing).
	Dir string
	// Sync is the WAL fsync policy (default wal.SyncAlways). A killed
	// process loses no acknowledged batch under any policy; the policy
	// chooses what a machine crash can lose.
	Sync wal.SyncPolicy
	// SyncEvery is the background fsync period under wal.SyncInterval
	// (0 = 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates WAL segments at this size (0 = 64 MiB).
	SegmentBytes int64
	// CheckpointEvery is the period of the background durable checkpoint,
	// which also compacts fully covered WAL segments (0 = 1m; negative
	// disables the background checkpointer — Shutdown still writes one).
	CheckpointEvery time.Duration
	// FS is the filesystem the WAL and checkpoint files live on (nil =
	// fault.OS). Tests pass a fault.Injector to exercise disk-failure and
	// degradation paths.
	FS fault.FS
}

// walState is the durability attachment of a Server built by NewDurable.
// The recovery summary fields are written once, before the server starts
// serving, and only read afterwards.
type walState struct {
	log      *wal.Log
	ckptPath string
	fs       fault.FS
	scratch  []byte // loop-owned WAL record encode buffer

	// repairKick wakes the repair loop after a degradation; repairDone is
	// closed when the loop exits (Close joins it before closing the log).
	repairKick chan struct{}
	repairDone chan struct{}

	// Checkpoint persistence is serialised: the background checkpointLoop,
	// Shutdown and Restore may all reach persistCheckpoint concurrently, and
	// an older capture must never overwrite a newer one — CompactBefore may
	// already have deleted the WAL frames between the two positions, so the
	// rollback would lose acknowledged batches on the next boot. ckptGen
	// hands out capture tickets in state order (on the event loop, or after
	// it drained), and persistCheckpoint drops any ticket older than the
	// newest one persisted.
	ckptMu   sync.Mutex
	ckptGen  atomic.Uint64
	lastGen  uint64        // newest persisted ticket; guarded by ckptMu
	loopDone chan struct{} // closed when checkpointLoop exits; nil when disabled

	recBatches uint64  // WAL batches replayed at boot
	recObjects uint64  // objects those batches held
	recSec     float64 // boot replay duration
	torn       int64   // bytes discarded by torn-tail truncation at boot
}

// sourceSeq is the per-source ingest dedupe state behind the Ingest-Seq
// header: the newest sequence seen, how many chunks of it are applied, and
// the ack to replay for a duplicate. Guarded by Server.seqMu; the active
// flag serialises requests per source.
type sourceSeq struct {
	seq      uint64
	chunks   uint32 // chunks of seq applied so far (resume point)
	done     bool   // seq fully applied; result is the ack to replay
	active   bool   // a request for this source is in flight
	accepted int
	clamped  int
	result   surge.Result
}

// seqEntry is the checkpointed form of sourceSeq (the in-flight flags are
// meaningless across a restart and are not persisted).
type seqEntry struct {
	Seq      uint64        `json:"seq"`
	Chunks   uint32        `json:"chunks"`
	Done     bool          `json:"done"`
	Accepted int           `json:"accepted"`
	Clamped  int           `json:"clamped"`
	Result   client.Result `json:"result"`
}

// NewDurable builds a durable server: load the newest checkpoint from
// dc.Dir, open the WAL (truncating any torn tail), replay the tail on top
// of the checkpoint in one event-loop op (replayLog), and attach the log so
// every subsequent acknowledged ingest batch is appended before its 200
// goes out. The caller must not serve HTTP until NewDurable returns —
// replay assumes the ingest path is idle.
func NewDurable(cfg Config, dc DurableConfig) (*Server, error) {
	if dc.Dir == "" {
		return nil, errors.New("server: durable server needs a data directory")
	}
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	if dc.FS == nil {
		dc.FS = fault.OS
	}
	if err := os.MkdirAll(dc.Dir, 0o755); err != nil {
		return nil, err
	}
	ckptPath := filepath.Join(dc.Dir, "surge.ckpt")
	ck, err := readDurableCheckpoint(ckptPath)
	if err != nil {
		return nil, err
	}
	// Assemble the boot registry. A checkpoint restores every persisted
	// query bitwise and merges in Config.Queries as desired state
	// (config-declared ids missing from the checkpoint start fresh; a query
	// deleted after the checkpoint resurrects — delete it again).
	var seeds []tenantSeed
	if ck != nil {
		seeds, err = checkpointSeeds(cfg, ck)
	} else {
		seeds, err = bootSeeds(cfg)
	}
	if err != nil {
		return nil, err
	}
	wlog, recov, err := wal.Open(filepath.Join(dc.Dir, "wal"), wal.Options{
		Sync: dc.Sync, SyncEvery: dc.SyncEvery, SegmentBytes: dc.SegmentBytes, FS: dc.FS,
	})
	if err != nil {
		return nil, err
	}
	s, err := newServer(cfg, seeds)
	if err != nil {
		wlog.Close()
		return nil, err
	}
	ws := &walState{
		log: wlog, ckptPath: ckptPath, fs: dc.FS, torn: recov.TornBytes,
		repairKick: make(chan struct{}, 1),
		repairDone: make(chan struct{}),
	}
	var after uint64
	if ck != nil {
		after = ck.lsn
		s.restoreSeqs(ck.seqs)
		if recov.LastLSN < ck.lsn {
			// The log ends before the checkpoint: the normal state after a
			// clean shutdown (compaction emptied the WAL), or a machine crash
			// under a relaxed sync policy that lost frames the fsynced
			// checkpoint already covers. No data is missing — the checkpoint
			// holds those frames' state — but LSN assignment must not restart
			// inside the covered range: a later recovery would skip the
			// reused numbers as "covered" and silently drop acknowledged
			// batches. Every surviving frame is <= LastLSN < ck.lsn, i.e.
			// itself covered, so drop the log and renumber past the
			// checkpoint.
			if recov.LastLSN > 0 {
				s.log.Warn("wal ends before the checkpoint (machine crash with relaxed sync?); discarding covered frames",
					"wal_last_lsn", recov.LastLSN, "ckpt_lsn", ck.lsn)
			}
			rerr := wlog.CompactBefore(ck.lsn)
			if rerr == nil {
				rerr = wlog.SkipTo(ck.lsn)
			}
			if rerr != nil {
				s.Close()
				wlog.Close()
				return nil, rerr
			}
		}
	}
	t0 := time.Now()
	// The whole replay is one event-loop op, submitted bare: boot replay is
	// no client request, so it stays out of the queue-wait histogram. A
	// panic escaping it leaves rerr at errReplayAborted.
	rerr, ran := errReplayAborted, make(chan struct{})
	s.reqs <- func() {
		defer close(ran)
		rerr = s.replayLog(wlog, after, ws)
	}
	<-ran
	if rerr != nil {
		s.Close()
		wlog.Close()
		return nil, rerr
	}
	ws.recSec = time.Since(t0).Seconds()
	s.wal = ws
	every := dc.CheckpointEvery
	if every == 0 {
		every = time.Minute
	}
	if every > 0 {
		ws.loopDone = make(chan struct{})
		go s.checkpointLoop(every)
	}
	go s.repairLoop()
	s.log.Info("durable recovery complete",
		"dir", dc.Dir,
		"wal_sync", wlog.Policy().String(),
		"checkpoint", ck != nil,
		"replayed_batches", ws.recBatches,
		"replayed_objects", ws.recObjects,
		"torn_bytes", recov.TornBytes,
		"last_lsn", recov.LastLSN,
		"recovery_sec", ws.recSec)
	return s, nil
}

var errReplayAborted = errors.New("server: wal replay aborted")

// replayLog re-applies the WAL after the checkpoint, on the event loop,
// through applyLogged (no log is attached yet, so nothing is appended).
// Every record reproduces the original window state bit-for-bit: it holds
// the objects as parsed, replay decides them again against the stream clock
// — which starts at the restored clock (resetClock) and moves exactly as it
// did live — and a batch whose apply failed fails identically. Unsequenced
// records go through the chains' Replay, so an object that expires before
// the end of the log costs no chain work; an Ingest-Seq record is applied
// exactly, because the dedupe table stores its ack. At the end every slot
// reads its chain once and every query publishes once.
func (s *Server) replayLog(wlog *wal.Log, after uint64, ws *walState) error {
	var objs []surge.Object
	err := wlog.Replay(after, func(lsn uint64, payload []byte) error {
		// The decode buffer is reused across records: nothing retains it,
		// because the windows copy objects into their queues.
		src, seq, chunk, rec, derr := decodeWALRecord(payload, objs)
		if objs = rec; derr != nil {
			return fmt.Errorf("server: wal record %d: %w", lsn, derr)
		}
		mode := quietBatch
		if src != "" {
			mode = replayBatch
		}
		if res, late, aerr := s.applyLogged(rec, src, seq, chunk, mode); aerr == nil {
			s.noteSeqApplied(src, seq, chunk, len(rec), late, res)
		}
		ws.recBatches++
		ws.recObjects += uint64(len(rec))
		return nil
	})
	if err != nil {
		return err
	}
	for _, sl := range s.slots {
		if sl.failed == nil {
			sl.read()
		}
	}
	for _, t := range s.order {
		s.publish(t, t.slot.Load())
	}
	return nil
}

// applyLogged runs on the event loop: decide the chunk against the stream
// clock, append it to the WAL (when one is attached), then lift its late
// objects and apply it. A chunk the time policy rejects never reaches the
// log and leaves the clock where it was. The append happens before the
// apply and its error aborts it, so a 200 is only ever sent for a batch the
// log holds — and because both the append and the apply happen on the loop,
// WAL order is exactly apply order. The lift is in place, in the handler's
// chunk buffer: the handler is blocked in do until the chunk is applied.
//
// An append failure transitions the server to degraded instead of failing
// every future ingest: the batch is rejected (never acked), ingest is shed
// with 503 until the background repair loop truncates the partial tail,
// rotates to a fresh segment and re-establishes the durable floor with a
// fresh checkpoint. Queries keep serving throughout.
func (s *Server) applyLogged(objs []surge.Object, src string, seq uint64, chunk uint32, mode batchMode) (surge.Result, int, error) {
	if s.wal != nil && s.degraded.Load() {
		return surge.Result{}, 0, errDegraded
	}
	late, clock, err := s.decide(objs)
	if err != nil {
		return surge.Result{}, 0, err
	}
	if s.wal != nil {
		s.wal.scratch = encodeWALRecord(s.wal.scratch[:0], src, seq, chunk, objs)
		if _, err := s.wal.log.Append(s.wal.scratch); err != nil {
			s.enterDegraded(err)
			return surge.Result{}, 0, fmt.Errorf("%w: %w", errDegraded, err)
		}
	}
	s.advance(objs, late, clock)
	res, err := s.applyBatch(objs, mode)
	return res, late, err
}

// errDegraded marks ingest shed while durability is lost: the WAL cannot
// hold the batch, so acknowledging it would break the crash contract. The
// handler reports 503 with code "durability_degraded" and a Retry-After;
// the repair loop restores ingest without a restart.
var errDegraded = errors.New("server: durability degraded, ingest shed until the log is repaired")

// degradedRetryAfterSec is the backoff hint sent with a degraded 503: a
// transient fault usually repairs within one attempt of the repair loop.
const degradedRetryAfterSec = 1

// enterDegraded transitions ok -> degraded on the first WAL failure and
// wakes the repair loop. Later failures just refresh the fault message.
func (s *Server) enterDegraded(err error) {
	msg := err.Error()
	s.faultMsg.Store(&msg)
	if !s.degraded.CompareAndSwap(false, true) {
		return
	}
	s.degradedSince.Store(time.Now().UnixNano())
	s.degradedCount.Add(1)
	s.log.Error("durability degraded: shedding ingest until the log is repaired", "err", err)
	select {
	case s.wal.repairKick <- struct{}{}:
	default:
	}
}

// exitDegraded transitions degraded -> recovered once a repair succeeded.
func (s *Server) exitDegraded() {
	if !s.degraded.CompareAndSwap(true, false) {
		return
	}
	var spell time.Duration
	if t := s.degradedSince.Swap(0); t != 0 {
		spell = time.Duration(time.Now().UnixNano() - t)
		s.degradedNano.Add(int64(spell))
	}
	s.repairedCount.Add(1)
	s.log.Info("durability repaired: ingest resumed", "degraded_sec", spell.Seconds())
}

// degradedSec returns the cumulative wall-clock time spent degraded,
// including the current spell.
func (s *Server) degradedSec() float64 {
	total := time.Duration(s.degradedNano.Load())
	if t := s.degradedSince.Load(); t != 0 {
		total += time.Duration(time.Now().UnixNano() - t)
	}
	return total.Seconds()
}

// durabilityString names the degradation state machine's position for
// /healthz and /v1/stats: "degraded" while ingest is shed, "recovered" once
// at least one repair has restored durability, "ok" when no fault ever hit.
func (s *Server) durabilityString() string {
	switch {
	case s.degraded.Load():
		return "degraded"
	case s.repairedCount.Load() > 0:
		return "recovered"
	default:
		return "ok"
	}
}

// faultString returns the most recent WAL fault message, "" when none.
func (s *Server) faultString() string {
	if p := s.faultMsg.Load(); p != nil {
		return *p
	}
	return ""
}

const (
	repairBaseDelay = 25 * time.Millisecond
	repairMaxDelay  = 2 * time.Second
)

// jitter spreads a backoff delay over [d/2, d] so concurrent retry loops
// do not synchronise.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(mrand.Int64N(int64(d/2)))
}

// repairLoop waits for a degradation and retries repair with jittered
// exponential backoff until the log accepts appends again. It exits when
// the server shuts down.
func (s *Server) repairLoop() {
	defer close(s.wal.repairDone)
	for {
		select {
		case <-s.quit:
			return
		case <-s.wal.repairKick:
		}
		delay := repairBaseDelay
		for {
			err := s.repairDurability()
			if err == nil {
				break
			}
			if errors.Is(err, ErrClosed) || errors.Is(err, wal.ErrClosed) {
				return
			}
			s.log.Warn("durability repair failed; retrying", "err", err, "backoff_sec", delay.Seconds())
			select {
			case <-s.quit:
				return
			case <-time.After(jitter(delay)):
			}
			if delay *= 2; delay > repairMaxDelay {
				delay = repairMaxDelay
			}
		}
	}
}

// repairDurability is one repair attempt: truncate the poisoned tail and
// rotate the log to a fresh segment, then write a fresh checkpoint. The
// checkpoint is not optional — a failed fsync may have silently dropped
// pages the kernel already marked clean, so the surviving segments cannot
// be trusted; checkpointing the in-memory state (which also compacts the
// suspect segments away) re-establishes the durable floor from scratch.
// Only then does ingest resume.
func (s *Server) repairDurability() error {
	if err := s.wal.log.Repair(); err != nil {
		return err
	}
	if err := s.checkpointDurable(); err != nil {
		return err
	}
	s.exitDegraded()
	return nil
}

// noteSeqApplied folds one applied chunk into the per-source dedupe state.
// Both callers — the live ingest path and boot replay — run it on the event
// loop, in the same closure as the apply, so the dedupe table a checkpoint
// snapshots is never behind the WAL position the checkpoint captured (a
// behind table would resume a retried sequence at a stale skip count and
// re-apply an already-applied chunk after a crash). It can be slightly
// ahead — snapshotSeqs runs after the loop capture — which is safe: the max
// semantics on (seq, chunks) make replay idempotent.
func (s *Server) noteSeqApplied(src string, seq uint64, chunk uint32, objs, clamped int, res surge.Result) {
	if src == "" {
		return
	}
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	st := s.seqs[src]
	if st == nil {
		st = &sourceSeq{}
		s.seqs[src] = st
	}
	if seq < st.seq {
		return
	}
	if seq > st.seq {
		*st = sourceSeq{seq: seq, active: st.active}
	}
	if chunk+1 > st.chunks {
		st.chunks = chunk + 1
		st.accepted += objs
		st.clamped += clamped
		st.result = res
	}
}

// restoreSeqs loads the checkpointed dedupe table at boot.
func (s *Server) restoreSeqs(entries map[string]seqEntry) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	for src, e := range entries {
		s.seqs[src] = &sourceSeq{
			seq:      e.Seq,
			chunks:   e.Chunks,
			done:     e.Done,
			accepted: e.Accepted,
			clamped:  e.Clamped,
			result:   e.Result.ToResult(),
		}
	}
}

// snapshotSeqs serialises the dedupe table for a durable checkpoint.
func (s *Server) snapshotSeqs() map[string]seqEntry {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	out := make(map[string]seqEntry, len(s.seqs))
	for src, st := range s.seqs {
		out[src] = seqEntry{
			Seq:      st.seq,
			Chunks:   st.chunks,
			Done:     st.done,
			Accepted: st.accepted,
			Clamped:  st.clamped,
			Result:   client.FromResult(st.result),
		}
	}
	return out
}

// ckptRetryBase paces the retry after a failed background checkpoint: a
// full -checkpoint-every period of waiting would let WAL segments pile up
// while the failure is likely transient.
const (
	ckptRetryBase = 100 * time.Millisecond
	ckptRetryMax  = 10 * time.Second
)

// checkpointLoop writes a durable checkpoint every period until the server
// shuts down. Each checkpoint also compacts the WAL segments it covers, so
// the log stays bounded by the ingest volume of one period. A failed
// attempt is retried with jittered exponential backoff instead of waiting
// out the period with segments accumulating. Shutdown and Close join
// loopDone so no background persist is in flight when the final checkpoint
// writes or the log closes.
func (s *Server) checkpointLoop(every time.Duration) {
	defer close(s.wal.loopDone)
	t := time.NewTicker(every)
	defer t.Stop()
	var delay time.Duration    // nonzero while retrying a failed checkpoint
	var retry <-chan time.Time // nil unless a retry is scheduled
	for {
		select {
		case <-t.C:
		case <-retry:
		case <-s.quit:
			return
		}
		err := s.checkpointDurable()
		switch {
		case err == nil:
			delay, retry = 0, nil
		case errors.Is(err, ErrClosed):
			return
		default:
			if delay *= 2; delay < ckptRetryBase {
				delay = ckptRetryBase
			}
			if delay > ckptRetryMax {
				delay = ckptRetryMax
			}
			if delay > every {
				delay = every
			}
			s.log.Error("durable checkpoint failed; retrying", "err", err, "backoff_sec", delay.Seconds())
			retry = time.After(jitter(delay))
		}
	}
}

// captureRegistry checkpoints every registered query's engine state,
// deduplicating shared slots (N tenants on one slot cost one checkpoint and
// one persisted blob). Runs on the event loop, or after it drained
// (Shutdown), so the capture is mutually consistent across tenants.
func (s *Server) captureRegistry() (regCapture, error) {
	var rc regCapture
	idx := make(map[*engineSlot]int, len(s.slots))
	for _, t := range s.order {
		sl := t.slot.Load()
		si, ok := idx[sl]
		if !ok {
			blob, err := sl.det.Checkpoint()
			if err != nil {
				return regCapture{}, fmt.Errorf("server: checkpoint query %q: %w", t.id, err)
			}
			si = len(rc.blobs)
			rc.blobs = append(rc.blobs, blob)
			idx[sl] = si
		}
		rc.metas = append(rc.metas, queryMeta{
			ID:        t.id,
			Slot:      si,
			Algorithm: t.cfg.Algorithm.String(),
			Options:   t.cfg.Options,
			TopK:      t.cfg.TopK,
		})
		if t.isDefault {
			rc.defSlot = si
		}
	}
	return rc, nil
}

// checkpointDurable captures the full registry on the event loop — so the
// captured WAL position exactly matches the captured state of every query —
// and persists the capture atomically.
func (s *Server) checkpointDurable() error {
	var rc regCapture
	var lsn, gen uint64
	var cerr error
	if err := s.do(func() {
		rc, cerr = s.captureRegistry()
		lsn = s.wal.log.LastLSN()
		gen = s.wal.ckptGen.Add(1)
		s.snapshots.Add(1)
	}); err != nil {
		return err
	}
	if cerr != nil {
		s.ckptErrs.Add(1)
		return cerr
	}
	if err := s.persistCheckpoint(rc, lsn, gen); err != nil {
		if !errors.Is(err, wal.ErrClosed) {
			s.ckptErrs.Add(1)
		}
		return err
	}
	return nil
}

// persistCheckpoint writes the durable checkpoint wrapper atomically, then
// compacts the WAL segments it fully covers. gen is the capture ticket from
// walState.ckptGen: writes are serialised under ckptMu, and a capture older
// than the newest persisted one is dropped — a slow background checkpoint
// must never roll surge.ckpt back over a newer Shutdown/Restore checkpoint
// whose covering WAL segments are already compacted away.
func (s *Server) persistCheckpoint(rc regCapture, lsn, gen uint64) error {
	ws := s.wal
	ws.ckptMu.Lock()
	defer ws.ckptMu.Unlock()
	if gen < ws.lastGen {
		return nil
	}
	buf, err := encodeDurableCheckpoint(lsn, s.snapshotSeqs(), rc)
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomicFS(ws.fs, ws.ckptPath, buf, 0o644); err != nil {
		return err
	}
	ws.lastGen = gen
	s.ckpts.Add(1)
	if err := ws.log.CompactBefore(lsn); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	s.log.Info("durable checkpoint written", "bytes", len(buf), "lsn", lsn, "queries", len(rc.metas), "engine_slots", len(rc.blobs))
	return nil
}

// --- WAL record payload ---
//
// The WAL stores opaque payloads; this is the server's record schema:
//
//	byte    version (1)
//	uvarint len(source); source bytes ("" for unsequenced ingest)
//	uvarint sequence (0 for unsequenced ingest)
//	uvarint chunk index within the request
//	uvarint object count
//	32 B    per object: time, x, y, weight as little-endian float64 bits
//
// Objects are recorded as parsed, before the clamp lifts them; a chunk the
// strict policy rejects is never recorded. Replay decides each record again
// against the stream clock, which starts at the restored clock and moves as
// it did live, so it lifts the same objects and lands bit-identically.

const walRecordVersion = 1

func encodeWALRecord(buf []byte, src string, seq uint64, chunk uint32, objs []surge.Object) []byte {
	buf = append(buf, walRecordVersion)
	buf = binary.AppendUvarint(buf, uint64(len(src)))
	buf = append(buf, src...)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(chunk))
	buf = binary.AppendUvarint(buf, uint64(len(objs)))
	for _, o := range objs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Time))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Weight))
	}
	return buf
}

var errBadWALRecord = errors.New("truncated or malformed record")

// decodeWALRecord decodes a record, appending its objects to dst[:0] and
// returning the extended slice, so a caller decoding many records reuses
// one buffer. On error the objects are dst[:0].
func decodeWALRecord(b []byte, dst []surge.Object) (src string, seq uint64, chunk uint32, objs []surge.Object, err error) {
	objs = dst[:0]
	fail := func() (string, uint64, uint32, []surge.Object, error) {
		return "", 0, 0, objs, errBadWALRecord
	}
	if len(b) < 1 || b[0] != walRecordVersion {
		return fail()
	}
	b = b[1:]
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b[k:])) < n {
		return fail()
	}
	src = string(b[k : k+int(n)])
	b = b[k+int(n):]
	if seq, k = binary.Uvarint(b); k <= 0 {
		return fail()
	}
	b = b[k:]
	c, k := binary.Uvarint(b)
	if k <= 0 || c > math.MaxUint32 {
		return fail()
	}
	chunk = uint32(c)
	b = b[k:]
	cnt, k := binary.Uvarint(b)
	if k <= 0 {
		return fail()
	}
	b = b[k:]
	// Overflow-safe form of len(b) == cnt*32: a corrupt count near 2^59
	// would wrap the product, pass the naive check and make() an absurd
	// slice, crashing recovery instead of reporting a bad record.
	if uint64(len(b))%32 != 0 || uint64(len(b))/32 != cnt {
		return fail()
	}
	objs = slices.Grow(objs, int(cnt))
	for ; len(b) > 0; b = b[32:] {
		objs = append(objs, surge.Object{
			Time:   math.Float64frombits(binary.LittleEndian.Uint64(b[0:8])),
			X:      math.Float64frombits(binary.LittleEndian.Uint64(b[8:16])),
			Y:      math.Float64frombits(binary.LittleEndian.Uint64(b[16:24])),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(b[24:32])),
		})
	}
	return src, seq, chunk, objs, nil
}

// --- Durable checkpoint wrapper (surge.ckpt) ---
//
// Version 2 (the registry checkpoint):
//
//	8 B  magic "SURGEDC2"
//	8 B  WAL LSN covered by this checkpoint (little-endian)
//	4 B  dedupe-table JSON length; the JSON (map[source]seqEntry)
//	4 B  registry JSON length; the JSON ([]queryMeta, registry order)
//	4 B  engine-slot count N
//	N x  4 B blob length + detector checkpoint bytes (surge.Restore format)
//
// Registry JSON written by earlier releases may carry per-query keys of
// serve options that no longer exist (replay-only top-k, the dual-engine
// layout); they are ignored and the query is served from its chain. Version
// 1 ("SURGEDC1", a single detector blob) is no longer read: boot fails with
// the remedy.
//
// The file is written with WriteFileAtomic, so boot sees either the old
// checkpoint or the new one, never a torn mix.

var ckptMagic = [8]byte{'S', 'U', 'R', 'G', 'E', 'D', 'C', '2'}

// queryMeta is one registered query's persisted identity: enough to rebuild
// its tenantConfig at boot without the serve flags. Options round-trips
// through JSON exactly (Go encodes float64 shortest-round-trip), so a
// restored config hashes to the same sharing key.
type queryMeta struct {
	ID        string        `json:"id"`
	Slot      int           `json:"slot"` // index into the blob table
	Algorithm string        `json:"algorithm"`
	Options   surge.Options `json:"options"`
	TopK      int           `json:"topk"`
}

// regCapture is a mutually consistent checkpoint of the whole registry:
// one meta per query, one blob per unique engine slot.
type regCapture struct {
	metas   []queryMeta
	blobs   [][]byte
	defSlot int // blob index of the default query's slot
}

type durableCheckpoint struct {
	lsn   uint64
	seqs  map[string]seqEntry
	metas []queryMeta
	slots [][]byte
}

// checkpointSeeds turns a registry checkpoint into boot seeds. The
// default query and any id also declared in cfg.Queries take their
// configuration from the config (matching the legacy restore semantics:
// flags choose algorithm and shard layout, the checkpoint supplies state);
// checkpoint-only ids — created at runtime — carry their configuration in
// the checkpoint itself. Config-declared ids missing from the checkpoint
// are appended as fresh queries.
func checkpointSeeds(cfg Config, ck *durableCheckpoint) ([]tenantSeed, error) {
	confByID := make(map[string]client.QueryConfig, len(cfg.Queries))
	for _, qc := range cfg.Queries {
		if !validQueryID(qc.ID) {
			return nil, fmt.Errorf("server: invalid query id %q (want 1-64 chars of [a-zA-Z0-9._-])", qc.ID)
		}
		if qc.ID == DefaultQueryID {
			return nil, fmt.Errorf("server: duplicate query id %q", qc.ID)
		}
		if _, dup := confByID[qc.ID]; dup {
			return nil, fmt.Errorf("server: duplicate query id %q", qc.ID)
		}
		confByID[qc.ID] = qc
	}
	seeds := make([]tenantSeed, 0, len(ck.metas)+len(cfg.Queries))
	seen := make(map[string]bool, len(ck.metas))
	for _, m := range ck.metas {
		if m.Slot < 0 || m.Slot >= len(ck.slots) {
			return nil, fmt.Errorf("server: corrupt durable checkpoint: query %q references slot %d of %d", m.ID, m.Slot, len(ck.slots))
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("server: corrupt durable checkpoint: duplicate query %q", m.ID)
		}
		seen[m.ID] = true
		var tc tenantConfig
		switch {
		case m.ID == DefaultQueryID:
			tc = defaultTenantConfig(cfg)
		default:
			if qc, ok := confByID[m.ID]; ok {
				var err error
				if tc, err = resolveQuery(cfg, qc); err != nil {
					return nil, err
				}
				break
			}
			alg, err := surge.ParseAlgorithm(m.Algorithm)
			if err != nil {
				return nil, fmt.Errorf("server: corrupt durable checkpoint: query %q: %w", m.ID, err)
			}
			tc = tenantConfig{Algorithm: alg, Options: m.Options, TopK: m.TopK}
			if tc.TopK < 1 {
				tc.TopK = cfg.TopK
			}
		}
		seeds = append(seeds, tenantSeed{id: m.ID, cfg: tc, ckpt: ck.slots[m.Slot], slotTag: m.Slot})
	}
	if !seen[DefaultQueryID] {
		// A checkpoint always records the default query; tolerate its
		// absence (hand-edited file) by booting it fresh.
		seeds = append([]tenantSeed{{id: DefaultQueryID, cfg: defaultTenantConfig(cfg), slotTag: -1}}, seeds...)
	}
	for _, qc := range cfg.Queries {
		if seen[qc.ID] {
			continue
		}
		tc, err := resolveQuery(cfg, qc)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, tenantSeed{id: qc.ID, cfg: tc, slotTag: -1})
	}
	return seeds, nil
}

func encodeDurableCheckpoint(lsn uint64, seqs map[string]seqEntry, rc regCapture) ([]byte, error) {
	sj, err := json.Marshal(seqs)
	if err != nil { // a map of plain structs cannot fail to marshal
		sj = []byte("{}")
	}
	mj, err := json.Marshal(rc.metas)
	if err != nil {
		return nil, fmt.Errorf("server: encode registry: %w", err)
	}
	total := 28 + len(sj) + len(mj)
	for _, b := range rc.blobs {
		total += 4 + len(b)
	}
	buf := make([]byte, 0, total)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sj)))
	buf = append(buf, sj...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mj)))
	buf = append(buf, mj...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rc.blobs)))
	for _, b := range rc.blobs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	return buf, nil
}

// readDurableCheckpoint loads dir's checkpoint, returning (nil, nil) when
// none exists yet. A checkpoint that fails to parse is a hard error —
// atomic writes mean it cannot be a crash artifact, so silently starting
// empty would discard acknowledged state.
func readDurableCheckpoint(path string) (*durableCheckpoint, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	bad := func(what string) (*durableCheckpoint, error) {
		return nil, fmt.Errorf("server: corrupt durable checkpoint %s: %s", path, what)
	}
	if len(b) < 24 {
		return nil, fmt.Errorf("server: %s is not a durable checkpoint (too short)", path)
	}
	switch string(b[:8]) {
	case string(ckptMagic[:]):
	case "SURGEDC1":
		return nil, fmt.Errorf("server: %s is a SURGEDC1 (single-query) durable checkpoint, which this release no longer reads: boot the previous release on this data directory once — it rewrites the file as SURGEDC2 — then start this one", path)
	default:
		return nil, fmt.Errorf("server: %s is not a durable checkpoint (bad magic)", path)
	}
	ck := &durableCheckpoint{lsn: binary.LittleEndian.Uint64(b[8:16])}
	b = b[16:]
	sl := binary.LittleEndian.Uint32(b[:4])
	b = b[4:]
	if uint64(len(b)) < uint64(sl)+4 {
		return bad("short dedupe table")
	}
	if err := json.Unmarshal(b[:sl], &ck.seqs); err != nil {
		return bad("dedupe table: " + err.Error())
	}
	b = b[sl:]
	ml := binary.LittleEndian.Uint32(b[:4])
	b = b[4:]
	if uint64(len(b)) < uint64(ml)+4 {
		return bad("short registry")
	}
	if err := json.Unmarshal(b[:ml], &ck.metas); err != nil {
		return bad("registry: " + err.Error())
	}
	b = b[ml:]
	n := binary.LittleEndian.Uint32(b[:4])
	b = b[4:]
	ck.slots = make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 4 {
			return bad("short slot table")
		}
		bl := binary.LittleEndian.Uint32(b[:4])
		b = b[4:]
		if uint64(len(b)) < uint64(bl) {
			return bad("short slot blob")
		}
		ck.slots = append(ck.slots, b[:bl])
		b = b[bl:]
	}
	if len(b) != 0 {
		return bad("trailing bytes")
	}
	return ck, nil
}
