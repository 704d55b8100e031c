// Package wal is a write-ahead log of opaque records over length-prefixed,
// CRC32C-framed segment files. The server appends each acknowledged ingest
// batch before the 200 goes out; after a crash, replaying the log tail on
// top of the newest checkpoint reconstructs the exact acknowledged state.
//
// # On-disk format
//
// A log is a directory of segment files named wal-<index>.seg, appended in
// index order. Each record is one frame:
//
//	uint32  payload length (little-endian)
//	uint32  CRC32C over the LSN bytes and the payload
//	uint64  LSN (log sequence number, strictly increasing by one)
//	bytes   payload (opaque to this package)
//
// Every Append issues one write(2) for the whole frame, so a record either
// reaches the kernel completely before the caller acknowledges it or the
// append fails — a killed process (SIGKILL, OOM) never loses an
// acknowledged record under any sync policy, because the page cache
// survives process death. The sync policy only chooses how often fsync
// pushes the cache to the device, i.e. what a machine crash can lose.
//
// # Recovery
//
// Open scans the segments in order and validates every frame. The first
// torn or corrupt frame — short header, short payload, CRC mismatch, or an
// LSN that breaks the sequence — marks the end of the recoverable log: the
// segment is truncated at that offset, any later segments are deleted, and
// the discarded byte count is reported so operators can see exactly how
// much a torn tail cost.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"surge/internal/fault"
	"surge/internal/obs"
)

// SyncPolicy selects when appended frames are fsynced to the device.
type SyncPolicy int

const (
	// SyncAlways fsyncs inside every Append, before the caller can
	// acknowledge: no crash of any kind loses an acked record. The fsync
	// dominates append latency.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (Options.SyncEvery). A
	// process kill loses nothing; a machine crash can lose up to one
	// interval of acked records.
	SyncInterval
	// SyncOff never fsyncs; the kernel writes back on its own schedule. A
	// process kill still loses nothing.
	SyncOff
)

// String renders the policy as the -wal-sync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "off"
	}
}

// ParseSyncPolicy parses a -wal-sync flag value: "always", "off", or a
// positive duration (e.g. "100ms") selecting interval sync at that period.
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "always":
		return SyncAlways, 0, nil
	case "off":
		return SyncOff, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("wal: invalid sync policy %q (want always, off, or a positive duration like 100ms)", s)
	}
	return SyncInterval, d, nil
}

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval
	// (0 = 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (0 = 64 MiB). Smaller segments compact at a finer grain.
	SegmentBytes int64
	// FS is the filesystem the log runs on (nil = fault.OS). Tests pass a
	// fault.Injector to exercise disk-failure paths.
	FS fault.FS
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// LastLSN is the LSN of the last valid frame, 0 for an empty log.
	LastLSN uint64
	// TornBytes counts the bytes discarded by torn-tail truncation: the
	// invalid tail of the segment holding the first bad frame, plus any
	// later segments in full.
	TornBytes int64
	// Segments is the number of segment files retained after recovery.
	Segments int
}

const (
	frameHeader      = 16 // uint32 len + uint32 crc + uint64 lsn
	defaultSegment   = 64 << 20
	defaultSyncEvery = 100 * time.Millisecond
	// maxPayload bounds a single record; frames claiming more are treated
	// as torn (a corrupt length would otherwise make recovery allocate it).
	maxPayload = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Log methods after Close.
var ErrClosed = errors.New("wal: closed")

type segment struct {
	index    uint64
	path     string
	firstLSN uint64 // 0 when the segment holds no frames
	lastLSN  uint64
	size     int64
}

// Log is an append-only write-ahead log. Append, Sync, CompactBefore and
// Close are safe for concurrent use; Replay must not run concurrently with
// Append.
type Log struct {
	dir string
	opt Options
	fs  fault.FS

	mu     sync.Mutex
	f      fault.File // active segment
	segs   []segment
	lsn    uint64 // last assigned LSN
	dirty  bool   // frames written since the last fsync
	closed bool
	poison error  // first unrepaired append/fsync/rotation failure
	buf    []byte // frame scratch, reused across appends

	stopSync chan struct{} // interval syncer shutdown
	syncDone chan struct{}

	lastSyncNano atomic.Int64 // wall clock of the last completed fsync

	mAppend *obs.Histogram
	mFsync  *obs.Histogram
	cBytes  *obs.Counter
	cFrames *obs.Counter
	cFaults *obs.Counter
	cRepair *obs.Counter
	gSegs   *obs.Gauge
	gSize   *obs.Gauge
}

// Open opens (creating if needed) the log in dir, recovering and truncating
// any torn tail left by a crash. The returned Recovery reports the last
// valid LSN and how many bytes the torn tail cost.
func Open(dir string, opt Options) (*Log, Recovery, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegment
	}
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = defaultSyncEvery
	}
	if opt.FS == nil {
		opt.FS = fault.OS
	}
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	l := &Log{
		dir:     dir,
		opt:     opt,
		fs:      opt.FS,
		mAppend: obs.Default.Duration(obs.MWALAppend, "WAL append latency: frame write (plus fsync under the always policy)."),
		mFsync:  obs.Default.Duration(obs.MWALFsync, "WAL fsync latency."),
		cBytes:  obs.Default.Counter(obs.MWALBytes, "Bytes appended to the WAL."),
		cFrames: obs.Default.Counter(obs.MWALFrames, "Frames appended to the WAL."),
		cFaults: obs.Default.Counter(obs.MWALFaults, "WAL write/fsync/rotation failures that poisoned the log."),
		cRepair: obs.Default.Counter(obs.MWALRepairs, "Successful WAL repairs after a poisoning fault."),
		gSegs:   obs.Default.Gauge(obs.MWALSegments, "WAL segment files on disk."),
		gSize:   obs.Default.Gauge(obs.MWALSize, "Total bytes of WAL segments on disk."),
	}
	rec, err := l.recover()
	if err != nil {
		return nil, Recovery{}, err
	}
	if l.opt.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	l.lastSyncNano.Store(time.Now().UnixNano())
	l.updateGauges()
	return l, rec, nil
}

// recover scans the segment files, truncates the first torn frame and
// everything after it, and positions the log for appending.
func (l *Log) recover() (Recovery, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return Recovery{}, err
	}
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%016x.seg", &idx); n == 1 {
			l.segs = append(l.segs, segment{index: idx, path: filepath.Join(l.dir, e.Name())})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].index < l.segs[j].index })

	var rec Recovery
	prevLSN := uint64(0)
	tornAt := -1 // index of the segment holding the first bad frame
	for i := range l.segs {
		seg := &l.segs[i]
		validEnd, first, last, err := scanSegment(l.fs, seg.path, prevLSN)
		if err != nil {
			return Recovery{}, err
		}
		info, err := l.fs.Stat(seg.path)
		if err != nil {
			return Recovery{}, err
		}
		seg.firstLSN, seg.lastLSN, seg.size = first, last, validEnd
		if last != 0 {
			prevLSN = last
		}
		if validEnd < info.Size() {
			rec.TornBytes += info.Size() - validEnd
			if err := l.fs.Truncate(seg.path, validEnd); err != nil {
				return Recovery{}, err
			}
			tornAt = i
			break
		}
	}
	if tornAt >= 0 {
		// Frames after a torn record are unordered relative to the
		// acknowledged prefix: drop the later segments entirely.
		for _, seg := range l.segs[tornAt+1:] {
			if info, err := l.fs.Stat(seg.path); err == nil {
				rec.TornBytes += info.Size()
			}
			if err := l.fs.Remove(seg.path); err != nil {
				return Recovery{}, err
			}
		}
		l.segs = l.segs[:tornAt+1]
		if err := syncDir(l.fs, l.dir); err != nil {
			return Recovery{}, err
		}
	}
	l.lsn = prevLSN
	if len(l.segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return Recovery{}, err
		}
	} else {
		active := &l.segs[len(l.segs)-1]
		f, err := l.fs.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return Recovery{}, err
		}
		l.f = f
	}
	rec.LastLSN = l.lsn
	rec.Segments = len(l.segs)
	return rec, nil
}

// scanSegment validates the frames of one segment file. It returns the
// offset of the first invalid byte (== file size when the whole segment is
// valid) and the first and last valid LSNs. prevLSN is the last LSN of the
// preceding segment; frames must continue the sequence with prevLSN+1.
func scanSegment(fsys fault.FS, path string, prevLSN uint64) (validEnd int64, first, last uint64, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	r := newFrameReader(f)
	for {
		lsn, payload, err := r.next()
		if err == io.EOF {
			return r.offset, first, last, nil
		}
		if err != nil {
			return 0, 0, 0, err
		}
		if payload == nil { // torn or corrupt frame
			return r.valid, first, last, nil
		}
		if prevLSN != 0 && lsn != prevLSN+1 {
			// A sequence break means an earlier truncation or a stray file:
			// nothing after it is trustworthy.
			return r.valid, first, last, nil
		}
		prevLSN = lsn
		if first == 0 {
			first = lsn
		}
		last = lsn
	}
}

// frameReader decodes frames from a segment, distinguishing clean EOF from
// a torn tail.
type frameReader struct {
	r      io.Reader
	offset int64 // bytes consumed
	valid  int64 // offset after the last fully valid frame
	hdr    [frameHeader]byte
	buf    []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r}
}

// next returns the next frame. A torn or corrupt frame returns (0, nil,
// nil); clean end-of-log returns io.EOF.
func (fr *frameReader) next() (uint64, []byte, error) {
	n, err := io.ReadFull(fr.r, fr.hdr[:])
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		fr.offset += int64(n)
		return 0, nil, nil // short header: torn
	}
	if err != nil {
		return 0, nil, err
	}
	fr.offset += frameHeader
	length := binary.LittleEndian.Uint32(fr.hdr[0:4])
	crc := binary.LittleEndian.Uint32(fr.hdr[4:8])
	lsn := binary.LittleEndian.Uint64(fr.hdr[8:16])
	if length > maxPayload {
		return 0, nil, nil // corrupt length
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	payload := fr.buf[:length]
	n, err = io.ReadFull(fr.r, payload)
	fr.offset += int64(n)
	if err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return 0, nil, nil // short payload: torn
		}
		return 0, nil, err
	}
	sum := crc32.Update(crc32.Checksum(fr.hdr[8:16], castagnoli), castagnoli, payload)
	if sum != crc {
		return 0, nil, nil // corrupt frame
	}
	fr.valid = fr.offset
	return lsn, payload, nil
}

func segmentPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", index))
}

// openSegment creates and activates the segment with the given index.
// Caller holds l.mu (or is Open, before the log is shared).
func (l *Log) openSegment(index uint64) error {
	path := segmentPath(l.dir, index)
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segs = append(l.segs, segment{index: index, path: path})
	return nil
}

// Append frames payload, assigns it the next LSN and writes it to the
// active segment with a single write call. Under SyncAlways it also fsyncs
// before returning. The payload is copied; the caller may reuse it.
//
// A write or fsync failure poisons the log: the in-memory state rolls back
// to the last acknowledged frame and every later Append fails fast with the
// original error until Repair truncates the partial tail off the segment.
// Appending past a partial frame would make the next recovery read it as a
// torn tail and discard everything after it — including acked frames.
func (l *Log) Append(payload []byte) (uint64, error) {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.poison != nil {
		return 0, l.poison
	}
	lsn := l.lsn + 1
	need := frameHeader + len(payload)
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	frame := l.buf[:need]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[8:16], lsn)
	copy(frame[frameHeader:], payload)
	sum := crc32.Update(crc32.Checksum(frame[8:16], castagnoli), castagnoli, payload)
	binary.LittleEndian.PutUint32(frame[4:8], sum)
	active := &l.segs[len(l.segs)-1]
	prevFirst, prevLast, prevSize := active.firstLSN, active.lastLSN, active.size
	if _, err := l.f.Write(frame); err != nil {
		// The frame may be partially on disk; active.size still marks the
		// last valid byte for Repair to truncate back to.
		err = fmt.Errorf("wal: append: %w", err)
		l.poisonLocked(err)
		return 0, err
	}
	l.lsn = lsn
	l.dirty = true
	if active.firstLSN == 0 {
		active.firstLSN = lsn
	}
	active.lastLSN = lsn
	active.size += int64(need)
	if l.opt.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			// The frame is in the page cache but not durable and will not
			// be acknowledged: roll back so the LSN is reassigned after
			// repair and the stray bytes are truncated away.
			l.lsn = lsn - 1
			active.firstLSN, active.lastLSN, active.size = prevFirst, prevLast, prevSize
			return 0, err
		}
	}
	l.cBytes.Add(uint64(need))
	l.cFrames.Inc()
	if active.size >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			// The frame itself is complete (and synced, under always):
			// report success and leave the log poisoned so the next append
			// fails fast and Repair re-establishes a writable segment.
			l.poisonLocked(fmt.Errorf("wal: rotate: %w", err))
		}
	}
	l.updateGauges()
	l.mAppend.Observe(time.Since(t0))
	return lsn, nil
}

// poisonLocked records the first fatal write-path error. Caller holds l.mu.
func (l *Log) poisonLocked(err error) {
	if l.poison == nil {
		l.poison = err
		l.cFaults.Inc()
	}
}

// Poisoned returns the error that poisoned the log, nil when healthy.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poison
}

// syncLocked fsyncs the active segment. A failed fsync poisons the log: on
// Linux the kernel may mark the dirty pages clean without writing them, so
// nothing appended since the last successful fsync can be trusted until a
// fresh checkpoint re-establishes the durable floor. Caller holds l.mu.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		err = fmt.Errorf("wal: fsync: %w", err)
		l.poisonLocked(err)
		return err
	}
	l.dirty = false
	l.lastSyncNano.Store(time.Now().UnixNano())
	l.mFsync.Observe(time.Since(t0))
	return nil
}

// Sync fsyncs any unsynced frames to the device.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poison != nil {
		return l.poison
	}
	return l.syncLocked()
}

// Repair re-establishes an appendable log after a poisoning failure: it
// closes the (possibly dead) active file, truncates any partial frame off
// the active segment, and rotates to a fresh segment so appends resume on a
// file with clean fsync state. Repair is idempotent and safe to retry; the
// log stays poisoned until a repair attempt succeeds end to end.
//
// Repair alone does not restore the durability guarantee: a failed fsync
// may have silently dropped pages from earlier appends, so the caller must
// write a fresh checkpoint of its in-memory state (and compact the suspect
// segments) before trusting the log again.
func (l *Log) Repair() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poison == nil {
		return nil
	}
	if l.f != nil {
		l.f.Close() // may already be closed by a failed rotation
		l.f = nil
	}
	active := l.segs[len(l.segs)-1]
	// Drop whatever a failed write left past the last valid frame —
	// recovery would read it as a torn tail and discard acked frames
	// appended after it.
	if err := l.fs.Truncate(active.path, active.size); err != nil {
		return fmt.Errorf("wal: repair truncate: %w", err)
	}
	// A previous repair attempt may have created the next segment and then
	// failed before activating it; remove the stray file so O_EXCL creation
	// can succeed.
	next := active.index + 1
	l.fs.Remove(segmentPath(l.dir, next))
	if err := l.openSegment(next); err != nil {
		return fmt.Errorf("wal: repair rotate: %w", err)
	}
	if active.firstLSN == 0 {
		// The poisoned segment holds no valid frame: remove it rather than
		// leaving an empty file compaction will never collect.
		if err := l.fs.Remove(active.path); err == nil {
			l.segs = append(l.segs[:len(l.segs)-2], l.segs[len(l.segs)-1])
			syncDir(l.fs, l.dir)
		}
	}
	l.dirty = false
	l.poison = nil
	l.cRepair.Inc()
	l.updateGauges()
	return nil
}

// syncLoop is the background fsync timer of the interval policy.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.Sync() // ErrClosed after Close; nothing to do about other errors here
		case <-l.stopSync:
			return
		}
	}
}

// rotateLocked closes the active segment (fsyncing it unless the policy is
// off) and starts the next one. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if l.opt.Sync != SyncOff {
		if err := l.syncLocked(); err != nil {
			return err
		}
	} else {
		l.dirty = false
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.segs[len(l.segs)-1].index + 1)
}

// CompactBefore removes segments whose every frame has LSN <= lsn — they
// are fully covered by a checkpoint. The active segment is rotated first
// when it, too, is fully covered and non-empty, so a checkpoint of the
// whole log leaves only one empty segment behind.
func (l *Log) CompactBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poison != nil {
		return l.poison // Repair first; rotation needs a live active file
	}
	active := &l.segs[len(l.segs)-1]
	if active.firstLSN != 0 && active.lastLSN <= lsn {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	kept := l.segs[:0]
	removed := false
	for i := range l.segs {
		seg := l.segs[i]
		isActive := i == len(l.segs)-1
		if !isActive && seg.lastLSN <= lsn && seg.firstLSN != 0 {
			if err := l.fs.Remove(seg.path); err != nil {
				return err
			}
			removed = true
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	if removed {
		if err := syncDir(l.fs, l.dir); err != nil {
			return err
		}
	}
	l.updateGauges()
	return nil
}

// Replay streams every valid frame with LSN > after, in order, to fn. It
// reads the segment files directly and must not run concurrently with
// Append; the server replays before attaching the log to the ingest path.
func (l *Log) Replay(after uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	l.mu.Unlock()
	for _, seg := range segs {
		if seg.firstLSN == 0 || seg.lastLSN <= after {
			continue
		}
		f, err := l.fs.Open(seg.path)
		if err != nil {
			return err
		}
		r := newFrameReader(f)
		for {
			lsn, payload, err := r.next()
			if err == io.EOF || (err == nil && payload == nil) {
				break // Open already truncated torn tails; stop defensively
			}
			if err != nil {
				f.Close()
				return err
			}
			if lsn <= after {
				continue
			}
			if err := fn(lsn, payload); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// SkipTo raises LSN assignment so the next Append is numbered at least
// lsn+1; a no-op when the log is already past lsn. The server calls it at
// boot when a checkpoint covers positions beyond the recovered log (the
// compacted-empty state after a clean shutdown, or frames lost to a machine
// crash under a relaxed sync policy) — reusing those numbers would make the
// next recovery skip the reassigned frames as already covered. The retained
// segments must hold no frames: recovery reads a numbering jump inside the
// frame sequence as a torn tail, so the caller compacts the (fully covered)
// log first.
func (l *Log) SkipTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if lsn <= l.lsn {
		return nil
	}
	for _, seg := range l.segs {
		if seg.firstLSN != 0 {
			return fmt.Errorf("wal: cannot skip to lsn %d past live frames (last lsn %d)", lsn, l.lsn)
		}
	}
	l.lsn = lsn
	return nil
}

// LastLSN returns the LSN of the most recently appended (or recovered)
// frame, 0 for an empty log.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// SizeBytes returns the total size of the segment files.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, seg := range l.segs {
		n += seg.size
	}
	return n
}

// Segments returns the number of segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Policy returns the configured sync policy.
func (l *Log) Policy() SyncPolicy { return l.opt.Sync }

// LastSyncAge returns the seconds since the last completed fsync (or since
// Open, before the first).
func (l *Log) LastSyncAge() float64 {
	return time.Since(time.Unix(0, l.lastSyncNano.Load())).Seconds()
}

// updateGauges mirrors segment count and size into the obs registry.
// Caller holds l.mu.
func (l *Log) updateGauges() {
	l.gSegs.Set(float64(len(l.segs)))
	var n int64
	for _, seg := range l.segs {
		n += seg.size
	}
	l.gSize.Set(float64(n))
}

// Close fsyncs (unless the policy is off) and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.poison // a poisoned log closes dirty; surface why
	if l.f != nil {
		if l.opt.Sync != SyncOff && l.dirty && l.poison == nil {
			if serr := l.f.Sync(); serr != nil && err == nil {
				err = serr
			}
			l.lastSyncNano.Store(time.Now().UnixNano())
		}
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	l.mu.Unlock()
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	return err
}

// syncDir fsyncs a directory so entry creations and removals are durable.
func syncDir(fsys fault.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
