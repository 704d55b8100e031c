package surge

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"surge/internal/core"
	"surge/internal/window"
)

// Checkpointing: a Detector's logical state is fully determined by the
// query options, the stream clock and the set of live objects with their
// original creation times. A checkpoint therefore serialises exactly that;
// restore replays them into a fresh detector's windows and builds its
// engines from them (a kCCS chain in one pass, core.TopKLoader), reaching
// the identical logical state (identical scores; internal caches rebuild
// lazily). The live set is read off the window engine, whose queues hold
// it in arrival order; the detectors track nothing beside it.
//
// This keeps the format engine-independent: a checkpoint written by a
// CellCSPOT detector can be restored into a GridApprox detector, and it
// survives any change to engine internals.

// checkpointVersion guards the wire format.
const checkpointVersion = 1

type checkpointEnvelope struct {
	Version   int
	Algorithm int32
	Options   checkpointOptions
	Clock     float64
	Objects   []checkpointObject
}

type checkpointOptions struct {
	Width, Height      float64
	Window, PastWindow float64
	Alpha              float64
	HasArea            bool
	Area               Region
	AG2Gamma           float64
	CountWindows       bool
	// Shards and ShardBlockCols record the writing detector's pipeline
	// shape so Restore rebuilds it. gob decodes by field name, so
	// checkpoints written before these fields existed restore with the
	// zero values — the single-engine path, their original behaviour.
	Shards         int
	ShardBlockCols int
}

type checkpointObject struct {
	X, Y, Weight, Time float64
	// Seq is the object's arrival rank (the window engine's monotone ID).
	// Objects are written in Seq order and replayed as written, so
	// within-tie arrival order — and with it the last-bit rounding of the
	// engines' score folds — survives a restore. Timestamp ties are routine
	// under the serving layer's Clamp policy, which rewrites every late
	// arrival to the current stream time. Checkpoints written before this
	// field existed decode with Seq zero (gob matches by name) and carry
	// their ties in the old (x, y) order.
	Seq uint64
}

// buildCheckpointObjects collects the live objects into scratch in the
// canonical (time, arrival) replay order, which is the order the window
// queues hold them in. The scratch is reused across calls so periodic
// checkpointing does not reallocate the object list.
func buildCheckpointObjects(scratch []checkpointObject, win window.Source) []checkpointObject {
	scratch = scratch[:0]
	win.Each(0, func(o core.Object, _ bool) {
		scratch = append(scratch, checkpointObject{X: o.X, Y: o.Y, Weight: o.Weight, Time: o.T, Seq: o.ID})
	})
	return scratch
}

// sliceWriter appends gob output to a caller-provided byte slice, so a
// serving layer can checkpoint into a pooled buffer instead of allocating a
// fresh snapshot per request.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func encodeCheckpoint(dst []byte, env *checkpointEnvelope) ([]byte, error) {
	w := sliceWriter{buf: dst}
	if err := gob.NewEncoder(&w).Encode(env); err != nil {
		return nil, fmt.Errorf("surge: encoding checkpoint: %w", err)
	}
	return w.buf, nil
}

// appendEnvelope assembles and encodes the one checkpoint envelope shape
// both detector kinds write: the caller supplies the options (already
// carrying any pipeline-shape fields) and the ordered object list, and the
// geometry common to every detector is filled in from cfg here so the two
// writers cannot drift apart.
func appendEnvelope(dst []byte, alg Algorithm, clock float64, cfg core.Config, counted bool, opt checkpointOptions, objs []checkpointObject) ([]byte, error) {
	opt.Width = cfg.Width
	opt.Height = cfg.Height
	opt.Window = cfg.WC
	opt.PastWindow = cfg.WP
	opt.Alpha = cfg.Alpha
	opt.CountWindows = counted
	if cfg.Area != nil {
		opt.HasArea = true
		opt.Area = Region{
			MinX: cfg.Area.MinX, MinY: cfg.Area.MinY,
			MaxX: cfg.Area.MaxX, MaxY: cfg.Area.MaxY,
		}
	}
	env := checkpointEnvelope{
		Version:   checkpointVersion,
		Algorithm: int32(alg),
		Clock:     clock,
		Options:   opt,
		Objects:   objs,
	}
	return encodeCheckpoint(dst, &env)
}

// Checkpoint serialises the detector's logical state: options, stream clock
// and live objects. The result can be persisted and later passed to
// Restore.
func (d *Detector) Checkpoint() ([]byte, error) { return d.AppendCheckpoint(nil) }

// AppendCheckpoint appends the checkpoint to dst (which may be nil) and
// returns the extended slice. Passing a recycled buffer keeps periodic
// checkpointing — and the serving layer's replay-mode top-k queries — from
// allocating a fresh snapshot every time; the detector's internal object
// scratch is reused across calls too.
func (d *Detector) AppendCheckpoint(dst []byte) ([]byte, error) {
	if d.served != nil {
		return d.served.AppendCheckpoint(dst)
	}
	d.ckptObjs = buildCheckpointObjects(d.ckptObjs, d.win)
	return appendEnvelope(dst, d.alg, d.win.Now(), d.cfg, d.counted, checkpointOptions{
		AG2Gamma:       d.ag2Gamma,
		Shards:         d.shards,
		ShardBlockCols: d.blkCols,
	}, d.ckptObjs)
}

// Checkpoint serialises a top-k detector's logical state in the same
// engine-independent format as Detector.Checkpoint, so RestoreTopK (or
// Restore) resumes it.
func (d *TopKDetector) Checkpoint() ([]byte, error) { return d.AppendCheckpoint(nil) }

// AppendCheckpoint appends the checkpoint to dst; see
// Detector.AppendCheckpoint.
func (d *TopKDetector) AppendCheckpoint(dst []byte) ([]byte, error) {
	d.ckptObjs = buildCheckpointObjects(d.ckptObjs, d.st.win)
	// Top-k detection has no aG2 variant, so AG2Gamma stays zero.
	return appendEnvelope(dst, d.alg, d.st.win.Now(), d.cfg, d.counted, checkpointOptions{
		Shards:         d.shards,
		ShardBlockCols: d.blkCols,
	}, d.ckptObjs)
}

// KeepShards passes the checkpoint's recorded shard configuration through
// to RestoreSharded unchanged.
const KeepShards = -1

// Restore rebuilds a detector from a checkpoint, running the given
// algorithm (which need not be the one that wrote the checkpoint). The
// restored detector reports the same scores and continues the stream from
// the checkpointed clock. The pipeline shape recorded in the checkpoint is
// honoured: a checkpoint written by a sharded detector restores into a
// sharded pipeline with the same shard count (use RestoreSharded to
// override it).
//
// Scores are bit-identical to the writing detector: objects replay in
// their original arrival order (the checkpoint records each object's
// arrival rank, so even objects sharing a timestamp — routine under the
// serving layer's Clamp policy — keep their within-tie order and with it
// the last-bit rounding of the engines' score folds). Checkpoints written
// before the arrival rank existed replay ties in (x, y) order, which can
// differ from the original stream in the last bit.
func Restore(alg Algorithm, data []byte) (*Detector, error) {
	return RestoreSharded(alg, data, KeepShards, KeepShards)
}

// RestoreSharded is Restore with an explicit pipeline shape: shards and
// blockCols replace the checkpointed Options.Shards and
// Options.ShardBlockCols (KeepShards keeps the recorded value; 0 or 1
// shards selects the single-engine path). Because a checkpoint is
// engine-independent — the logical state is the live object set — a
// checkpoint written at any shard count restores into any other with
// identical scores.
func RestoreSharded(alg Algorithm, data []byte, shards, blockCols int) (*Detector, error) {
	env, opt, err := decodeCheckpoint(data, shards, blockCols)
	if err != nil {
		return nil, err
	}
	d, err := New(alg, opt)
	if err != nil {
		return nil, err
	}
	objs := make([]Object, len(env.Objects))
	for i, o := range env.Objects {
		objs[i] = Object{X: o.X, Y: o.Y, Weight: o.Weight, Time: o.Time}
	}
	if _, err := d.PushBatch(objs); err != nil {
		d.Close()
		return nil, fmt.Errorf("surge: replaying checkpoint: %w", err)
	}
	if _, err := d.AdvanceTo(env.Clock); err != nil {
		d.Close()
		return nil, fmt.Errorf("surge: advancing restored clock: %w", err)
	}
	return d, nil
}

// RestoreShardedTuned is RestoreSharded; flushEvents is ignored. For
// benchmark/ until its next revision.
func RestoreShardedTuned(alg Algorithm, data []byte, shards, blockCols, flushEvents int) (*Detector, error) {
	return RestoreSharded(alg, data, shards, blockCols)
}

// RestoreTopK rebuilds a top-k detector from a checkpoint written by a
// Detector or a standalone TopKDetector: the live objects are replayed into
// a fresh TopKDetector's windows and its chain is built from them once (in
// one pass for kCCS, see TopKDetector.Replay), so it answers BestK over
// exactly the windows the checkpoint captured, with the scores of an
// event-by-event replay.
// Supported algorithms are those of NewTopK. The pipeline shape recorded in
// the checkpoint is honoured: a checkpoint written by a sharded detector
// restores into a sharded top-k pipeline with the same shard count (use
// RestoreTopKSharded to override it; the restored detector must be Closed to
// stop the shard goroutines).
func RestoreTopK(alg Algorithm, data []byte, k int) (*TopKDetector, error) {
	return RestoreTopKSharded(alg, data, k, KeepShards, KeepShards)
}

// RestoreTopKSharded is RestoreTopK with an explicit pipeline shape: shards
// and blockCols replace the checkpointed Options.Shards and
// Options.ShardBlockCols (KeepShards keeps the recorded value; 0 or 1 shards
// selects the single-engine path). Because a checkpoint is
// engine-independent — the logical state is the live object set — a
// checkpoint written at any shard count restores into any other with the
// same answer (bitwise scores for kCCS, where every shard loads its part).
func RestoreTopKSharded(alg Algorithm, data []byte, k, shards, blockCols int) (*TopKDetector, error) {
	env, opt, err := decodeCheckpoint(data, shards, blockCols)
	if err != nil {
		return nil, err
	}
	d, err := NewTopK(alg, opt, k)
	if err != nil {
		return nil, err
	}
	if err := d.restore(env); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// restore is Replay of the checkpoint, clock included so the past flags are
// final, and one read: the chain is built from the live set in one catch-up.
// The fresh chain holds back every object, from the first (ID 1), so the
// windows' events need no consumer.
func (d *TopKDetector) restore(env checkpointEnvelope) error {
	win := d.st.win
	win.Reserve(len(env.Objects))
	drop := func(core.Event) {}
	for _, o := range env.Objects {
		if _, err := win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, drop); err != nil {
			return fmt.Errorf("surge: replaying checkpoint: %w", err)
		}
	}
	if err := win.Advance(env.Clock, drop); err != nil {
		return fmt.Errorf("surge: advancing restored clock: %w", err)
	}
	if len(env.Objects) > 0 {
		d.lag = 1
	}
	d.catchUp()
	_, err := d.refresh()
	return err
}

// decodeCheckpoint validates the envelope and reconstructs the writing
// detector's Options, with shards and blockCols in place of its pipeline
// shape unless they are KeepShards.
func decodeCheckpoint(data []byte, shards, blockCols int) (checkpointEnvelope, Options, error) {
	var env checkpointEnvelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return env, Options{}, fmt.Errorf("surge: decoding checkpoint: %w", err)
	}
	if env.Version != checkpointVersion {
		return env, Options{}, fmt.Errorf("surge: unsupported checkpoint version %d", env.Version)
	}
	opt := Options{
		Width:          env.Options.Width,
		Height:         env.Options.Height,
		Window:         env.Options.Window,
		PastWindow:     env.Options.PastWindow,
		Alpha:          env.Options.Alpha,
		AG2Gamma:       env.Options.AG2Gamma,
		CountWindows:   env.Options.CountWindows,
		Shards:         env.Options.Shards,
		ShardBlockCols: env.Options.ShardBlockCols,
	}
	if env.Options.HasArea {
		a := env.Options.Area
		opt.Area = &a
	}
	if shards != KeepShards {
		opt.Shards = shards
	}
	if blockCols != KeepShards {
		opt.ShardBlockCols = blockCols
	}
	return env, opt, nil
}
