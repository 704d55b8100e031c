package surge

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"surge/internal/core"
)

// refCheckpoint is the checkpoint as it was written while the detectors kept
// their own live-object map: the live objects of the stream pushed so far,
// collected in no particular order and sorted by (Time, Seq, X, Y). Liveness
// is recomputed from the stream itself, independently of the window engine.
func refCheckpoint(t *testing.T, alg Algorithm, now float64, cfg core.Config, counted bool, opt checkpointOptions, pushed []Object) []byte {
	t.Helper()
	var live []checkpointObject
	for i, o := range pushed {
		alive := o.Time+cfg.WC+cfg.WP > now
		if counted {
			alive = i >= len(pushed)-int(cfg.WC+cfg.WP)
		}
		if alive {
			live = append(live, checkpointObject{X: o.X, Y: o.Y, Weight: o.Weight, Time: o.Time, Seq: uint64(i + 1)})
		}
	}
	rand.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	slices.SortFunc(live, func(a, b checkpointObject) int {
		switch {
		case a.Time != b.Time:
			return cmp.Compare(a.Time, b.Time)
		case a.Seq != b.Seq:
			return cmp.Compare(a.Seq, b.Seq)
		case a.X != b.X:
			return cmp.Compare(a.X, b.X)
		default:
			return cmp.Compare(a.Y, b.Y)
		}
	})
	data, err := appendEnvelope(nil, alg, now, cfg, counted, opt, live)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// ckptSubject drives either detector kind through the same script.
type ckptSubject struct {
	push    func([]Object) error
	advance func(float64) error
	now     func() float64
	ckpt    func() ([]byte, error)
	ref     func(pushed []Object) []byte
	close   func() error
}

func detectorSubject(t *testing.T, d *Detector) ckptSubject {
	return ckptSubject{
		push:    func(objs []Object) error { _, err := d.PushBatch(objs); return err },
		advance: func(tm float64) error { _, err := d.AdvanceTo(tm); return err },
		now:     d.Now,
		ckpt:    d.Checkpoint,
		ref: func(pushed []Object) []byte {
			return refCheckpoint(t, d.alg, d.Now(), d.cfg, d.counted,
				checkpointOptions{AG2Gamma: d.ag2Gamma, Shards: d.shards, ShardBlockCols: d.blkCols}, pushed)
		},
		close: d.Close,
	}
}

func topkSubject(t *testing.T, d *TopKDetector) ckptSubject {
	return ckptSubject{
		push:    func(objs []Object) error { _, err := d.PushBatch(objs); return err },
		advance: func(tm float64) error { _, err := d.AdvanceTo(tm); return err },
		now:     d.Now,
		ckpt:    d.Checkpoint,
		ref: func(pushed []Object) []byte {
			return refCheckpoint(t, d.alg, d.Now(), d.cfg, d.counted,
				checkpointOptions{Shards: d.shards, ShardBlockCols: d.blkCols}, pushed)
		},
		close: d.Close,
	}
}

// tiedStream is a stream in which most arrivals share their predecessor's
// timestamp — what the serving layer's clamp policy produces — at locations
// that are not in (x, y) order, so any order other than arrival shows.
func tiedStream(seed uint64, n int, from float64) []Object {
	rng := rand.New(rand.NewPCG(seed, 3))
	objs := make([]Object, n)
	tm := from
	for i := range objs {
		if rng.IntN(3) == 0 {
			tm += rng.ExpFloat64() * 2
		}
		objs[i] = Object{X: rng.Float64() * 6, Y: rng.Float64() * 6, Weight: 1 + rng.Float64()*9, Time: tm}
	}
	return objs
}

// TestCheckpointBytesMatchSortedLiveSet: walking the window queues writes
// byte for byte the checkpoint the sorted live-object map wrote, for time and
// count windows, sharded and not, both detector kinds, and again on a
// detector rebuilt from such a checkpoint (whose arrival ranks restart).
func TestCheckpointBytesMatchSortedLiveSet(t *testing.T) {
	for _, counted := range []bool{false, true} {
		for _, shards := range []int{0, 2} {
			for _, topk := range []bool{false, true} {
				t.Run(fmt.Sprintf("count=%v/shards=%d/topk=%v", counted, shards, topk), func(t *testing.T) {
					opt := Options{Width: 1, Height: 1, Window: 40, PastWindow: 60, Alpha: 0.5, CountWindows: counted, Shards: shards}
					build := func() ckptSubject {
						if topk {
							d, err := NewTopK(GridApprox, opt, 3)
							if err != nil {
								t.Fatal(err)
							}
							return topkSubject(t, d)
						}
						d, err := New(CellCSPOT, opt)
						if err != nil {
							t.Fatal(err)
						}
						return detectorSubject(t, d)
					}
					restore := func(data []byte) ckptSubject {
						if topk {
							d, err := RestoreTopK(GridApprox, data, 3)
							if err != nil {
								t.Fatal(err)
							}
							return topkSubject(t, d)
						}
						d, err := Restore(CellCSPOT, data)
						if err != nil {
							t.Fatal(err)
						}
						return detectorSubject(t, d)
					}

					// run feeds more of the stream in uneven batches, checking
					// the checkpoint bytes after each; pushed is everything the
					// subject was ever fed, in order.
					run := func(s ckptSubject, pushed []Object, seed uint64) ([]Object, []byte) {
						var data []byte
						more := tiedStream(seed, 700, max(s.now(), 0))
						for lo, step := 0, 0; lo < len(more); step++ {
							hi := min(lo+[]int{1, 37, 120, 5}[step%4], len(more))
							if err := s.push(more[lo:hi]); err != nil {
								t.Fatal(err)
							}
							pushed = append(pushed, more[lo:hi]...)
							lo = hi
							if step%3 == 2 {
								if err := s.advance(s.now() + 7); err != nil {
									t.Fatal(err)
								}
								more = shiftFrom(more, lo, 7)
							}
							var err error
							if data, err = s.ckpt(); err != nil {
								t.Fatal(err)
							}
							if want := s.ref(pushed); !bytes.Equal(data, want) {
								t.Fatalf("after %d objects: checkpoint (%d bytes) differs from the sorted-live-set reference (%d bytes)", len(pushed), len(data), len(want))
							}
						}
						return pushed, data
					}

					s := build()
					_, data := run(s, nil, 8)
					if err := s.close(); err != nil {
						t.Fatal(err)
					}
					env, _, err := decodeCheckpoint(data, KeepShards, KeepShards)
					if err != nil {
						t.Fatal(err)
					}
					if len(env.Objects) < 50 {
						t.Fatalf("only %d live objects at the restore point", len(env.Objects))
					}
					// The restored detector was fed exactly the checkpointed
					// objects, so those are its arrivals 1..n.
					replayed := make([]Object, len(env.Objects))
					for i, o := range env.Objects {
						replayed[i] = Object{X: o.X, Y: o.Y, Weight: o.Weight, Time: o.Time}
					}
					r := restore(data)
					defer r.close()
					if again, err := r.ckpt(); err != nil || !bytes.Equal(again, r.ref(replayed)) {
						t.Fatalf("checkpoint of the freshly restored detector differs from the reference (err %v)", err)
					}
					run(r, replayed, 9)
				})
			}
		}
	}
}

// shiftFrom moves the not yet pushed tail of a stream later by dt, keeping
// it in order behind a clock that AdvanceTo moved.
func shiftFrom(objs []Object, from int, dt float64) []Object {
	for i := from; i < len(objs); i++ {
		objs[i].Time += dt
	}
	return objs
}
