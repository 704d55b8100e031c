package surge_test

import (
	"math"
	"testing"

	"surge"
)

func pushChunks(t *testing.T, det *surge.Detector, objs []surge.Object, chunk int) surge.Result {
	t.Helper()
	var res surge.Result
	for lo := 0; lo < len(objs); lo += chunk {
		hi := min(lo+chunk, len(objs))
		var err error
		res, err = det.PushBatch(objs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// TestRestoreHonorsCheckpointedShards: a checkpoint written by a sharded
// detector restores into a sharded pipeline of the same shape rather than
// a single engine.
func TestRestoreHonorsCheckpointedShards(t *testing.T) {
	o := opts()
	o.Shards = 3
	det, err := surge.New(surge.CellCSPOT, o)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	pushChunks(t, det, randomObjects(121, 400, 6), 64)
	data, err := det.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := surge.Restore(surge.CellCSPOT, data)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Shards() != 3 {
		t.Fatalf("restored into %d shards, want the checkpointed 3", restored.Shards())
	}
	a, b := det.Best(), restored.Best()
	if a.Found != b.Found || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
		t.Fatalf("restored best %+v != original %+v", b, a)
	}
}

// TestRestoreShardedCrossCount is the cross-count equivalence guarantee:
// one checkpoint, written at shard count 3, restored into 1, 2 and 4
// shards — every restored detector reports bitwise-identical best scores
// to the original as all four continue the same stream.
func TestRestoreShardedCrossCount(t *testing.T) {
	const chunk = 64
	objs := randomObjects(131, 900, 6)
	o := opts()
	o.Shards = 3
	orig, err := surge.New(surge.CellCSPOT, o)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	pushChunks(t, orig, objs[:600], chunk)
	data, err := orig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	dets := map[string]*surge.Detector{"orig(3)": orig}
	for _, tc := range []struct {
		name            string
		shards, blkCols int
	}{
		{"single", 1, 0},
		{"2-shard", 2, 0},
		{"4-shard/1-col-blocks", 4, 1},
	} {
		d, err := surge.RestoreSharded(surge.CellCSPOT, data, tc.shards, tc.blkCols)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		defer d.Close()
		if want := max(tc.shards, 1); d.Shards() != want {
			t.Fatalf("%s: restored into %d shards, want %d", tc.name, d.Shards(), want)
		}
		dets[tc.name] = d
	}

	// All detectors must agree now and after every further batch.
	check := func(stage string) {
		ref := orig.Best()
		for name, d := range dets {
			got := d.Best()
			if got.Found != ref.Found || math.Float64bits(got.Score) != math.Float64bits(ref.Score) {
				t.Fatalf("%s: %s best %+v != original %+v", stage, name, got, ref)
			}
		}
	}
	check("after restore")
	for lo := 600; lo < len(objs); lo += chunk {
		hi := min(lo+chunk, len(objs))
		for name, d := range dets {
			if _, err := d.PushBatch(objs[lo:hi]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		check("resumed stream")
	}
	// The restored live sets match too.
	for name, d := range dets {
		if d.Live() != orig.Live() || d.Now() != orig.Now() {
			t.Fatalf("%s: live/clock %d/%v != original %d/%v",
				name, d.Live(), d.Now(), orig.Live(), orig.Now())
		}
	}
}

// TestRestoreTopK rebuilds a top-k detector from a single-region
// checkpoint: rank-1 must match the source detector's best score.
func TestRestoreTopK(t *testing.T) {
	o := opts()
	o.Shards = 2
	det, err := surge.New(surge.CellCSPOT, o)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	pushChunks(t, det, randomObjects(141, 500, 4), 64)
	data, err := det.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tk, err := surge.RestoreTopK(surge.CellCSPOT, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tk.K() != 3 {
		t.Fatalf("k = %d, want 3", tk.K())
	}
	results := tk.BestK()
	best := det.Best()
	if len(results) != 3 {
		t.Fatalf("got %d slots, want 3", len(results))
	}
	if results[0].Found != best.Found || (best.Found && !almost(results[0].Score, best.Score)) {
		t.Fatalf("restored top-1 %+v != source best %+v", results[0], best)
	}
	// Ranks are non-increasing.
	for i := 1; i < len(results); i++ {
		if results[i].Found && results[i].Score > results[i-1].Score+1e-9 {
			t.Fatalf("rank %d score %v above rank %d score %v", i+1, results[i].Score, i, results[i-1].Score)
		}
	}
	if _, err := surge.RestoreTopK(surge.CellCSPOT, data, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := surge.RestoreTopK(surge.CellCSPOT, []byte("junk"), 3); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}
