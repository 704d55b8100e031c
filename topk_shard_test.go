package surge_test

import (
	"math"
	"testing"

	"surge"
)

// topkEqualBitwise asserts two top-k answers report bitwise-identical
// scores and found flags at every rank (regions are canonical up to
// equal-score anchor ties, as for the single-region sharded pipeline).
func topkEqualBitwise(t *testing.T, label string, got, want []surge.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rank counts %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Found != want[i].Found ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// topkEqualRegions asserts two top-k answers select the same regions at
// every rank (the grid chains' guarantee: identical cells, canonical fold
// scores).
func topkEqualRegions(t *testing.T, label string, got, want []surge.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rank counts %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Found != want[i].Found || got[i].Region != want[i].Region ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// topkShardGeoms is the shard-count spread of the randomized equivalence
// tests; 1 exercises the single-engine fallback of the sharded options.
var topkShardGeoms = []struct{ shards, block int }{
	{1, 0},
	{2, 1}, // worst case: every object replicated, A,B,A striping
	{4, 0}, // default block width
	{7, 2},
}

// TestTopKShardedEqualsSingle pushes the same randomized stream through a
// single-engine and a sharded standalone top-k detector and requires the
// merged cross-shard chain to report the single-engine answer: bitwise for
// kCCS and the naive oracle, same regions (with canonical fold scores) for
// kGAPS and kMGAPS — across shard counts {1, 2, 4, 7}.
func TestTopKShardedEqualsSingle(t *testing.T) {
	const k = 4
	for _, alg := range []surge.Algorithm{surge.CellCSPOT, surge.GridApprox, surge.MultiGrid, surge.Oracle} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			n := 1600
			if alg == surge.Oracle {
				n = 400 // the oracle re-sweeps every query; keep it affordable
			}
			objs := shardStream(1234, n, 10)
			for _, g := range topkShardGeoms {
				o := opts()
				single, err := surge.NewTopK(alg, o, k)
				if err != nil {
					t.Fatal(err)
				}
				o.Shards = g.shards
				o.ShardBlockCols = g.block
				sharded, err := surge.NewTopK(alg, o, k)
				if err != nil {
					t.Fatal(err)
				}
				if got := sharded.Shards(); got != max(g.shards, 1) {
					t.Fatalf("Shards() = %d, want %d", got, g.shards)
				}
				label := alg.String() + " sharded vs single"
				for start := 0; start < len(objs); start += 97 {
					end := min(start+97, len(objs))
					want, err := single.PushBatch(objs[start:end])
					if err != nil {
						t.Fatal(err)
					}
					got, err := sharded.PushBatch(objs[start:end])
					if err != nil {
						t.Fatal(err)
					}
					if alg == surge.GridApprox || alg == surge.MultiGrid {
						topkEqualRegions(t, label, got, want)
					} else {
						topkEqualBitwise(t, label, got, want)
					}
				}
				// Clock advance without arrivals must stay equivalent too.
				tEnd := objs[len(objs)-1].Time + 25
				want, err := single.AdvanceTo(tEnd)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sharded.AdvanceTo(tEnd)
				if err != nil {
					t.Fatal(err)
				}
				if alg == surge.GridApprox || alg == surge.MultiGrid {
					topkEqualRegions(t, label+" AdvanceTo", got, want)
				} else {
					topkEqualBitwise(t, label+" AdvanceTo", got, want)
				}
				// Close captures the final answer.
				final := copyResults(sharded.BestK())
				if err := sharded.Close(); err != nil {
					t.Fatal(err)
				}
				topkEqualBitwise(t, label+" after Close", sharded.BestK(), final)
				if _, err := sharded.Push(objs[0]); err == nil {
					t.Fatal("Push after Close must fail")
				}
			}
		})
	}
}

// TestTopKShardedRestoreCrossCount checkpoints a sharded standalone top-k
// detector and restores it into different shard counts (including the
// single-engine path): every restored detector must answer bitwise the same
// and resume the stream equivalently.
func TestTopKShardedRestoreCrossCount(t *testing.T) {
	const k = 3
	objs := shardStream(777, 1200, 9)
	o := opts()
	o.Shards = 4
	orig, err := surge.NewTopK(surge.CellCSPOT, o, k)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	half := len(objs) / 2
	if _, err := orig.PushBatch(objs[:half]); err != nil {
		t.Fatal(err)
	}
	want := copyResults(orig.BestK())
	ckpt, err := orig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The recorded shape (4 shards) is honoured by default.
	rec, err := surge.RestoreTopK(surge.CellCSPOT, ckpt, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Shards(); got != 4 {
		t.Fatalf("restored Shards() = %d, want recorded 4", got)
	}
	rec.Close()
	for _, shards := range []int{1, 2, 7} {
		restored, err := surge.RestoreTopKSharded(surge.CellCSPOT, ckpt, k, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		topkEqualBitwise(t, "restored", restored.BestK(), want)
		// Resume the stream on the restored detector and a fresh reference.
		ref, err := surge.RestoreTopKSharded(surge.CellCSPOT, ckpt, k, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for start := half; start < len(objs); start += 131 {
			end := min(start+131, len(objs))
			wantRes, err := ref.PushBatch(objs[start:end])
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := restored.PushBatch(objs[start:end])
			if err != nil {
				t.Fatal(err)
			}
			topkEqualBitwise(t, "resumed", gotRes, wantRes)
		}
		restored.Close()
		ref.Close()
	}
}
