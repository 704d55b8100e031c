package surge_test

import (
	"math"
	"testing"

	"surge"
)

// bitEqualTopK asserts two top-k answers report bitwise-identical scores
// and found flags at every rank. Regions are canonical up to equal-score
// anchor ties (the same caveat as the sharded single-region pipeline), so
// they are checked for query shape rather than exact geometry.
func bitEqualTopK(t *testing.T, label string, a, b []surge.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: rank counts %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Found != b[i].Found ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			t.Fatalf("%s rank %d: %+v != %+v", label, i, a[i], b[i])
		}
	}
}

// copyResults snapshots a reused result slice.
func copyResults(res []surge.Result) []surge.Result {
	return append([]surge.Result(nil), res...)
}

// TestTopKContinuousEqualsReplay is the continuous-vs-replay equivalence
// guarantee behind O(1) top-k serving: at any point of a randomized stream,
// a continuously maintained top-k detector reports bitwise the same scores
// as replaying a checkpoint of the live windows into a fresh detector
// (surge.RestoreTopK) — for kCCS, kGAPS and kMGAPS — including across a
// snapshot→restore cycle of the maintained detector itself.
func TestTopKContinuousEqualsReplay(t *testing.T) {
	const k = 4
	for _, alg := range []surge.Algorithm{surge.CellCSPOT, surge.GridApprox, surge.MultiGrid} {
		maintained, err := surge.NewTopK(alg, opts(), k)
		if err != nil {
			t.Fatal(err)
		}
		det, err := surge.New(surge.CellCSPOT, opts()) // checkpoint source
		if err != nil {
			t.Fatal(err)
		}
		objs := randomObjects(271, 900, 5)
		for n, o := range objs {
			cont, err := maintained.Push(o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := det.Push(o); err != nil {
				t.Fatal(err)
			}
			if n%113 != 0 && n != len(objs)-1 {
				continue
			}
			ckpt, err := det.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := surge.RestoreTopK(alg, ckpt, k)
			if err != nil {
				t.Fatal(err)
			}
			bitEqualTopK(t, alg.String()+" continuous vs replay", cont, replayed.BestK())

			// The maintained detector's own checkpoint must resume to the
			// same answer too (snapshot→restore cycle).
			own, err := maintained.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := surge.RestoreTopK(alg, own, k)
			if err != nil {
				t.Fatal(err)
			}
			bitEqualTopK(t, alg.String()+" snapshot/restore", cont, resumed.BestK())
		}
		det.Close()
	}
}

// TestTopKSnapshotRestoreResume continues the stream after a
// snapshot→restore cycle and checks the resumed maintained detector stays
// bitwise equal to the uninterrupted one.
func TestTopKSnapshotRestoreResume(t *testing.T) {
	const k = 3
	for _, alg := range []surge.Algorithm{surge.CellCSPOT, surge.GridApprox, surge.MultiGrid} {
		orig, err := surge.NewTopK(alg, opts(), k)
		if err != nil {
			t.Fatal(err)
		}
		objs := randomObjects(83, 800, 5)
		cut := 500
		for _, o := range objs[:cut] {
			if _, err := orig.Push(o); err != nil {
				t.Fatal(err)
			}
		}
		ckpt, err := orig.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := surge.RestoreTopK(alg, ckpt, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs[cut:] {
			a, err := orig.Push(o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := resumed.Push(o)
			if err != nil {
				t.Fatal(err)
			}
			bitEqualTopK(t, alg.String()+" resumed", a, b)
		}
	}
}

// TestTopKResultsBufferReuse documents the query methods' buffer-reuse
// contract: the returned slice is overwritten by the next call.
func TestTopKResultsBufferReuse(t *testing.T) {
	d, err := surge.NewTopK(surge.CellCSPOT, opts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := d.Push(surge.Object{X: 1, Y: 1, Weight: 5, Time: 0})
	if err != nil {
		t.Fatal(err)
	}
	saved := copyResults(res1)
	res2, err := d.Push(surge.Object{X: 30, Y: 30, Weight: 50, Time: 1})
	if err != nil {
		t.Fatal(err)
	}
	if &res1[0] != &res2[0] {
		t.Fatal("query methods must reuse the result buffer")
	}
	if saved[0].Score == res2[0].Score {
		t.Fatal("weak test: the second push should have changed rank 0")
	}
}
