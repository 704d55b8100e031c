package surge_test

import (
	"errors"
	"testing"

	"surge"
)

// TestErrClosed: Push, PushBatch and AdvanceTo on a closed detector or
// top-k detector return the named ErrClosed on both the single-engine and
// the sharded path, while the query methods keep answering from the state
// captured at Close.
func TestErrClosed(t *testing.T) {
	for _, shards := range []int{1, 3} {
		o := opts()
		o.Shards = shards
		det, err := surge.New(surge.CellCSPOT, o)
		if err != nil {
			t.Fatal(err)
		}
		objs := randomObjects(101, 300, 6)
		if _, err := det.PushBatch(objs); err != nil {
			t.Fatal(err)
		}
		want := det.Best()
		wantStats := det.Stats()
		if err := det.Close(); err != nil {
			t.Fatal(err)
		}

		if _, err := det.Push(surge.Object{X: 1, Y: 1, Weight: 1, Time: 1e9}); !errors.Is(err, surge.ErrClosed) {
			t.Fatalf("shards=%d: Push after Close returned %v, want ErrClosed", shards, err)
		}
		if res, err := det.PushBatch(objs[:1]); !errors.Is(err, surge.ErrClosed) {
			t.Fatalf("shards=%d: PushBatch after Close returned %v, want ErrClosed", shards, err)
		} else if res != want {
			t.Fatalf("shards=%d: PushBatch after Close returned result %+v, want the captured %+v", shards, res, want)
		}
		if _, err := det.AdvanceTo(1e9); !errors.Is(err, surge.ErrClosed) {
			t.Fatalf("shards=%d: AdvanceTo after Close returned %v, want ErrClosed", shards, err)
		}
		if got := det.Best(); got != want {
			t.Fatalf("shards=%d: Best after Close = %+v, want %+v", shards, got, want)
		}
		if got := det.Stats(); got != wantStats {
			t.Fatalf("shards=%d: Stats after Close = %+v, want %+v", shards, got, wantStats)
		}
		if err := det.Close(); err != nil {
			t.Fatalf("shards=%d: second Close: %v", shards, err)
		}
	}

	// The same contract for the top-k detector, the object a server closes
	// at shutdown.
	for _, shards := range []int{1, 3} {
		o := opts()
		o.Shards = shards
		det, err := surge.NewTopK(surge.CellCSPOT, o, 3)
		if err != nil {
			t.Fatal(err)
		}
		objs := randomObjects(101, 300, 6)
		if _, err := det.PushBatch(objs); err != nil {
			t.Fatal(err)
		}
		want := copyResults(det.BestK())
		wantStats := det.Stats()
		if err := det.Close(); err != nil {
			t.Fatal(err)
		}

		if _, err := det.Push(surge.Object{X: 1, Y: 1, Weight: 1, Time: 1e9}); !errors.Is(err, surge.ErrClosed) {
			t.Fatalf("shards=%d: Push after Close returned %v, want ErrClosed", shards, err)
		}
		if _, err := det.PushBatch(objs[:1]); !errors.Is(err, surge.ErrClosed) {
			t.Fatalf("shards=%d: PushBatch after Close returned %v, want ErrClosed", shards, err)
		}
		if _, err := det.AdvanceTo(1e9); !errors.Is(err, surge.ErrClosed) {
			t.Fatalf("shards=%d: AdvanceTo after Close returned %v, want ErrClosed", shards, err)
		}
		topkEqualBitwise(t, "BestK after Close", det.BestK(), want)
		if got := det.Stats(); got != wantStats {
			t.Fatalf("shards=%d: Stats after Close = %+v, want %+v", shards, got, wantStats)
		}
		if err := det.Close(); err != nil {
			t.Fatalf("shards=%d: second Close: %v", shards, err)
		}
	}
}

// TestCheckpointAfterClose: the live-object bookkeeping of a detector and of
// a top-k detector survives Close, so a server can write its shutdown
// checkpoint after rejecting new ingests.
func TestCheckpointAfterClose(t *testing.T) {
	o := opts()
	o.Shards = 2
	det, err := surge.New(surge.CellCSPOT, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.PushBatch(randomObjects(111, 200, 6)); err != nil {
		t.Fatal(err)
	}
	want := det.Best()
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := det.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := surge.Restore(surge.CellCSPOT, data)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.Best(); got.Found != want.Found || !almost(got.Score, want.Score) {
		t.Fatalf("restored-after-Close best %+v != %+v", got, want)
	}

	for _, shards := range []int{1, 3} {
		o.Shards = shards
		td, err := surge.NewTopK(surge.CellCSPOT, o, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := td.PushBatch(randomObjects(111, 200, 6)); err != nil {
			t.Fatal(err)
		}
		want := copyResults(td.BestK())
		if err := td.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := td.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		back, err := surge.RestoreTopK(surge.CellCSPOT, data, 3)
		if err != nil {
			t.Fatal(err)
		}
		topkEqualBitwise(t, "top-k restored after Close", back.BestK(), want)
		back.Close()
	}
}
