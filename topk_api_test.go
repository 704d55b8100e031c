package surge_test

import (
	"testing"

	"surge"
)

func TestNewTopKValidation(t *testing.T) {
	if _, err := surge.NewTopK(surge.CellCSPOT, opts(), 0); err == nil {
		t.Fatal("k = 0 must be rejected")
	}
	if _, err := surge.NewTopK(surge.Baseline, opts(), 3); err == nil {
		t.Fatal("Baseline has no top-k variant")
	}
	if _, err := surge.NewTopK(surge.CellCSPOT, surge.Options{}, 3); err == nil {
		t.Fatal("invalid options must be rejected")
	}
}

func TestTopKConstructors(t *testing.T) {
	for _, a := range []surge.Algorithm{surge.CellCSPOT, surge.GridApprox, surge.MultiGrid, surge.Oracle} {
		d, err := surge.NewTopK(a, opts(), 3)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if d.K() != 3 || d.Algorithm() != a {
			t.Fatalf("%v: K=%d alg=%v", a, d.K(), d.Algorithm())
		}
		res := d.BestK()
		if len(res) != 3 {
			t.Fatalf("%v: BestK length %d", a, len(res))
		}
		for i, r := range res {
			if r.Found {
				t.Fatalf("%v: fresh detector rank %d found", a, i)
			}
		}
		want := opts()
		want.PastWindow = want.Window // always explicit
		if got := d.Options(); got != want {
			t.Fatalf("%v: Options() = %+v, want %+v", a, got, want)
		}
		if d.Live() != 0 {
			t.Fatalf("%v: fresh detector Live() = %d", a, d.Live())
		}
		if _, err := d.PushBatch(randomObjects(7, 20, 5)); err != nil {
			t.Fatal(err)
		}
		if d.Live() != 20 {
			t.Fatalf("%v: Live() = %d after 20 objects in the window", a, d.Live())
		}
	}

	// A restored detector reports the checkpoint's geometry with the
	// overridden shard layout, and the checkpoint's live set.
	o := opts()
	o.Width, o.Area = 2, &surge.Region{MaxX: 4, MaxY: 4}
	src, err := surge.NewTopK(surge.CellCSPOT, o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.PushBatch(randomObjects(9, 40, 5)); err != nil {
		t.Fatal(err)
	}
	ckpt, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	back, err := surge.RestoreTopKSharded(surge.CellCSPOT, ckpt, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	got := back.Options()
	if got.Width != 2 || got.Area == nil || *got.Area != *o.Area || got.Shards != 3 || got.ShardBlockCols != 1 {
		t.Fatalf("restored Options() = %+v", got)
	}
	if back.Live() != src.Live() || back.Live() != 40 {
		t.Fatalf("restored Live() = %d, source %d", back.Live(), src.Live())
	}
}

// TestTopKExactAgreesWithNaive via the public API.
func TestTopKExactAgreesWithNaive(t *testing.T) {
	k := 3
	kccs, _ := surge.NewTopK(surge.CellCSPOT, opts(), k)
	naive, _ := surge.NewTopK(surge.Oracle, opts(), k)
	for _, o := range randomObjects(21, 400, 5) {
		a, err := kccs.Push(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := naive.Push(o)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			as, bs := a[i].Score, b[i].Score
			if !almost(as, bs) {
				t.Fatalf("t=%v rank %d: kCCS=%v naive=%v", o.Time, i, as, bs)
			}
		}
	}
}

func TestTopKRanksOrdered(t *testing.T) {
	for _, alg := range []surge.Algorithm{surge.CellCSPOT, surge.GridApprox, surge.MultiGrid} {
		d, _ := surge.NewTopK(alg, opts(), 4)
		var last []surge.Result
		for _, o := range randomObjects(31, 500, 5) {
			res, err := d.Push(o)
			if err != nil {
				t.Fatal(err)
			}
			last = res
		}
		for i := 1; i < len(last); i++ {
			if last[i].Found && last[i].Score > last[i-1].Score+1e-9 {
				t.Fatalf("%v: ranks out of order: %v then %v", alg, last[i-1].Score, last[i].Score)
			}
		}
	}
}

func TestTopKAdvance(t *testing.T) {
	d, _ := surge.NewTopK(surge.CellCSPOT, opts(), 2)
	if _, err := d.Push(surge.Object{X: 1, Y: 1, Weight: 5, Time: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Push(surge.Object{X: 20, Y: 20, Weight: 3, Time: 1}); err != nil {
		t.Fatal(err)
	}
	res := d.BestK()
	if !res[0].Found || !res[1].Found {
		t.Fatalf("two separated objects must fill two ranks: %+v", res)
	}
	if res[0].Score < res[1].Score {
		t.Fatal("rank order violated")
	}
	res, err := d.AdvanceTo(1e6)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Found || res[1].Found {
		t.Fatalf("expired content still ranked: %+v", res)
	}
}

func TestTopKStats(t *testing.T) {
	d, _ := surge.NewTopK(surge.CellCSPOT, opts(), 2)
	for _, o := range randomObjects(41, 200, 4) {
		if _, err := d.Push(o); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().Events == 0 {
		t.Fatal("stats not recorded")
	}
}
