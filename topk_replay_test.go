package surge_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"surge"
)

// TestTopKReplayEqualsPushBatch feeds one stream to two top-k detectors of
// the same shape, one through PushBatch and one through Replay, and checks
// that every read of the Replay twin — which first catches its chain up on
// the held-back objects still live — reports bitwise the PushBatch twin's
// scores, and that both write byte-identical checkpoints whether or not the
// Replay twin is lagging. The stream spans well over five windows, so most
// replayed objects expire before a read ever shows them to the chain. The
// shared arm builds the Replay twin on windows it shares with a chain of
// another algorithm and size (NewTopKOn) and feeds both with Feed and
// Consume: holding back, reading, and consuming a live batch while it lags.
func TestTopKReplayEqualsPushBatch(t *testing.T) {
	const k = 3
	windows := []struct {
		name string
		opt  surge.Options
	}{
		{"time", surge.Options{Width: 1, Height: 1, Window: 40, Alpha: 0.5}},
		{"count", surge.Options{Width: 1, Height: 1, Window: 60, PastWindow: 40, Alpha: 0.5, CountWindows: true}},
	}
	for _, alg := range []surge.Algorithm{surge.CellCSPOT, surge.GridApprox, surge.MultiGrid} {
		for _, w := range windows {
			for _, shards := range []int{1, 3} {
				for _, shared := range []bool{false, true} {
					opt := w.opt
					opt.Shards = shards
					name := fmt.Sprintf("%v/%s/shards=%d", alg, w.name, shards)
					if shared {
						name = "shared/" + name
					}
					t.Run(name, func(t *testing.T) {
						testReplayTwin(t, alg, opt, k, shared)
					})
				}
			}
		}
	}
}

func testReplayTwin(t *testing.T, alg surge.Algorithm, opt surge.Options, k int, shared bool) {
	twin, err := surge.NewTopK(alg, opt, k)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	rep, err := surge.NewTopK(alg, opt, k)
	if err != nil {
		t.Fatal(err)
	}
	// replay holds a batch back from rep's chain, and live shows it a batch;
	// on shared windows both are one Feed that the sibling consumes too.
	replay, live := rep.Replay, rep.PushBatch
	if shared {
		rep.Close()
		sibOpt := opt
		sibOpt.Width, sibOpt.Shards = 1.5, 1
		sib, err := surge.NewTopK(surge.MultiGrid, sibOpt, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer sib.Close()
		if rep, err = surge.NewTopKOn(sib, alg, opt, k); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.PushBatch(nil); err == nil {
			t.Fatal("PushBatch on shared windows succeeded")
		}
		consume := func(objs []surge.Object, replay bool) ([]surge.Result, error) {
			evs, err := sib.Feed(objs)
			if _, cerr := sib.Consume(evs, replay); cerr != nil {
				t.Fatal(cerr)
			}
			res, cerr := rep.Consume(evs, replay)
			if err != nil {
				return nil, err
			}
			return res, cerr
		}
		replay = func(objs []surge.Object) error {
			_, err := consume(objs, true)
			return err
		}
		live = func(objs []surge.Object) ([]surge.Result, error) { return consume(objs, false) }
	}
	defer rep.Close()

	objs := randomObjects(907, 1200, 5) // ~1200 time units: 15 time windows, 12 count windows
	rng := rand.New(rand.NewPCG(3, 5))
	var want []surge.Result
	checkpoints := func(label string) {
		t.Helper()
		a, err := twin.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: Replay twin's checkpoint differs from PushBatch twin's", label)
		}
	}
	state := func(label string) {
		t.Helper()
		if rep.Now() != twin.Now() || rep.Live() != twin.Live() {
			t.Fatalf("%s: now %v live %d, PushBatch twin now %v live %d",
				label, rep.Now(), rep.Live(), twin.Now(), twin.Live())
		}
	}
	outOfOrderDone, advanced := false, false
	for i, batch := 0, 0; i < len(objs); batch++ {
		n := min(1+rng.IntN(40), len(objs)-i)
		chunk := append([]surge.Object(nil), objs[i:i+n]...)
		i += n
		label := fmt.Sprintf("batch %d (object %d)", batch, i)

		if !outOfOrderDone && i > len(objs)/2 && n > 4 {
			// An out-of-order object mid-batch: both stop at it, keep the
			// objects before it, and report the same error.
			outOfOrderDone = true
			chunk[n/2].Time = chunk[0].Time - 1
			res, werr := twin.PushBatch(chunk)
			if res != nil || werr == nil {
				t.Fatalf("%s: PushBatch accepted an out-of-order object", label)
			}
			rerr := replay(chunk)
			if rerr == nil || rerr.Error() != werr.Error() {
				t.Fatalf("%s: Replay error %v, PushBatch error %v", label, rerr, werr)
			}
			state(label + " after the out-of-order object")
			checkpoints(label + " after the out-of-order object")
			continue
		}

		res, err := twin.PushBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		want = copyResults(res)
		if shared && batch%5 == 3 && i >= len(objs)/3 {
			// A live batch while lagging: the chain drops the held-back
			// objects' events, then catches up on those still live.
			got, err := live(chunk)
			if err != nil {
				t.Fatal(err)
			}
			bitEqualTopK(t, label+" live Consume", got, want)
			state(label + " after a live Consume")
			advanced = true
			continue
		}
		if err := replay(chunk); err != nil {
			t.Fatal(err)
		}
		state(label)
		if batch%7 == 3 {
			checkpoints(label + " while lagging")
		}
		if i < len(objs)/3 {
			continue // a long stretch with no read: the chain lags far behind
		}
		switch batch % 5 {
		case 1:
			// A read mid-stream catches the chain up; the next Replay lags again.
			bitEqualTopK(t, label+" BestK", rep.BestK(), want)
			checkpoints(label + " after a read")
		case 3:
			// AdvanceTo right after Replay: catch up, then advance as the twin.
			// (Shared windows advance only by Feed; see the live Consume.)
			adv := objs[i-1].Time + 0.5*rng.Float64()
			if i < len(objs) {
				adv = min(adv, objs[i].Time)
			}
			want, err = twin.AdvanceTo(adv)
			if err != nil {
				t.Fatal(err)
			}
			want = copyResults(want)
			got, err := rep.AdvanceTo(adv)
			if err != nil {
				t.Fatal(err)
			}
			bitEqualTopK(t, label+" AdvanceTo", got, want)
			state(label + " after AdvanceTo")
			advanced = true
		}
	}
	if !outOfOrderDone || !advanced {
		t.Fatal("the schedule skipped the out-of-order batch or the AdvanceTo (live Consume); the test lost its coverage")
	}
	checkpoints("end of stream, lagging")
	bitEqualTopK(t, "end of stream BestK", rep.BestK(), want)

	// The chain never saw the objects that expired while it lagged.
	if got, all := rep.Stats().Events, twin.Stats().Events; got == 0 || got >= all {
		t.Fatalf("Replay twin's chain processed %d events, PushBatch twin's %d: want fewer, but some", got, all)
	}

	// Replay leaves the detector fully usable: a live Push after it answers
	// as the twin does, and Close captures the caught-up answer.
	tm := objs[len(objs)-1].Time
	next := func() surge.Object {
		tm++
		return surge.Object{X: 2 + rng.Float64(), Y: 2 + rng.Float64(), Weight: 5, Time: tm}
	}
	o := next()
	if _, err := twin.PushBatch([]surge.Object{o}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]surge.Object{o}); err != nil {
		t.Fatal(err)
	}
	o = next()
	want, err = twin.Push(o)
	if err != nil {
		t.Fatal(err)
	}
	var got []surge.Result
	if shared {
		got, err = live([]surge.Object{o})
	} else {
		got, err = rep.Push(o)
	}
	if err != nil {
		t.Fatal(err)
	}
	bitEqualTopK(t, "Push after Replay", got, want)
	o = next()
	if _, err := twin.PushBatch([]surge.Object{o}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]surge.Object{o}); err != nil {
		t.Fatal(err)
	}
	want = copyResults(twin.BestK())
	if shared {
		// A chain on shared windows does not read them at Close.
		bitEqualTopK(t, "before Close", rep.BestK(), want)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Replay([]surge.Object{next()}); err != surge.ErrClosed {
		t.Fatalf("Replay after Close: %v, want ErrClosed", err)
	}
	bitEqualTopK(t, "after Close", rep.BestK(), want)
}
