package surge_test

import (
	"testing"

	"surge"
)

// pushAllocs primes a detector into steady state — objects cycling over a
// fixed set of locations at a constant inter-arrival, long enough for every
// queue, cell, heap and scratch buffer to reach its final capacity — and
// then measures the amortised heap allocations of one more Push.
func pushAllocs(t *testing.T, alg surge.Algorithm) float64 {
	t.Helper()
	det, err := surge.New(alg, surge.Options{
		Width: 1, Height: 1, Window: 16, Alpha: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	locs := [5][2]float64{{0.5, 0.5}, {3.2, 1.7}, {-2.4, 0.9}, {7.9, -3.3}, {0.6, 0.4}}
	i := 0
	tm := 0.0
	push := func() {
		l := locs[i%len(locs)]
		i++
		tm += 0.125
		if _, err := det.Push(surge.Object{X: l[0], Y: l[1], Weight: 1, Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	// 4096 pushes = 16 full window generations at 128 objects per window.
	for n := 0; n < 4096; n++ {
		push()
	}
	return testing.AllocsPerRun(2048, push)
}

// TestPushZeroAllocCCS and TestPushZeroAllocGAPS are the hot-path
// allocation-regression guards: steady-state Push (window transitions,
// cell updates, bound maintenance, continuous Best) must not touch the
// heap on the single-engine paths. Any new per-object allocation — a
// rebound method value, an interface boxing in a sort, a map rebuild —
// fails these tests rather than silently landing on the hot path.
func TestPushZeroAllocCCS(t *testing.T) {
	if a := pushAllocs(t, surge.CellCSPOT); a != 0 {
		t.Fatalf("CCS Push allocates %v allocs/op in steady state, want 0", a)
	}
}

func TestPushZeroAllocGAPS(t *testing.T) {
	if a := pushAllocs(t, surge.GridApprox); a != 0 {
		t.Fatalf("GAPS Push allocates %v allocs/op in steady state, want 0", a)
	}
}

// TestTopKPushZeroAllocKCCS guards the continuous top-k maintenance path —
// the code the serving layer runs on every ingested object when /v1/topk is
// served from the maintained answer. Steady-state Push (window transitions,
// per-problem cell updates, the lazy heap flush, the greedy re-resolve and
// the result refresh) must not touch the heap, matching the pooling
// contract of the single-region engines.
func TestTopKPushZeroAllocKCCS(t *testing.T) {
	det, err := surge.NewTopK(surge.CellCSPOT, surge.Options{
		Width: 1, Height: 1, Window: 16, Alpha: 0.5,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	locs := [5][2]float64{{0.5, 0.5}, {3.2, 1.7}, {-2.4, 0.9}, {7.9, -3.3}, {0.6, 0.4}}
	i := 0
	tm := 0.0
	push := func() {
		l := locs[i%len(locs)]
		i++
		tm += 0.125
		if _, err := det.Push(surge.Object{X: l[0], Y: l[1], Weight: 1, Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 4096; n++ {
		push()
	}
	if a := testing.AllocsPerRun(2048, push); a != 0 {
		t.Fatalf("kCCS top-k Push allocates %v allocs/op in steady state, want 0", a)
	}
}

// TestTopKPushBatchZeroAlloc guards the feed-then-consume path of PushBatch
// — the windows fill a reused event buffer that the chain then consumes —
// for kCCS, kGAPS and kMGAPS, standalone and as three chains on shared
// windows fed with Feed and Consume, as the server feeds a window group.
func TestTopKPushBatchZeroAlloc(t *testing.T) {
	opt := surge.Options{Width: 1, Height: 1, Window: 16, Alpha: 0.5}
	algs := []surge.Algorithm{surge.CellCSPOT, surge.GridApprox, surge.MultiGrid}
	locs := [5][2]float64{{0.5, 0.5}, {3.2, 1.7}, {-2.4, 0.9}, {7.9, -3.3}, {0.6, 0.4}}
	i := 0
	tm := 0.0
	batch := make([]surge.Object, 4)
	next := func() []surge.Object {
		for j := range batch {
			l := locs[i%len(locs)]
			i++
			tm += 0.125
			batch[j] = surge.Object{X: l[0], Y: l[1], Weight: 1, Time: tm}
		}
		return batch
	}
	steady := func(name string, push func()) {
		t.Helper()
		for n := 0; n < 1024; n++ { // 16 window generations
			push()
		}
		if a := testing.AllocsPerRun(512, push); a != 0 {
			t.Fatalf("%s allocates %v allocs/op in steady state, want 0", name, a)
		}
	}
	for _, alg := range algs {
		det, err := surge.NewTopK(alg, opt, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer det.Close()
		steady(alg.String()+" PushBatch", func() {
			if _, err := det.PushBatch(next()); err != nil {
				t.Fatal(err)
			}
		})
	}
	chains := make([]*surge.TopKDetector, len(algs))
	for j, alg := range algs {
		var err error
		if j == 0 {
			chains[j], err = surge.NewTopK(alg, opt, 3)
		} else {
			o := opt
			o.Width = float64(j + 1)
			chains[j], err = surge.NewTopKOn(chains[0], alg, o, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer chains[j].Close()
	}
	steady("Feed and Consume on shared windows", func() {
		evs, err := chains[0].Feed(next())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chains {
			if _, err := c.Consume(evs, false); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestTopKRestorePushZeroAllocKCCS is TestTopKPushZeroAllocKCCS for a chain
// built by RestoreTopK (in one pass, topk.KCCS.Load) and then fed one span
// of both windows: the restored engine must reach the same allocation-free
// steady state as one that grew event by event.
func TestTopKRestorePushZeroAllocKCCS(t *testing.T) {
	det, err := surge.NewTopK(surge.CellCSPOT, surge.Options{
		Width: 1, Height: 1, Window: 16, Alpha: 0.5,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	locs := [5][2]float64{{0.5, 0.5}, {3.2, 1.7}, {-2.4, 0.9}, {7.9, -3.3}, {0.6, 0.4}}
	i := 0
	tm := 0.0
	push := func() {
		l := locs[i%len(locs)]
		i++
		tm += 0.125
		if _, err := det.Push(surge.Object{X: l[0], Y: l[1], Weight: 1, Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 4096; n++ {
		push()
	}
	ckpt, err := det.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if det, err = surge.RestoreTopK(surge.CellCSPOT, ckpt, 3); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 256; n++ { // Wc + Wp at 8 objects per time unit
		push()
	}
	if a := testing.AllocsPerRun(2048, push); a != 0 {
		t.Fatalf("restored kCCS top-k Push allocates %v allocs/op in steady state, want 0", a)
	}
}

// TestAppendCheckpointAllocsDoNotScale guards the checkpoint writer: walking
// the window queues into the detector's reused scratch and encoding into a
// recycled buffer costs the encoder's fixed set-up (a few dozen allocations,
// growing with the logarithm of the output as its staging buffer doubles),
// never an allocation per live object.
func TestAppendCheckpointAllocsDoNotScale(t *testing.T) {
	const live = 8000
	det, err := surge.New(surge.GridApprox, surge.Options{Width: 1, Height: 1, Window: live, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	for i := 0; i < live; i++ {
		if _, err := det.Push(surge.Object{X: float64(i % 13), Y: float64(i % 7), Weight: 1, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := det.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if det.Live() != live {
		t.Fatalf("live = %d, want %d", det.Live(), live)
	}
	a := testing.AllocsPerRun(10, func() {
		if buf, err = det.AppendCheckpoint(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if a > 64 {
		t.Fatalf("AppendCheckpoint allocates %v times for %d live objects, want a fixed few dozen", a, live)
	}
}
