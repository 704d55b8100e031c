package window

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"surge/internal/core"
)

// liveRef is the reference live set, maintained from the emitted events the
// way the detectors used to track it beside the window engine.
type liveRef map[uint64]liveEntry

type liveEntry struct {
	obj  core.Object
	past bool
}

func (m liveRef) apply(ev core.Event) {
	switch ev.Kind {
	case core.New:
		m[ev.Obj.ID] = liveEntry{obj: ev.Obj}
	case core.Grown:
		m[ev.Obj.ID] = liveEntry{obj: ev.Obj, past: true}
	case core.Expired:
		delete(m, ev.Obj.ID)
	}
}

// checkEach asserts that Each yields exactly the reference live set, in the
// order a sort by (Time, ID) gives, with past correct.
func checkEach(t *testing.T, src Source, ref liveRef, when string) {
	t.Helper()
	want := make([]liveEntry, 0, len(ref))
	for _, le := range ref {
		want = append(want, le)
	}
	slices.SortFunc(want, func(a, b liveEntry) int {
		if c := cmp.Compare(a.obj.T, b.obj.T); c != 0 {
			return c
		}
		return cmp.Compare(a.obj.ID, b.obj.ID)
	})
	var got []liveEntry
	src.Each(0, func(o core.Object, past bool) { got = append(got, liveEntry{o, past}) })
	if len(got) != src.Live() {
		t.Fatalf("%s: Each yielded %d objects, Live() = %d", when, len(got), src.Live())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Each yielded %d objects, want %d; first difference at %d",
			when, len(got), len(want), firstDiff(got, want))
	}
	// A walk from an ID yields exactly the live suffix from that ID on:
	// from 0, from a middle object, and from one past the newest.
	for _, i := range []int{0, len(want) / 3, len(want)} {
		from := uint64(0)
		if i > 0 {
			from = want[i-1].obj.ID + 1
		}
		var suffix []liveEntry
		src.Each(from, func(o core.Object, past bool) { suffix = append(suffix, liveEntry{o, past}) })
		if !slices.Equal(suffix, want[i:]) {
			t.Fatalf("%s: Each from ID %d yielded %d objects, want %d", when, from, len(suffix), len(want)-i)
		}
	}
}

func firstDiff(a, b []liveEntry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// eachStream is a stream with runs of equal timestamps (what the serving
// layer's clamp policy produces) long enough to push both FIFO queues past
// their compaction threshold (head > 64) many times over.
func eachStream() []core.Object {
	rng := rand.New(rand.NewPCG(5, 9))
	objs := make([]core.Object, 3000)
	tm := 0.0
	for i := range objs {
		if rng.IntN(3) != 0 { // two thirds of the arrivals tie with their predecessor
			tm += rng.ExpFloat64() * 0.05
		}
		objs[i] = core.Object{X: rng.Float64(), Y: rng.Float64(), Weight: 1 + rng.Float64(), T: tm}
	}
	return objs
}

func testEach(t *testing.T, src Source, compacted func() bool) {
	ref := liveRef{}
	emit := ref.apply
	sawCompaction := false
	shift := 0.0 // stream time consumed by the Advance calls
	for i, o := range eachStream() {
		o.T += shift
		if _, err := src.Push(o, emit); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 || i < 200 {
			checkEach(t, src, ref, "after push")
		}
		sawCompaction = sawCompaction || compacted()
		if i%500 == 499 {
			shift += 0.3
			if err := src.Advance(o.T+0.3, emit); err != nil {
				t.Fatal(err)
			}
			checkEach(t, src, ref, "after advance")
		}
	}
	if !sawCompaction {
		t.Fatal("the stream never compacted a queue; the test lost its coverage")
	}
	if src.Live() == 0 {
		t.Fatal("windows empty before Drain; nothing to check")
	}
	src.Drain(emit)
	checkEach(t, src, ref, "after drain")
	if len(ref) != 0 || src.Live() != 0 {
		t.Fatalf("after drain: %d reference objects, Live() = %d, want none", len(ref), src.Live())
	}
}

// compactionProbe reports whether any of the queues was compacted since the
// last call: a compaction is the only way a queue's head moves backwards.
func compactionProbe(qs ...*queue) func() bool {
	last := make([]int, len(qs))
	return func() bool {
		hit := false
		for i, q := range qs {
			if q.head < last[i] {
				hit = true
			}
			last[i] = q.head
		}
		return hit
	}
}

func TestEachTimeWindows(t *testing.T) {
	e, err := New(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	testEach(t, e, compactionProbe(&e.grown, &e.expired))
}

func TestEachCountWindows(t *testing.T) {
	e, err := NewCount(150, 250)
	if err != nil {
		t.Fatal(err)
	}
	testEach(t, e, compactionProbe(&e.cur, &e.past))
}

// BenchmarkPush times Engine.Push at steady state: full windows, so every
// arrival also moves one object from Wc to Wp and expires one from Wp.
func BenchmarkPush(b *testing.B) {
	const live = 20000
	e, err := New(100, 100)
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	emit := func(core.Event) { events++ }
	rng := rand.New(rand.NewPCG(3, 4))
	o := core.Object{Weight: 1}
	push := func() {
		o.T += rng.ExpFloat64() * 200 / live
		o.X, o.Y = rng.Float64(), rng.Float64()
		if _, err := e.Push(o, emit); err != nil {
			b.Fatal(err)
		}
	}
	for o.T < 200 {
		push()
	}
	events = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
