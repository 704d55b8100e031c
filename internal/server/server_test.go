package server

import (
	"context"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"surge"
	"surge/client"
)

// testObjects generates a bursty stream: background noise over [0,span)^2
// with periodic dense pulses near a hotspot, so the best region changes
// often enough to exercise the notification path.
func testObjects(seed uint64, n int, span float64) []surge.Object {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	objs := make([]surge.Object, n)
	t := 0.0
	for i := range objs {
		t += rng.ExpFloat64() * 0.5
		o := surge.Object{
			X:      rng.Float64() * span,
			Y:      rng.Float64() * span,
			Weight: 1 + rng.Float64()*99,
			Time:   t,
		}
		if i%7 < 3 { // pulse: cluster near a drifting hotspot
			cx := 2 + math.Mod(t/40, 2)
			o.X = cx + rng.Float64()*0.4
			o.Y = 2 + rng.Float64()*0.4
		}
		objs[i] = o
	}
	return objs
}

func testOptions(shards int) surge.Options {
	return surge.Options{Width: 1, Height: 1, Window: 30, Alpha: 0.5, Shards: shards}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, client.New(ts.URL)
}

// TestSSEMatchesOffline is the serving consistency guarantee: the SSE
// notification stream of a sharded server must match, bit for bit, the
// answer changes of a single-engine offline run over the same object
// sequence with the same batch boundaries.
func TestSSEMatchesOffline(t *testing.T) {
	const batch = 64
	objs := testObjects(11, 1500, 6)

	// Offline reference: single engine, same chunking, exact change log.
	off, err := surge.New(surge.CellCSPOT, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	var want []surge.Result
	var last surge.Result
	for lo := 0; lo < len(objs); lo += batch {
		hi := min(lo+batch, len(objs))
		res, err := off.PushBatch(objs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if res != last {
			want = append(want, res)
			last = res
		}
	}
	if len(want) < 5 {
		t.Fatalf("weak test stream: only %d changes", len(want))
	}

	_, _, c := newTestServer(t, Config{
		Algorithm:  surge.CellCSPOT,
		Options:    testOptions(3),
		BatchSize:  batch,
		TimePolicy: Strict,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Hello().Result.Found {
		t.Fatal("hello on an empty detector reported a region")
	}

	ing, err := c.Ingest(ctx, objs)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != len(objs) {
		t.Fatalf("accepted %d objects, want %d", ing.Accepted, len(objs))
	}

	got := make([]client.Notification, 0, len(want))
	for len(got) < len(want) {
		select {
		case n, ok := <-sub.Events():
			if !ok {
				t.Fatalf("subscription closed early (err=%v) after %d/%d events", sub.Err(), len(got), len(want))
			}
			if n.Dropped != 0 {
				t.Fatalf("notification %d reports %d drops on an unloaded subscriber", n.Seq, n.Dropped)
			}
			got = append(got, n)
		case <-ctx.Done():
			t.Fatalf("timed out after %d/%d events", len(got), len(want))
		}
	}
	for i, n := range got {
		w := client.FromResult(want[i])
		if n.Result.Found != w.Found ||
			math.Float64bits(n.Result.Score) != math.Float64bits(w.Score) {
			t.Fatalf("event %d: score %v (found=%v) != offline %v (found=%v)",
				i, n.Result.Score, n.Result.Found, w.Score, w.Found)
		}
		// The pipeline guarantees bitwise score equality; when several
		// anchors tie on the maximum score, the reported rectangle may
		// legitimately differ from the single-engine choice, so only its
		// shape is checked.
		if w.Found {
			reg := *n.Result.Region
			if math.Abs(reg.MaxX-reg.MinX-1) > 1e-12 || math.Abs(reg.MaxY-reg.MinY-1) > 1e-12 {
				t.Fatalf("event %d: region %+v is not query-sized", i, reg)
			}
		}
		if n.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq %d, want %d", i, n.Seq, i+1)
		}
	}
	// The server must not have published anything beyond the offline log.
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != uint64(len(want)) {
		t.Fatalf("server seq %d != offline change count %d", st.Seq, len(want))
	}
}

// TestSnapshotRestoreResume round-trips a checkpoint through HTTP into a
// server with a different shard count and resumes both streams in
// lockstep.
func TestSnapshotRestoreResume(t *testing.T) {
	const batch = 50
	objs := testObjects(23, 1000, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	_, _, c1 := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2), BatchSize: batch, TimePolicy: Strict,
	})
	if _, err := c1.Ingest(ctx, objs[:600]); err != nil {
		t.Fatal(err)
	}
	ckpt, err := c1.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	_, _, c2 := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(3), BatchSize: batch, TimePolicy: Strict,
	})
	st, err := c2.Restore(ctx, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 {
		t.Fatalf("restored into %d shards, want the server's 3", st.Shards)
	}
	ref, err := c1.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != ref.Live || math.Float64bits(st.Result.Score) != math.Float64bits(ref.Result.Score) {
		t.Fatalf("restored state %+v != source %+v", st, ref)
	}

	// Resume both servers with the same suffix; answers must stay
	// bitwise identical.
	for lo := 600; lo < len(objs); lo += batch {
		hi := min(lo+batch, len(objs))
		r1, err := c1.Ingest(ctx, objs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		r2, err := c2.Ingest(ctx, objs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if r1.Result.Found != r2.Result.Found ||
			math.Float64bits(r1.Result.Score) != math.Float64bits(r2.Result.Score) {
			t.Fatalf("divergence after restore at objs[%d:%d]: %+v vs %+v", lo, hi, r1.Result, r2.Result)
		}
	}
}

// TestConcurrentIngesters drives four concurrent NDJSON ingesters into a
// sharded detector under the clamp policy (the acceptance scenario; run
// with -race).
func TestConcurrentIngesters(t *testing.T) {
	const ingesters = 4
	objs := testObjects(31, 4000, 6)
	_, _, c := newTestServer(t, Config{
		Algorithm:  surge.CellCSPOT,
		Options:    testOptions(4),
		BatchSize:  128,
		TimePolicy: Clamp,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	go func() {
		for range sub.Events() { // drain so slow-consumer drops don't trigger
		}
	}()

	// Round-robin split: each ingester's slice is time-sorted; global
	// interleaving is arbitrary and absorbed by the clamp policy.
	var wg sync.WaitGroup
	accepted := make([]int, ingesters)
	errs := make([]error, ingesters)
	for g := 0; g < ingesters; g++ {
		var part []surge.Object
		for i := g; i < len(objs); i += ingesters {
			part = append(part, objs[i])
		}
		wg.Add(1)
		go func(g int, part []surge.Object) {
			defer wg.Done()
			// Several requests per ingester to exercise request framing
			// independent of batch framing.
			for lo := 0; lo < len(part); lo += 300 {
				hi := min(lo+300, len(part))
				res, err := c.Ingest(ctx, part[lo:hi])
				if err != nil {
					errs[g] = err
					return
				}
				accepted[g] += res.Accepted
			}
		}(g, part)
	}
	wg.Wait()
	total := 0
	for g := 0; g < ingesters; g++ {
		if errs[g] != nil {
			t.Fatalf("ingester %d: %v", g, errs[g])
		}
		total += accepted[g]
	}
	if total != len(objs) {
		t.Fatalf("accepted %d objects, want %d", total, len(objs))
	}
	h, err := c.Health(ctx)
	if err != nil || !h.OK {
		t.Fatalf("unhealthy after concurrent ingest: %+v, %v", h, err)
	}
	if h.Shards != 4 {
		t.Fatalf("serving %d shards, want 4", h.Shards)
	}
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Live == 0 {
		t.Fatal("no live objects after ingesting the stream")
	}
}

func TestIngestCSVAndDefaults(t *testing.T) {
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.GridApprox, Options: testOptions(1), TimePolicy: Strict,
	})
	ctx := context.Background()
	body := "# recorded stream\n1,2,2,5\n2, 2.1, 2.2, 5\n\n3,2.2,2.1,5\n"
	res, err := c.IngestStream(ctx, strings.NewReader(body), client.CSV)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 {
		t.Fatalf("accepted %d CSV objects, want 3", res.Accepted)
	}
	// NDJSON with a missing weight defaults to 1.
	nd := `{"time":4,"x":2,"y":2}` + "\n"
	res, err = c.IngestStream(ctx, strings.NewReader(nd), client.NDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 {
		t.Fatalf("accepted %d NDJSON objects, want 1", res.Accepted)
	}
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 4 {
		t.Fatalf("live %d, want 4", st.Live)
	}
}

func TestIngestErrors(t *testing.T) {
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1), TimePolicy: Strict, BatchSize: 2,
	})
	ctx := context.Background()
	// Malformed NDJSON.
	if _, err := c.IngestStream(ctx, strings.NewReader("{nope\n"), client.NDJSON); err == nil {
		t.Fatal("malformed NDJSON accepted")
	}
	// Invalid objects are rejected before any of the chunk is applied.
	if _, err := c.IngestStream(ctx, strings.NewReader(`{"time":1,"x":1,"y":1,"weight":-3}`+"\n"), client.NDJSON); err == nil {
		t.Fatal("negative weight accepted")
	}
	// Missing required field.
	if _, err := c.IngestStream(ctx, strings.NewReader(`{"time":1,"x":2}`+"\n"), client.NDJSON); err == nil {
		t.Fatal("object without y accepted")
	}
	// Out-of-order rejection under the strict policy, with the accepted
	// prefix reported.
	body := `{"time":10,"x":1,"y":1}
{"time":11,"x":1,"y":1}
{"time":5,"x":1,"y":1}
`
	_, err := c.IngestStream(ctx, strings.NewReader(body), client.NDJSON)
	cerr, ok := err.(*client.Error)
	if !ok {
		t.Fatalf("want *client.Error for out-of-order ingest, got %v", err)
	}
	if cerr.Accepted != 2 {
		t.Fatalf("error reports %d accepted, want the 2-object prefix", cerr.Accepted)
	}
	// The same batch is fine under clamp.
	_, _, cc := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1), TimePolicy: Clamp,
	})
	res, err := cc.IngestStream(ctx, strings.NewReader(body), client.NDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.Clamped != 1 {
		t.Fatalf("clamp policy: accepted %d clamped %d, want 3/1", res.Accepted, res.Clamped)
	}
}

func TestTopKOnDemand(t *testing.T) {
	objs := testObjects(47, 800, 6)
	_, ts, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2), TimePolicy: Strict, TopK: 3,
	})
	ctx := context.Background()
	if _, err := c.Ingest(ctx, objs); err != nil {
		t.Fatal(err)
	}
	tk, err := c.TopK(ctx, 0) // server default
	if err != nil {
		t.Fatal(err)
	}
	if tk.K != 3 || tk.Algorithm != "CCS" || len(tk.Results) != 3 {
		t.Fatalf("topk reply %+v, want k=3 CCS with 3 slots", tk)
	}
	if !tk.Results[0].Found {
		t.Fatal("no top-1 region over a bursty stream")
	}
	// Rank-1 must agree with /v1/best.
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tk.Results[0].Score-st.Result.Score) > 1e-9*(1+math.Abs(st.Result.Score)) {
		t.Fatalf("top-1 score %v != best %v", tk.Results[0].Score, st.Result.Score)
	}
	if tk2, err := c.TopK(ctx, 2); err != nil || tk2.K != 2 || len(tk2.Results) != 2 {
		t.Fatalf("explicit k=2 reply %+v, %v", tk2, err)
	}
	// The client elides k <= 0, so probe the validation with a raw request.
	resp, err := http.Get(ts.URL + "/v1/topk?k=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=-1 returned %d, want 400", resp.StatusCode)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2), TimePolicy: Strict,
	})
	ctx := context.Background()
	if _, err := c.Ingest(ctx, testObjects(53, 200, 6)); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Algorithm != "CCS" || h.Shards != 2 || h.Live == 0 {
		t.Fatalf("health %+v", h)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"surge_objects_ingested_total 200",
		"surge_shards 2",
		"surge_engine_events_total",
		"# TYPE surge_best_score gauge",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestSlowSubscriberDrops exercises the hub's slow-consumer policy
// directly: a full subscriber loses oldest-first and the loss is accounted
// on the next delivered notification.
func TestSlowSubscriberDrops(t *testing.T) {
	h := hub{subs: make(map[*subscriber]struct{}), ringCap: 8}
	sub := &subscriber{ch: make(chan frame, 2)}
	h.add(sub)
	var lost uint64
	for seq := uint64(1); seq <= 5; seq++ {
		lost += h.broadcast(frame{eid: seq, burst: client.Notification{Seq: seq}})
	}
	if lost != 3 {
		t.Fatalf("broadcast reported %d drops, want 3", lost)
	}
	// Buffer holds the two newest. Delivered count (2) plus the sum of the
	// delivered Dropped accounts (1 + 2) equals the 5 published.
	f := <-sub.ch
	if f.burst.Seq != 4 || f.dropped() != 1 {
		t.Fatalf("first delivered = seq %d dropped %d, want seq 4 dropped 1", f.burst.Seq, f.dropped())
	}
	f = <-sub.ch
	if f.burst.Seq != 5 || f.dropped() != 2 {
		t.Fatalf("second delivered = seq %d dropped %d, want seq 5 dropped 2", f.burst.Seq, f.dropped())
	}
	h.remove(sub)
	if h.count() != 0 {
		t.Fatal("subscriber not removed")
	}
}

// TestHubReconnectBackfill exercises the Last-Event-ID ring directly: a
// resuming subscriber gets exactly the frames it missed, and frames evicted
// from the ring are accounted on the first replayed frame's Dropped field.
func TestHubReconnectBackfill(t *testing.T) {
	h := hub{subs: make(map[*subscriber]struct{}), ringCap: 4}
	for seq := uint64(1); seq <= 10; seq++ {
		h.broadcast(frame{eid: seq, burst: client.Notification{Seq: seq}})
	}
	// Ring holds 7..10. Resuming from 5 misses 6 frames, of which 6 is gone.
	sub := &subscriber{ch: make(chan frame, 4)}
	backlog := h.addResuming(sub, 5)
	if len(backlog) != 4 {
		t.Fatalf("backlog of %d frames, want 4", len(backlog))
	}
	for i, f := range backlog {
		if f.eid != uint64(7+i) {
			t.Fatalf("backlog[%d] eid %d, want %d", i, f.eid, 7+i)
		}
	}
	if backlog[0].dropped() != 1 {
		t.Fatalf("first replayed frame dropped %d, want 1 (eid 6 left the ring)", backlog[0].dropped())
	}
	// Delivered (4) + dropped (1) + already-seen (5) = 10 published.
	// A subscriber resuming from the newest id gets nothing.
	sub2 := &subscriber{ch: make(chan frame, 4)}
	if b := h.addResuming(sub2, 10); len(b) != 0 || sub2.dropped != 0 {
		t.Fatalf("up-to-date resume got %d frames, dropped %d", len(b), sub2.dropped)
	}
	// Live frames keep flowing to resumed subscribers.
	h.broadcast(frame{eid: 11, burst: client.Notification{Seq: 11}})
	f := <-sub.ch
	if f.eid != 11 || f.dropped() != 0 {
		t.Fatalf("live frame after resume = eid %d dropped %d, want 11/0", f.eid, f.dropped())
	}
}

// TestSubscriptionCloseWhileBehind: a consumer that never reads its
// subscription must still be able to Close it after the server has
// published more notifications than the client buffers (regression: the
// reader goroutine used to block forever on the full events channel).
func TestSubscriptionCloseWhileBehind(t *testing.T) {
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1),
		TimePolicy: Strict, BatchSize: 1, SubscriberBuffer: 8,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// BatchSize 1 + a monotonically growing pile at one point = one
	// notification per object; 400 > the client's 256-slot buffer.
	objs := make([]surge.Object, 400)
	for i := range objs {
		objs[i] = surge.Object{X: 2, Y: 2, Weight: 5, Time: float64(i)}
	}
	if _, err := c.Ingest(ctx, objs); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		sub.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on an unread subscription")
	}
}

// TestServerClose: requests after Close fail cleanly, Close is idempotent.
func TestServerClose(t *testing.T) {
	s, ts, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2), TimePolicy: Strict,
	})
	ctx := context.Background()
	if _, err := c.Ingest(ctx, testObjects(61, 100, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if _, err := c.Ingest(ctx, testObjects(62, 10, 6)); err == nil {
		t.Fatal("ingest accepted after Close")
	}
	if _, err := c.Best(ctx); err == nil {
		t.Fatal("best served after Close")
	}
	h, err := c.Health(ctx)
	if err == nil && h.OK {
		t.Fatal("healthz OK after Close")
	}
	_ = ts
}

// TestBootFromCheckpoint seeds a server from Config.Checkpoint.
func TestBootFromCheckpoint(t *testing.T) {
	objs := testObjects(71, 500, 6)
	det, err := surge.New(surge.CellCSPOT, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	want, err := det.PushBatch(objs)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := det.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(3), TimePolicy: Strict,
		Checkpoint: ckpt,
	})
	st, err := c.Best(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 {
		t.Fatalf("booted with %d shards, want 3", st.Shards)
	}
	if math.Float64bits(st.Result.Score) != math.Float64bits(want.Score) || st.Result.Found != want.Found {
		t.Fatalf("booted state %+v != checkpoint source %+v", st.Result, want)
	}
}

// TestBootCheckpointReleased pins that a server booted from
// Config.Checkpoint does not keep the checkpoint bytes once its slots are
// built: on a large -restore they are megabytes nothing reads again.
func TestBootCheckpointReleased(t *testing.T) {
	det, err := surge.New(surge.CellCSPOT, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	if _, err := det.PushBatch(testObjects(73, 500, 6)); err != nil {
		t.Fatal(err)
	}
	ckpt, err := det.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	held := weak.Make(&ckpt[0])
	_, _, c := newTestServer(t, Config{Algorithm: surge.CellCSPOT, Options: testOptions(1), Checkpoint: ckpt})
	ckpt = nil
	runtime.GC()
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("the server keeps the boot checkpoint alive")
	}
	if st, err := c.Best(context.Background()); err != nil || st.Live == 0 {
		t.Fatalf("restored server: live %d, err %v", st.Live, err)
	}
}

func TestParseTimePolicy(t *testing.T) {
	if p, err := ParseTimePolicy("strict"); err != nil || p != Strict {
		t.Fatal("strict")
	}
	if p, err := ParseTimePolicy("clamp"); err != nil || p != Clamp {
		t.Fatal("clamp")
	}
	if _, err := ParseTimePolicy("loose"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
