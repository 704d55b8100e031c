package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"surge"
	"surge/client"
)

// ingestChunks pushes objs in fixed-size ingest requests.
func ingestChunks(ctx context.Context, t *testing.T, c *client.Client, objs []surge.Object, chunk int) {
	t.Helper()
	for lo := 0; lo < len(objs); lo += chunk {
		hi := min(lo+chunk, len(objs))
		if _, err := c.Ingest(ctx, objs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
}

// bitEqualWireTopK asserts two wire top-k answers agree bitwise on scores
// and found flags at every rank.
func bitEqualWireTopK(t *testing.T, label string, a, b *client.TopK) {
	t.Helper()
	if a.K != b.K || len(a.Results) != len(b.Results) {
		t.Fatalf("%s: shape %d/%d vs %d/%d", label, a.K, len(a.Results), b.K, len(b.Results))
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.Found != rb.Found || math.Float64bits(ra.Score) != math.Float64bits(rb.Score) {
			t.Fatalf("%s rank %d: %+v != %+v", label, i, ra, rb)
		}
	}
}

// replayTopK is the oracle for the maintained answer: checkpoint the query
// over HTTP and replay the bytes into a fresh top-k detector.
func replayTopK(ctx context.Context, t *testing.T, c *client.Client, k int) *client.TopK {
	t.Helper()
	data, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	td, err := surge.RestoreTopK(surge.CellCSPOT, data, k)
	if err != nil {
		t.Fatal(err)
	}
	defer td.Close()
	out := &client.TopK{K: k}
	for _, r := range td.BestK() {
		out.Results = append(out.Results, client.FromResult(r))
	}
	return out
}

// TestTopKContinuousMatchesReplay is the serving half of the equivalence
// guarantee: at every checkpoint of a randomized ingest, the O(1)
// maintained answer of /v1/topk equals a replay of the query's snapshot
// bitwise — including the k-prefix — on a sharded server.
func TestTopKContinuousMatchesReplay(t *testing.T) {
	objs := testObjects(97, 1200, 6)
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(3),
		TimePolicy: Strict, TopK: 4, BatchSize: 64,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for lo := 0; lo < len(objs); lo += 400 {
		hi := min(lo+400, len(objs))
		ingestChunks(ctx, t, c, objs[lo:hi], 100)

		cont, err := c.TopK(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !cont.Continuous || cont.K != 4 {
			t.Fatalf("default query not served from the maintained answer: %+v", cont)
		}
		bitEqualWireTopK(t, "continuous vs replay", cont, replayTopK(ctx, t, c, 4))

		// Prefix: k=2 is the first two ranks of the maintained 4.
		pre, err := c.TopK(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !pre.Continuous || pre.K != 2 || len(pre.Results) != 2 {
			t.Fatalf("prefix query %+v", pre)
		}
		for i := range pre.Results {
			if math.Float64bits(pre.Results[i].Score) != math.Float64bits(cont.Results[i].Score) {
				t.Fatalf("prefix rank %d: %v != %v", i, pre.Results[i].Score, cont.Results[i].Score)
			}
		}
	}

	// k beyond the maintained K is a 400 that names the maintained k.
	_, err := c.TopK(ctx, 5)
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Status != http.StatusBadRequest || !strings.Contains(werr.Err, "maintained k=4") {
		t.Fatalf("k beyond the maintained K: %v, want a 400 naming the maintained k=4", err)
	}
}

// TestTopKSSEMatchesOffline extends the serving consistency guarantee to
// the top-k stream: the "topk" SSE notifications of a sharded server equal,
// bit for bit in every rank's score, the top-k change log of an offline
// single-engine run with the same batch boundaries.
func TestTopKSSEMatchesOffline(t *testing.T) {
	const batch = 64
	const k = 3
	objs := testObjects(11, 1500, 6)

	// Offline reference: a maintained top-k detector fed the same batches.
	offTK, err := surge.NewTopK(surge.CellCSPOT, testOptions(1), k)
	if err != nil {
		t.Fatal(err)
	}
	defer offTK.Close()
	var want [][]surge.Result
	last := append([]surge.Result(nil), offTK.BestK()...)
	for lo := 0; lo < len(objs); lo += batch {
		hi := min(lo+batch, len(objs))
		cur, err := offTK.PushBatch(objs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if !topkEqual(cur, last) {
			last = append(last[:0], cur...)
			want = append(want, append([]surge.Result(nil), cur...))
		}
	}
	if len(want) < 5 {
		t.Fatalf("weak test stream: only %d top-k changes", len(want))
	}

	_, _, c := newTestServer(t, Config{
		Algorithm:  surge.CellCSPOT,
		Options:    testOptions(3),
		BatchSize:  batch,
		TimePolicy: Strict,
		TopK:       k,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := c.Ingest(ctx, objs); err != nil {
		t.Fatal(err)
	}
	got := make([]client.TopKNotification, 0, len(want))
	for len(got) < len(want) {
		select {
		case n, ok := <-sub.TopKEvents():
			if !ok {
				t.Fatalf("subscription closed early (err=%v) after %d/%d events", sub.Err(), len(got), len(want))
			}
			if n.Dropped != 0 {
				t.Fatalf("top-k notification %d reports %d drops on an unloaded subscriber", n.Seq, n.Dropped)
			}
			got = append(got, n)
		case <-ctx.Done():
			t.Fatalf("timed out after %d/%d top-k events", len(got), len(want))
		}
	}
	for i, n := range got {
		if n.Seq != uint64(i+1) || n.K != k || len(n.Results) != k {
			t.Fatalf("event %d: seq %d k %d len %d", i, n.Seq, n.K, len(n.Results))
		}
		for r := 0; r < k; r++ {
			w := client.FromResult(want[i][r])
			if n.Results[r].Found != w.Found ||
				math.Float64bits(n.Results[r].Score) != math.Float64bits(w.Score) {
				t.Fatalf("event %d rank %d: score %v (found=%v) != offline %v (found=%v)",
					i, r, n.Results[r].Score, n.Results[r].Found, w.Score, w.Found)
			}
		}
	}
}

// TestSSEReconnectBackfill drives the Last-Event-ID path over HTTP: a
// subscriber that disconnects mid-stream resumes with SubscribeFrom and
// receives exactly the events it missed — no hello, original ids, burst
// and topk interleaved — with ring evictions surfaced in the Dropped
// accounting.
func TestSSEReconnectBackfill(t *testing.T) {
	objs := testObjects(41, 1200, 6)
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2),
		TimePolicy: Strict, BatchSize: 32, TopK: 3, NotifyRing: 4096,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ingestChunks(ctx, t, c, objs[:400], 100)

	// Read a few burst events, then drop the connection. The resume cursor
	// is the EventID of the last notification actually processed — the
	// client may have decoded further ahead into its buffer.
	var lastBurst, lastID uint64
	for i := 0; i < 3; i++ {
		select {
		case n := <-sub.Events():
			lastBurst = n.Seq
			lastID = n.EventID
		case <-ctx.Done():
			t.Fatal("no burst events before disconnect")
		}
	}
	if lastID == 0 {
		t.Fatal("subscription did not track event ids")
	}
	sub.Close()

	ingestChunks(ctx, t, c, objs[400:800], 100)

	// Resume: the missed burst events arrive seamlessly, seq-continuous
	// with what the first subscription saw, and without a hello.
	sub2, err := c.SubscribeFrom(ctx, lastID)
	if err != nil {
		t.Fatal(err)
	}
	if !sub2.Resumed() || sub2.Hello().Seq != 0 {
		t.Fatalf("resumed subscription got a hello: %+v", sub2.Hello())
	}
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var burstSeen, topkSeen int
	wantNext := lastBurst + 1
deadline:
	for uint64(burstSeen)+lastBurst < st.Seq {
		select {
		case n, ok := <-sub2.Events():
			if !ok {
				t.Fatalf("resumed subscription closed: %v", sub2.Err())
			}
			if n.Dropped != 0 {
				t.Fatalf("resumed burst %d reports %d drops with an ample ring", n.Seq, n.Dropped)
			}
			if n.Seq != wantNext {
				t.Fatalf("resumed burst seq %d, want %d (no gap, no replemption)", n.Seq, wantNext)
			}
			wantNext++
			burstSeen++
		case <-sub2.TopKEvents():
			topkSeen++
		case <-ctx.Done():
			break deadline
		}
	}
	if uint64(burstSeen)+lastBurst != st.Seq {
		t.Fatalf("resumed subscription replayed %d bursts after seq %d, server is at %d", burstSeen, lastBurst, st.Seq)
	}
	if sub2.LastEventID() <= lastID {
		t.Fatal("resumed subscription did not advance its event id")
	}
	sub2.Close()

	// A reconnect far behind a tiny ring preserves exact accounting: the
	// first replayed event carries the evicted-event count.
	_, _, c2 := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1),
		TimePolicy: Strict, BatchSize: 1, TopK: 1, NotifyRing: 8, SubscriberBuffer: 4096,
	})
	grow := make([]surge.Object, 300)
	for i := range grow {
		grow[i] = surge.Object{X: 2, Y: 2, Weight: 5, Time: float64(i)}
	}
	if _, err := c2.Ingest(ctx, grow); err != nil {
		t.Fatal(err)
	}
	st2, err := c2.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Events < 20 {
		t.Fatalf("weak stream: only %d events published", st2.Events)
	}
	sub3, err := c2.SubscribeFrom(ctx, 1) // missed almost everything
	if err != nil {
		t.Fatal(err)
	}
	defer sub3.Close()
	var delivered, droppedSum, maxEID uint64
	for maxEID < st2.Events {
		select {
		case n, ok := <-sub3.Events():
			if !ok {
				t.Fatalf("backfill subscription closed: %v", sub3.Err())
			}
			delivered++
			droppedSum += n.Dropped
			maxEID = max(maxEID, n.EventID)
		case n := <-sub3.TopKEvents():
			delivered++
			droppedSum += n.Dropped
			maxEID = max(maxEID, n.EventID)
		case <-ctx.Done():
			t.Fatalf("timed out draining backfill: delivered %d, max id %d of %d", delivered, maxEID, st2.Events)
		}
	}
	// Seeing the newest event id only proves the reader enqueued everything
	// before it; the other channel may still hold buffered events — drain
	// both dry before checking the accounting.
	for drained := false; !drained; {
		select {
		case n := <-sub3.Events():
			delivered++
			droppedSum += n.Dropped
		case n := <-sub3.TopKEvents():
			delivered++
			droppedSum += n.Dropped
		default:
			drained = true
		}
	}
	// Exact accounting: events delivered + events dropped = events
	// published since the resume point (id 1).
	if delivered+droppedSum != st2.Events-1 {
		t.Fatalf("accounting broken: %d delivered + %d dropped != %d published after id 1",
			delivered, droppedSum, st2.Events-1)
	}
	if droppedSum == 0 {
		t.Fatal("weak test: the tiny ring dropped nothing")
	}
}

// TestTopKFastPathAfterRestore checks the maintained answer survives both
// restore paths: Config.Checkpoint at boot and live /v1/restore.
func TestTopKFastPathAfterRestore(t *testing.T) {
	objs := testObjects(57, 600, 6)
	ctx := context.Background()
	_, _, c1 := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2), TimePolicy: Strict, TopK: 3,
	})
	ingestChunks(ctx, t, c1, objs, 150)
	want, err := c1.TopK(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := c1.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Boot-time restore.
	_, _, c2 := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(3), TimePolicy: Strict, TopK: 3,
		Checkpoint: ckpt,
	})
	got, err := c2.TopK(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	bitEqualWireTopK(t, "boot restore", want, got)

	// Live restore into a running server.
	_, _, c3 := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1), TimePolicy: Strict, TopK: 3,
	})
	ingestChunks(ctx, t, c3, testObjects(58, 100, 6), 50) // unrelated prior state
	if _, err := c3.Restore(ctx, ckpt); err != nil {
		t.Fatal(err)
	}
	got3, err := c3.TopK(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	bitEqualWireTopK(t, "live restore", want, got3)

	// The maintained answer must hold bitwise against replay after the
	// restore too.
	bitEqualWireTopK(t, "restored continuous vs replay", got3, replayTopK(ctx, t, c3, 3))
}

// TestRestoreTwiceSwapsMaintainedTopK pins the restore lifecycle of the
// maintained top-k chain: every live restore swaps a freshly replayed chain
// in on the event loop and closes the old one once nothing references it,
// so restoring repeatedly — with ingest batches racing the restores —
// cannot leave an old chain serving or a stale maintained answer. After the dust settles the continuous answer must
// still hold bitwise against checkpoint replay, and the server stays
// healthy.
func TestRestoreTwiceSwapsMaintainedTopK(t *testing.T) {
	objs := testObjects(91, 900, 6)
	ctx := context.Background()
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2), TimePolicy: Clamp, TopK: 3, BatchSize: 64,
	})
	ingestChunks(ctx, t, c, objs[:300], 75)
	ckpt, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest concurrently while restoring twice back to back, so batch
	// refreshes of the maintained detector race both swaps.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 300; i < 700; i += 40 {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Ingest(ctx, objs[i:i+40]); err != nil {
				return // the server serialises; an error here only ends the pressure
			}
		}
	}()
	if _, err := c.Restore(ctx, ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restore(ctx, ckpt); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	// The second restore's maintained detector must actually maintain:
	// push a deterministic tail and compare against replay over the same
	// state.
	ingestChunks(ctx, t, c, objs[700:], 50)
	cont, err := c.TopK(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	bitEqualWireTopK(t, "restore-twice continuous vs replay", cont, replayTopK(ctx, t, c, 3))
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Err != "" {
		t.Fatalf("server unhealthy after restores: %+v", h)
	}
}

// TestStateEventsCounter: hello carries the SSE event id base used for
// reconnects.
func TestStateEventsCounter(t *testing.T) {
	_, ts, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1), TimePolicy: Strict, TopK: 2,
	})
	ctx := context.Background()
	ingestChunks(ctx, t, c, testObjects(61, 300, 6), 100)
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events < st.Seq {
		t.Fatalf("events %d < burst seq %d", st.Events, st.Seq)
	}
	resp, err := http.Get(ts.URL + "/v1/topk?k=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 returned %d, want 400", resp.StatusCode)
	}
}
