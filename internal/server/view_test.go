package server

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"surge"
	"surge/client"
)

// metricValue returns the value of the first sample line of a Prometheus
// scrape whose series (name plus labels) is exactly series.
func metricValue(t *testing.T, scrape, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("scrape has no series %s", series)
	return 0
}

// wedge blocks the event loop until the returned release is called.
func wedge(s *Server) (release func()) {
	block := make(chan struct{})
	started := make(chan struct{})
	go s.do(func() { close(started); <-block })
	<-started
	return sync.OnceFunc(func() { close(block) })
}

// liveIDs collects a subscription's event ids, sorted, until it has seen
// last. Burst and top-k events arrive on separate channels; the client reads
// the stream in order, so once last is in, every earlier id is buffered.
func liveIDs(t *testing.T, sub *client.Subscription, last uint64) []uint64 {
	t.Helper()
	var ids []uint64
	timeout := time.After(10 * time.Second)
	for !slices.Contains(ids, last) {
		select {
		case n := <-sub.Events():
			ids = append(ids, n.EventID)
		case n := <-sub.TopKEvents():
			ids = append(ids, n.EventID)
		case <-timeout:
			t.Fatalf("stream stopped at ids %v, want up to %d", ids, last)
		}
	}
	for {
		select {
		case n := <-sub.Events():
			ids = append(ids, n.EventID)
		case n := <-sub.TopKEvents():
			ids = append(ids, n.EventID)
		default:
			slices.Sort(ids)
			return ids
		}
	}
}

// checkContiguous asserts the sorted ids a stream delivered after a hello
// at events: exactly events+1 .. last, each once.
func checkContiguous(t *testing.T, label string, events uint64, ids []uint64, last uint64) {
	t.Helper()
	for i, id := range ids {
		if want := events + 1 + uint64(i); id != want {
			t.Fatalf("%s: hello at events=%d, live ids %v: id %d, want %d (through %d)", label, events, ids, id, want, last)
		}
	}
	if uint64(len(ids)) != last-events {
		t.Fatalf("%s: hello at events=%d, live ids %v, want through %d", label, events, ids, last)
	}
}

// TestHelloMeetsLiveStream pins the SSE hello against the live stream: a
// hello with events=E reflects every event up to E, and the stream goes on
// at exactly E+1. First deterministically — the loop is wedged with an
// ingest queued on it when the subscriber connects — then with subscribers
// connecting while batches publish.
func TestHelloMeetsLiveStream(t *testing.T) {
	s, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1),
		TimePolicy: Clamp, BatchSize: 16, SubscriberBuffer: 1024,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	objs := testObjects(81, 1200, 4)
	if _, err := c.Ingest(ctx, objs[:100]); err != nil {
		t.Fatal(err)
	}

	release := wedge(s)
	defer release()
	acked := make(chan error, 1)
	go func() {
		_, err := c.Ingest(ctx, objs[100:200])
		acked <- err
	}()
	for s.pendingChunks.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The chunk is counted just before it is sent to the loop; nothing
	// observable marks it parked on the channel, so give it a moment.
	time.Sleep(20 * time.Millisecond)
	type subscribed struct {
		sub *client.Subscription
		err error
	}
	subc := make(chan subscribed, 1)
	go func() {
		sub, err := c.Subscribe(ctx)
		subc <- subscribed{sub, err}
	}()
	for s.defTenant.hub.count() == 0 {
		time.Sleep(time.Millisecond) // the subscriber joins the hub behind the queued ingest
	}
	release()
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	got := <-subc
	if got.err != nil {
		t.Fatal(got.err)
	}
	defer got.sub.Close()
	// One more batch, so the stream carries events past the queued ingest's
	// whichever state the hello reflects.
	if _, err := c.Ingest(ctx, objs[200:300]); err != nil {
		t.Fatal(err)
	}
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hello := got.sub.Hello()
	if hello.Events >= st.Events {
		t.Fatalf("hello at events=%d, server at %d: the test stream published nothing after it", hello.Events, st.Events)
	}
	checkContiguous(t, "queued ingest", hello.Events, liveIDs(t, got.sub, st.Events), st.Events)

	// Subscribers connecting while batches publish.
	var subs []*client.Subscription
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 300; i < len(objs); i += 20 {
			if _, err := c.Ingest(ctx, objs[i:i+20]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		sub, err := c.Subscribe(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs = append(subs, sub)
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	st, err = c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		if e := sub.Hello().Events; e < st.Events {
			checkContiguous(t, "subscriber "+strconv.Itoa(i), e, liveIDs(t, sub, st.Events), st.Events)
		}
	}
}

// TestFreshServerReportsZeroNow: before any object is decided every surface
// reports the stream clock as 0, never the empty window's sentinel.
func TestFreshServerReportsZeroNow(t *testing.T) {
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2), TimePolicy: Clamp,
		Queries: []client.QueryConfig{{ID: "other", Algorithm: "GAPS"}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nows := map[string]float64{}
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nows["/v1/best"] = st.Now
	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nows["hello"] = sub.Hello().Now
	sub.Close()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nows["/healthz"] = h.Now
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nows["/v1/stats"] = stats.Now
	for _, q := range stats.Queries {
		nows["/v1/stats query "+q.ID] = q.Now
	}
	list, err := c.Queries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range list.Queries {
		nows["/v1/queries "+q.ID] = q.Now
	}
	for _, id := range []string{DefaultQueryID, "other"} {
		qs, err := c.Query(id).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		nows["/v1/queries/"+id+"/stats"] = qs.Now
		info, err := c.Query(id).Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		nows["/v1/queries/"+id] = info.Now
		qst, err := c.Query(id).Best(ctx)
		if err != nil {
			t.Fatal(err)
		}
		nows["/v1/queries/"+id+"/best"] = qst.Now
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nows["surge_stream_time"] = metricValue(t, m, "surge_stream_time")
	nows["surge_query_stream_time default"] = metricValue(t, m, `surge_query_stream_time{query="default"}`)
	nows["surge_query_stream_time other"] = metricValue(t, m, `surge_query_stream_time{query="other"}`)
	if len(nows) != 17 {
		t.Fatalf("checked %d surfaces, want 17: %v", len(nows), nows)
	}
	for surface, now := range nows {
		if now != 0 {
			t.Errorf("%s now = %v on a fresh server, want 0", surface, now)
		}
	}
}

// TestReadSurfacesAgreeAfterAck: once an ingest is acked, every surface
// reports the same state of the default query — /v1/best, the /metrics
// engine counters and live gauge, the /v1/stats row and the registry entry —
// however quickly the ingests follow each other.
func TestReadSurfacesAgreeAfterAck(t *testing.T) {
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1), TimePolicy: Clamp,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	objs := testObjects(83, 600, 6)
	start := time.Now()
	for _, part := range [][]surge.Object{objs[:300], objs[300:]} {
		if _, err := c.Ingest(ctx, part); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Query(DefaultQueryID).Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Logf("ingest and reads took %v; the check is meant to run inside a second", time.Since(start))
	}
	if st.Stats.Events == 0 || st.Live == 0 {
		t.Fatalf("/v1/best after two acks reports no work: %+v", st)
	}
	scraped := client.EngineStats{
		Events:       uint64(metricValue(t, m, "surge_engine_events_total")),
		Searches:     uint64(metricValue(t, m, "surge_engine_searches_total")),
		SearchEvents: uint64(metricValue(t, m, "surge_engine_search_events_total")),
		SweepEntries: uint64(metricValue(t, m, "surge_engine_sweep_entries_total")),
		CellsTouched: uint64(metricValue(t, m, "surge_engine_cells_touched_total")),
	}
	if scraped != st.Stats {
		t.Errorf("/metrics engine counters %+v, /v1/best stats %+v", scraped, st.Stats)
	}
	if live := metricValue(t, m, "surge_live_objects"); int(live) != st.Live {
		t.Errorf("surge_live_objects = %v, /v1/best live = %d", live, st.Live)
	}
	row := stats.Queries[0]
	if row.ID != DefaultQueryID || row.Now != st.Now || row.Live != st.Live || !reflect.DeepEqual(row.Result, st.Result) {
		t.Errorf("/v1/stats row %+v disagrees with /v1/best %+v", row, st)
	}
	if info.Now != st.Now || info.Live != st.Live {
		t.Errorf("/v1/queries/default now=%v live=%d, /v1/best now=%v live=%d", info.Now, info.Live, st.Now, st.Live)
	}
}
