package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"surge"
	"surge/client"
)

// TestScrapeEndpointsSurviveWedgedLoop is the off-loop read regression
// test: /metrics, /v1/stats and every query read — /v1/best, /v1/topk, the
// registry and a fresh SSE hello — must answer with the last published
// state while the event loop is wedged, and /healthz must report the stall
// with a 503 instead of hanging.
func TestScrapeEndpointsSurviveWedgedLoop(t *testing.T) {
	s, ts, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2), TimePolicy: Clamp,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Ingest(ctx, testObjects(71, 300, 6)); err != nil {
		t.Fatal(err)
	}
	before, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := c.TopK(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.healthTimeout = 50 * time.Millisecond

	// Wedge the loop until the test ends.
	defer wedge(s)()

	for _, best := range []func(context.Context) (*client.State, error){c.Best, c.Query(DefaultQueryID).Best} {
		st, err := best(ctx)
		if err != nil || !reflect.DeepEqual(st, before) {
			t.Fatalf("best with a wedged loop = %+v, %v; want the published %+v", st, err, before)
		}
	}
	if tk, err := c.TopK(ctx, 0); err != nil || !reflect.DeepEqual(tk, topk) {
		t.Fatalf("topk with a wedged loop = %+v, %v; want the published %+v", tk, err, topk)
	}
	if list, err := c.Queries(ctx); err != nil || len(list.Queries) != 1 || list.Queries[0].Live != before.Live {
		t.Fatalf("query list with a wedged loop = %+v, %v", list, err)
	}
	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatalf("subscribe with a wedged loop: %v", err)
	}
	if hello := sub.Hello(); !reflect.DeepEqual(hello, *before) {
		t.Fatalf("hello with a wedged loop = %+v, want the published %+v", hello, before)
	}
	sub.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics with a wedged loop returned %d, want 200", resp.StatusCode)
	}
	for _, want := range []string{
		"surge_objects_ingested_total 300",
		"surge_build_info{version=",
		"surge_ingest_ack_seconds{quantile=\"0.5\"}",
		"surge_runtime_goroutines",
	} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("wedged /metrics missing %q:\n%s", want, body.String())
		}
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st client.StatsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("/v1/stats with a wedged loop: status %d, decode err %v", resp.StatusCode, err)
	}
	if st.Objects != 300 || st.Shards != 2 || st.IngestAck.Count == 0 {
		t.Fatalf("wedged /v1/stats served stale or empty state: %+v", st)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h client.Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || err != nil {
		t.Fatalf("/healthz with a wedged loop: status %d, decode err %v", resp.StatusCode, err)
	}
	if h.OK || !strings.Contains(h.Err, "stalled") {
		t.Fatalf("wedged /healthz = %+v, want OK=false with a stalled-loop error", h)
	}
	// The default query's view still describes the last published state.
	if h.Shards != 2 || h.Live != before.Live {
		t.Fatalf("wedged /healthz lost the published state: %+v", h)
	}
}

// TestTrafficPopulatesHistograms drives ingest and SSE traffic and asserts
// the pipeline histograms report it in both renderings: quantile series in
// the Prometheus text and non-empty typed summaries in /v1/stats.
func TestTrafficPopulatesHistograms(t *testing.T) {
	s, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(2),
		TimePolicy: Clamp, BatchSize: 64,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := c.Ingest(ctx, testObjects(72, 1000, 6)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Events():
	case <-ctx.Done():
		t.Fatal("no SSE event for a bursty stream")
	}
	// The SSE handler records delivery after flushing to the client, so the
	// count can trail the receive by a scheduling beat.
	deadline := time.Now().Add(5 * time.Second)
	for s.mSSEDeliver.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Force one lag-probe sample instead of waiting out the ticker; the
	// empty do() barriers until the probe's closure has run.
	s.probeLag()
	if err := s.do(func() {}); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		h    client.HistogramStats
	}{
		{"ingest_ack", st.IngestAck},
		{"ingest_parse", st.IngestParse},
		{"ingest_batch_objects", st.IngestBatch},
		{"loop_queue_wait", st.LoopQueueWait},
		{"loop_apply", st.LoopApply},
		{"loop_lag", st.LoopLag},
		{"sse_delivery", st.SSEDelivery},
		{"shard_flush_events", st.ShardFlush},
		{"topk_solve_wait", st.TopKSolveWait},
	}
	for _, ck := range checks {
		if ck.h.Count == 0 {
			t.Errorf("/v1/stats %s histogram empty after traffic", ck.name)
		}
		if ck.h.P50 < 0 || ck.h.P99 < ck.h.P50 || ck.h.P999 < ck.h.P99 || ck.h.Max < ck.h.P999 {
			t.Errorf("/v1/stats %s quantiles not monotone: %+v", ck.name, ck.h)
		}
	}
	if st.IngestAck.P50 <= 0 || st.IngestAck.P999 <= 0 {
		t.Errorf("ingest-ack quantiles not positive: %+v", st.IngestAck)
	}
	if st.Objects != 1000 || st.Batches == 0 || st.LastIngestAgeSec < 0 {
		t.Errorf("stats counters wrong: %+v", st)
	}
	if st.Runtime.Goroutines == 0 || st.Runtime.HeapBytes == 0 {
		t.Errorf("runtime block empty: %+v", st.Runtime)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"surge_ingest_ack_seconds{quantile=\"0.5\"}",
		"surge_ingest_ack_seconds{quantile=\"0.999\"}",
		"surge_ingest_ack_seconds_count",
		"surge_loop_lag_seconds{quantile=\"0.99\"}",
		"surge_sse_delivery_seconds{quantile=\"0.5\"}",
		"surge_shard_flush_events{quantile=\"0.5\"}",
		"surge_build_info{version=",
		"surge_last_ingest_age_seconds",
		"surge_runtime_gc_pause_seconds{quantile=\"0.99\"}",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version == "" || h.GoVersion == "" {
		t.Errorf("health missing build info: %+v", h)
	}
	if h.LastIngestAgeSec < 0 || h.LastIngestAgeSec > 60 {
		t.Errorf("health last-ingest age %v, want a small positive age", h.LastIngestAgeSec)
	}
}

// TestHealthLastIngestAgeBeforeTraffic: -1 means "never ingested".
func TestHealthLastIngestAgeBeforeTraffic(t *testing.T) {
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1), TimePolicy: Clamp,
	})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.LastIngestAgeSec != -1 {
		t.Fatalf("pre-ingest last_ingest_age_sec = %v, want -1", h.LastIngestAgeSec)
	}
}

// TestIngestSteadyStateAllocs guards the zero-allocation ingest contract
// with the instrumentation ON: the steady-state HTTP ingest path must stay
// well under one heap allocation per object (per-request and per-chunk
// overheads amortize across the body; the recording sites themselves must
// contribute zero). It runs a sharded single-query server and a registry of
// four queries on one shared window, fanned out over the tenant pool.
func TestIngestSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sharded", Config{Algorithm: surge.CellCSPOT, Options: testOptions(2), TimePolicy: Clamp, BatchSize: 512}},
		{"registry", Config{Algorithm: surge.GridApprox, Options: testOptions(1), TimePolicy: Clamp, BatchSize: 512,
			Queries: []client.QueryConfig{{ID: "wide", Width: 3}, {ID: "mgaps", Algorithm: "MGAPS"}, {ID: "ccs", Algorithm: "CCS"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) { testIngestSteadyStateAllocs(t, tc.cfg) })
	}
}

func testIngestSteadyStateAllocs(t *testing.T, cfg Config) {
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	objs := testObjects(73, 2048, 6)
	var buf bytes.Buffer
	if err := client.EncodeNDJSON(&buf, objs); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	run := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", client.NDJSON)
		rr := httptest.NewRecorder()
		s.handleIngest(rr, req)
		return rr.Code
	}
	// Warm the pools (chunk buffers, parser scratch) before measuring.
	for i := 0; i < 2; i++ {
		if code := run(); code != http.StatusOK {
			t.Fatalf("warm-up ingest returned %d", code)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if code := run(); code != http.StatusOK {
			panic("ingest failed during alloc measurement")
		}
	})
	perObj := allocs / float64(len(objs))
	if perObj > 0.5 {
		t.Fatalf("steady-state ingest allocates %.3f allocs/obj (%.0f per request), want < 0.5 with instrumentation on",
			perObj, allocs)
	}
	t.Logf("steady-state ingest: %.3f allocs/obj (%.0f per %d-object request)", perObj, allocs, len(objs))
}
