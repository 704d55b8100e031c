package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"surge"
	"surge/client"
	"surge/internal/obs"
	"surge/internal/wal"
)

// newDurableTestServer boots a durable server over dir. The caller crashes
// it with s.Close() (no Shutdown: nothing checkpointed, like a kill) or
// stops it cleanly with s.Shutdown() then s.Close().
func newDurableTestServer(t *testing.T, dir string, cfg Config, dc DurableConfig) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	dc.Dir = dir
	if dc.CheckpointEvery == 0 {
		dc.CheckpointEvery = -1 // deterministic tests drive checkpoints explicitly
	}
	s, err := NewDurable(cfg, dc)
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

// streamBatches feeds objs to c in fixed-size ingest requests.
func streamBatches(t *testing.T, c *client.Client, objs []surge.Object, per int) {
	t.Helper()
	for i := 0; i < len(objs); i += per {
		end := min(i+per, len(objs))
		if _, err := c.Ingest(context.Background(), objs[i:end]); err != nil {
			t.Fatalf("ingest batch at %d: %v", i, err)
		}
	}
}

// answersOf snapshots the served answers that must survive a crash
// bitwise: /v1/best (result, clock, live) and the full /v1/topk.
func answersOf(t *testing.T, c *client.Client) (client.Result, float64, int, []client.Result) {
	t.Helper()
	st, err := c.Best(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := c.TopK(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st.Result, st.Now, st.Live, tk.Results
}

func assertSameAnswers(t *testing.T, label string, c, ref *client.Client) {
	t.Helper()
	res, now, live, tk := answersOf(t, c)
	wres, wnow, wlive, wtk := answersOf(t, ref)
	if !reflect.DeepEqual(res, wres) || now != wnow || live != wlive {
		t.Fatalf("%s: best diverged: got (%+v, now=%v, live=%d) want (%+v, now=%v, live=%d)",
			label, res, now, live, wres, wnow, wlive)
	}
	if !reflect.DeepEqual(tk, wtk) {
		t.Fatalf("%s: topk diverged:\ngot  %+v\nwant %+v", label, tk, wtk)
	}
}

func TestDurableCrashRecovery(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			objs := testObjects(11, 600, 4)
			cfg := Config{Options: testOptions(shards), BatchSize: 64}
			_, _, ref := newTestServer(t, cfg)
			streamBatches(t, ref, objs, 50)

			dir := t.TempDir()
			s1, ts1, c1 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
			streamBatches(t, c1, objs, 50)
			// Crash: no Shutdown, so no checkpoint — boot must replay the
			// whole WAL.
			ts1.Close()
			s1.Close()

			s2, _, c2 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
			h, err := c2.Health(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !h.Durable || h.RecoveredBatches == 0 {
				t.Fatalf("want durable health with replayed batches, got %+v", h)
			}
			assertSameAnswers(t, "after crash recovery", c2, ref)

			// Clean shutdown persists a checkpoint; the next boot replays
			// nothing and still serves the same answers.
			if _, err := s2.Shutdown(); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			_, _, c3 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
			h, err = c3.Health(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if h.RecoveredBatches != 0 {
				t.Fatalf("clean shutdown should leave nothing to replay, got %d batches", h.RecoveredBatches)
			}
			assertSameAnswers(t, "after clean restart", c3, ref)
		})
	}
}

func TestDurableTornTailRecovery(t *testing.T) {
	objs := testObjects(23, 400, 4)
	cfg := Config{Options: testOptions(2), BatchSize: 64}
	_, _, ref := newTestServer(t, cfg)
	streamBatches(t, ref, objs, 40)

	dir := t.TempDir()
	s1, ts1, c1 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	streamBatches(t, c1, objs, 40)
	ts1.Close()
	s1.Close()

	// A torn tail: garbage after the last complete frame, as a crash mid-
	// write leaves it. Recovery must truncate exactly the garbage and keep
	// every complete frame.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	sort.Strings(segs)
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, c2 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	h, err := c2.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.WALTornBytes != int64(len(garbage)) {
		t.Fatalf("torn bytes = %d, want %d", h.WALTornBytes, len(garbage))
	}
	assertSameAnswers(t, "after torn-tail recovery", c2, ref)
}

func TestDurableCheckpointCompaction(t *testing.T) {
	objs := testObjects(31, 500, 4)
	// Clamp: the post-checkpoint tail restarts its clock, and replay must
	// reproduce the same clamping from the restored stream clock.
	cfg := Config{Options: testOptions(1), BatchSize: 32, TimePolicy: Clamp}
	dir := t.TempDir()
	// Tiny segments so the stream rotates many times.
	s, _, c := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff, SegmentBytes: 4 << 10})
	streamBatches(t, c, objs, 32)
	if got := s.wal.log.Segments(); got < 3 {
		t.Fatalf("want several wal segments before compaction, got %d", got)
	}
	if err := s.checkpointDurable(); err != nil {
		t.Fatal(err)
	}
	if got := s.wal.log.Segments(); got != 1 {
		t.Fatalf("checkpoint should compact to the one active segment, got %d", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "surge.ckpt")); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	if got := s.ckpts.Load(); got != 1 {
		t.Fatalf("checkpoints written = %d, want 1", got)
	}

	// More ingest after the checkpoint: boot replays only the tail.
	tail := testObjects(37, 100, 4)
	streamBatches(t, c, tail, 32)
	_, _, refc := newTestServer(t, cfg)
	streamBatches(t, refc, objs, 32)
	streamBatches(t, refc, tail, 32)

	s.Close() // crash: the post-checkpoint tail exists only in the WAL
	s2, _, c2 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff, SegmentBytes: 4 << 10})
	if s2.wal.recBatches == 0 || s2.wal.recBatches >= uint64(len(objs)+len(tail))/32 {
		t.Fatalf("want a partial replay of just the tail, replayed %d batches", s2.wal.recBatches)
	}
	assertSameAnswers(t, "after checkpoint+tail recovery", c2, refc)
}

// TestDurableStaleCheckpointDropped pins persistCheckpoint's ordering: a
// checkpoint captured earlier (lower generation ticket) that reaches the
// disk after a newer one — the background loop racing Shutdown/Restore —
// must be dropped, not rolled over surge.ckpt. The newer checkpoint already
// compacted the WAL frames between the two positions, so the rollback would
// lose acknowledged batches at the next boot.
func TestDurableStaleCheckpointDropped(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Options: testOptions(1), BatchSize: 32, TimePolicy: Clamp}
	s, _, c := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	streamBatches(t, c, testObjects(67, 100, 4), 50)

	// Capture an early checkpoint on the loop, as checkpointLoop does...
	var oldRC regCapture
	var oldLSN, oldGen uint64
	var oldErr error
	if err := s.do(func() {
		oldRC, oldErr = s.captureRegistry()
		oldLSN = s.wal.log.LastLSN()
		oldGen = s.wal.ckptGen.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if oldErr != nil {
		t.Fatal(oldErr)
	}
	// ...then advance the stream and persist a newer checkpoint before the
	// early capture lands.
	streamBatches(t, c, testObjects(71, 100, 4), 50)
	if err := s.checkpointDurable(); err != nil {
		t.Fatal(err)
	}
	newLSN := s.wal.log.LastLSN()
	if err := s.persistCheckpoint(oldRC, oldLSN, oldGen); err != nil {
		t.Fatal(err)
	}
	ck, err := readDurableCheckpoint(filepath.Join(dir, "surge.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.lsn != newLSN {
		t.Fatalf("stale checkpoint rolled surge.ckpt back: lsn %d, want %d", ck.lsn, newLSN)
	}
}

// TestDurableLSNReuseAfterCleanRestart reboots from a clean shutdown (whose
// compaction left the WAL empty, i.e. ending before the checkpoint), ingests
// more, and crashes. Boot must renumber the log past the checkpoint: frames
// reusing covered LSNs would be skipped by Replay(after=ckpt.lsn) and the
// acknowledged tail silently lost.
func TestDurableLSNReuseAfterCleanRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Options: testOptions(1), BatchSize: 32, TimePolicy: Clamp}
	head := testObjects(73, 200, 4)
	tail := testObjects(79, 100, 4)

	s1, ts1, c1 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	streamBatches(t, c1, head, 40)
	if _, err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	s2, ts2, c2 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	streamBatches(t, c2, tail, 40)
	ts2.Close()
	s2.Close() // crash: the tail exists only in the WAL

	_, _, c3 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	_, _, refc := newTestServer(t, cfg)
	streamBatches(t, refc, head, 40)
	streamBatches(t, refc, tail, 40)
	assertSameAnswers(t, "after restart+crash recovery", c3, refc)
}

// TestDecodeWALRecordCorruptCount feeds decode a CRC-framed record whose
// object count is absurd: the length check must reject it instead of
// wrapping the product and attempting a huge allocation.
func TestDecodeWALRecordCorruptCount(t *testing.T) {
	buf := []byte{walRecordVersion}
	buf = binary.AppendUvarint(buf, 0)     // empty source
	buf = binary.AppendUvarint(buf, 0)     // sequence
	buf = binary.AppendUvarint(buf, 0)     // chunk
	buf = binary.AppendUvarint(buf, 1<<59) // cnt*32 wraps to 0 == len(rest)
	if _, _, _, _, err := decodeWALRecord(buf, nil); !errors.Is(err, errBadWALRecord) {
		t.Fatalf("want errBadWALRecord, got %v", err)
	}
}

func TestIngestSeqDuplicateReplaysAck(t *testing.T) {
	s, _, c := newTestServer(t, Config{Options: testOptions(1), TimePolicy: Clamp})
	objs := testObjects(41, 120, 4)
	ack1, err := c.IngestSeq(context.Background(), "sensor-a", 1, objs)
	if err != nil {
		t.Fatal(err)
	}
	applied := s.objects.Load()
	ack2, err := c.IngestSeq(context.Background(), "sensor-a", 1, objs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ack1, ack2) {
		t.Fatalf("duplicate ack differs:\nfirst  %+v\nsecond %+v", ack1, ack2)
	}
	if got := s.objects.Load(); got != applied {
		t.Fatalf("duplicate was re-applied: objects %d -> %d", applied, got)
	}
	// The next sequence still applies normally.
	if _, err := c.IngestSeq(context.Background(), "sensor-a", 2, objs[:10]); err != nil {
		t.Fatal(err)
	}
	if got := s.objects.Load(); got != applied+10 {
		t.Fatalf("next sequence not applied: objects = %d, want %d", got, applied+10)
	}
}

func TestIngestSeqOutOfOrder(t *testing.T) {
	_, _, c := newTestServer(t, Config{Options: testOptions(1)})
	objs := testObjects(43, 20, 4)
	if _, err := c.IngestSeq(context.Background(), "src", 5, objs); err != nil {
		t.Fatal(err)
	}
	_, err := c.IngestSeq(context.Background(), "src", 4, objs)
	if !errors.Is(err, client.ErrSeqOutOfOrder) {
		t.Fatalf("want ErrSeqOutOfOrder, got %v", err)
	}
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != http.StatusConflict || ce.Code != client.CodeSeqOutOfOrder {
		t.Fatalf("want 409 %s, got %+v", client.CodeSeqOutOfOrder, ce)
	}
}

func TestIngestSeqConflict(t *testing.T) {
	s, _, c := newTestServer(t, Config{Options: testOptions(1)})
	s.seqMu.Lock()
	s.seqs["src"] = &sourceSeq{seq: 1, active: true}
	s.seqMu.Unlock()
	_, err := c.IngestSeq(context.Background(), "src", 2, testObjects(47, 10, 4))
	if !errors.Is(err, client.ErrSeqConflict) {
		t.Fatalf("want ErrSeqConflict, got %v", err)
	}
}

func TestDurableSeqSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Options: testOptions(2), BatchSize: 64}
	objs := testObjects(53, 150, 4)
	s1, ts1, c1 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	ack1, err := c1.IngestSeq(context.Background(), "feeder", 1, objs)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close() // crash before any checkpoint

	s2, _, c2 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	applied := s2.objects.Load()
	// The retry of the batch whose ack could have been lost must replay the
	// original ack without re-applying anything.
	ack2, err := c2.IngestSeq(context.Background(), "feeder", 1, objs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ack1, ack2) {
		t.Fatalf("replayed ack differs across restart:\nfirst  %+v\nsecond %+v", ack1, ack2)
	}
	if got := s2.objects.Load(); got != applied {
		t.Fatalf("retry after restart re-applied data: objects %d -> %d", applied, got)
	}
}

func TestAdmissionControl429(t *testing.T) {
	s, ts, c := newTestServer(t, Config{Options: testOptions(1), MaxPending: 1})
	// Wedge the event loop so submitted chunks pile up.
	block := make(chan struct{})
	go s.do(func() { <-block })
	defer close(block)

	// First ingest occupies the single admission slot (blocked on the
	// wedged loop); wait until it is counted.
	go c.Ingest(context.Background(), testObjects(59, 5, 4))
	deadline := time.Now().Add(2 * time.Second)
	for s.pendingChunks.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first chunk never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := c.Ingest(context.Background(), testObjects(61, 5, 4))
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != http.StatusTooManyRequests || ce.RetryAfterSec <= 0 {
		t.Fatalf("want 429 with a retry hint, got %+v", ce)
	}

	// The Retry-After header itself must be parseable by generic clients.
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader("{\"time\":1,\"x\":1,\"y\":1}\n{\"time\":2,\"x\":1,\"y\":1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", resp.StatusCode)
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec < 1 {
		t.Fatalf("unparseable Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	if s.throttled.Load() < 2 {
		t.Fatalf("throttled counter = %d, want >= 2", s.throttled.Load())
	}
}

// recoveryShape is one deployment and traffic shape whose crash recovery
// must reproduce a plain server fed the same requests.
type recoveryShape struct {
	name string
	cfg  Config
	// feed sends the shape's requests and returns the last Ingest-Seq
	// request with its ack (nil when the shape sends none).
	feed func(t *testing.T, c *client.Client) *seqRequest
}

// seqRequest is one acknowledged Ingest-Seq request.
type seqRequest struct {
	seq  uint64
	objs []surge.Object
	ack  *client.IngestResult
}

// recoveryStream is the shapes' object stream: 900 objects over ~450 time
// units, 7.5 spans of the 30+30 windows (9 of the 60+40 count windows).
func recoveryStream() []surge.Object { return testObjects(83, 900, 4) }

// feedPlain sends objs as unsequenced requests of per objects.
func feedPlain(objs []surge.Object, per int) func(*testing.T, *client.Client) *seqRequest {
	return func(t *testing.T, c *client.Client) *seqRequest {
		streamBatches(t, c, objs, per)
		return nil
	}
}

// assertSameQueryAnswers is assertSameAnswers for a named query.
func assertSameQueryAnswers(t *testing.T, label string, q, ref *client.Query) {
	t.Helper()
	ctx := context.Background()
	st, err := q.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Result, want.Result) || st.Now != want.Now || st.Live != want.Live {
		t.Fatalf("%s: best diverged: got (%+v, now=%v, live=%d) want (%+v, now=%v, live=%d)",
			label, st.Result, st.Now, st.Live, want.Result, want.Now, want.Live)
	}
	tk, err := q.TopK(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wtk, err := ref.TopK(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tk.Results, wtk.Results) {
		t.Fatalf("%s: topk diverged:\ngot  %+v\nwant %+v", label, tk.Results, wtk.Results)
	}
}

func recoveryShapes() []recoveryShape {
	objs := recoveryStream()
	late := append([]surge.Object(nil), objs...)
	for i := 5; i < len(late); i += 9 {
		late[i].Time -= 4 // a late arrival, lifted to the clock under Clamp
	}
	countOpts := surge.Options{Width: 1, Height: 1, Window: 60, PastWindow: 40, Alpha: 0.5, CountWindows: true}
	return []recoveryShape{
		{name: "shards=1", cfg: Config{Options: testOptions(1), BatchSize: 64}, feed: feedPlain(objs, 50)},
		{name: "shards=2", cfg: Config{Options: testOptions(2), BatchSize: 64}, feed: feedPlain(objs, 50)},
		{name: "clamp-late", cfg: Config{Options: testOptions(1), BatchSize: 64, TimePolicy: Clamp}, feed: feedPlain(late, 50)},
		{name: "strict-rejected-chunk", cfg: Config{Options: testOptions(1), BatchSize: 64},
			feed: func(t *testing.T, c *client.Client) *seqRequest {
				for i := 0; i < len(objs); i += 50 {
					chunk := objs[i:min(i+50, len(objs))]
					if i != 400 {
						streamBatches(t, c, chunk, 50)
						continue
					}
					// An out-of-order object mid-chunk: the strict policy
					// rejects the whole chunk before the log sees it.
					bad := append([]surge.Object(nil), chunk...)
					bad[25].Time = bad[0].Time - 10
					if _, err := c.Ingest(context.Background(), bad); err == nil {
						t.Fatal("strict server accepted an out-of-order object")
					}
				}
				return nil
			}},
		{name: "three-query-registry", cfg: Config{Options: testOptions(1), BatchSize: 64, TimePolicy: Clamp,
			Queries: []client.QueryConfig{{ID: "wide", Width: 2, Window: 45}, {ID: "gaps", Algorithm: "GAPS"}}},
			feed: feedPlain(late, 50)},
		{name: "count-windows", cfg: Config{Options: countOpts, BatchSize: 64}, feed: feedPlain(objs, 50)},
		{name: "mixed-seq", cfg: Config{Options: testOptions(2), BatchSize: 32, TimePolicy: Clamp}, feed: feedMixedSeq(late)},
		// Four fresh queries on one 30 s window, fed once per batch; the
		// Ingest-Seq records make every chain consume a live batch while it
		// holds the unsequenced records' objects back.
		{name: "shared-window", cfg: Config{Options: testOptions(1), BatchSize: 32, TimePolicy: Clamp,
			Queries: []client.QueryConfig{{ID: "gaps", Algorithm: "GAPS"}, {ID: "mgaps", Algorithm: "MGAPS", Width: 1.5},
				{ID: "wide", Width: 2, Shards: 2}}},
			feed: feedMixedSeq(late)},
	}
}

// feedMixedSeq sends objs in requests of 50, one in three unsequenced and
// the others as Ingest-Seq requests, and returns the last sequenced one.
func feedMixedSeq(objs []surge.Object) func(*testing.T, *client.Client) *seqRequest {
	return func(t *testing.T, c *client.Client) *seqRequest {
		var last *seqRequest
		for i, r := 0, 0; i < len(objs); i, r = i+50, r+1 {
			chunk := objs[i:min(i+50, len(objs))]
			if r%3 == 0 { // one request in three is unsequenced
				streamBatches(t, c, chunk, 50)
				continue
			}
			ack, err := c.IngestSeq(context.Background(), "feeder", uint64(r), chunk)
			if err != nil {
				t.Fatal(err)
			}
			last = &seqRequest{seq: uint64(r), objs: chunk, ack: ack}
		}
		if last == nil {
			t.Fatal("mixed feed sent no Ingest-Seq request")
		}
		return last
	}
}

// TestDurableRecoveryShapes crashes a durable server after a log spanning
// several windows and requires the recovered server to answer every query
// as a plain server fed the same requests, and to report the pre-crash
// counters and clock. Recovery shows each chain only the objects still
// live, so this pins that the shortcut is invisible in every replay shape:
// sharded pipelines, clamping, a rejected chunk, the multi-slot pool,
// count windows, and Ingest-Seq records applied exactly among unsequenced
// ones.
func TestDurableRecoveryShapes(t *testing.T) {
	for _, sh := range recoveryShapes() {
		t.Run(sh.name, func(t *testing.T) {
			ctx := context.Background()
			_, _, ref := newTestServer(t, sh.cfg)
			sh.feed(t, ref)

			dir := t.TempDir()
			s1, ts1, c1 := newDurableTestServer(t, dir, sh.cfg, DurableConfig{Sync: wal.SyncOff})
			last := sh.feed(t, c1)
			pre, err := c1.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ts1.Close()
			s1.Close() // crash: boot replays the whole log

			s2, _, c2 := newDurableTestServer(t, dir, sh.cfg, DurableConfig{Sync: wal.SyncOff})
			if s2.wal.recBatches == 0 {
				t.Fatal("recovery replayed nothing")
			}
			if len(s2.slots) != 1+len(sh.cfg.Queries) {
				t.Fatalf("%d engine slots for %d queries, want one each", len(s2.slots), 1+len(sh.cfg.Queries))
			}
			if sh.cfg.TimePolicy == Clamp && pre.Clamped == 0 {
				t.Fatal("a clamp shape clamped nothing; the test lost its coverage")
			}
			assertSameAnswers(t, "default query", c2, ref)
			for _, q := range sh.cfg.Queries {
				assertSameQueryAnswers(t, q.ID, c2.Query(q.ID), ref.Query(q.ID))
			}
			post, err := c2.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// The clamp count is server-wide: the stream clock is decided
			// once for every query, so there is no per-query count to keep.
			if post.Objects != pre.Objects || post.Clamped != pre.Clamped || post.Now != pre.Now || post.Live != pre.Live ||
				post.WAL.RecoveredObjects != pre.Objects {
				t.Fatalf("stats after recovery: objects %d clamped %d now %v live %d recovered %d; before the crash objects %d clamped %d now %v live %d",
					post.Objects, post.Clamped, post.Now, post.Live, post.WAL.RecoveredObjects, pre.Objects, pre.Clamped, pre.Now, pre.Live)
			}
			if len(post.Queries) != len(pre.Queries) {
				t.Fatalf("%d queries after recovery, %d before", len(post.Queries), len(pre.Queries))
			}
			for i, q := range post.Queries {
				p := pre.Queries[i]
				if q.ID != p.ID || q.Live != p.Live || q.Now != p.Now {
					t.Fatalf("query %q after recovery: live %d now %v; before: live %d now %v",
						q.ID, q.Live, q.Now, p.Live, p.Now)
				}
			}

			if last != nil {
				// The retry of the last sequenced request, whose ack could
				// have been lost in the crash, replays the original ack
				// without re-applying anything.
				ack, err := c2.IngestSeq(ctx, "feeder", last.seq, last.objs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ack, last.ack) {
					t.Fatalf("replayed ack differs across the crash:\nfirst  %+v\nretry  %+v", last.ack, ack)
				}
				if got := s2.objects.Load(); got != pre.Objects {
					t.Fatalf("retry after recovery re-applied data: objects %d -> %d", pre.Objects, got)
				}
			}
		})
	}
}

// TestStrictRejectedChunkNeverLogged pins that the strict policy decides
// before the WAL append: a chunk earlier than the stream clock is rejected
// whole, leaves the clock where it was and never reaches the log, so
// recovery replays — and reports — only the acknowledged objects.
func TestStrictRejectedChunkNeverLogged(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{Options: testOptions(1), BatchSize: 64}
	s1, ts1, c1 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	objs := testObjects(67, 300, 4)
	streamBatches(t, c1, objs, 50)
	clock := objs[len(objs)-1].Time
	at := func(tm float64) surge.Object { return surge.Object{X: 1, Y: 1, Weight: 1, Time: tm} }
	// In order within the request, but its first object is behind the clock.
	if _, err := c1.Ingest(ctx, []surge.Object{at(clock - 1), at(clock + 1)}); err == nil {
		t.Fatal("strict server accepted an object behind the stream clock")
	}
	// Ahead, then behind: the whole chunk is rejected, so the clock does
	// not move to clock+2 and clock+1 is still in order afterwards.
	if _, err := c1.Ingest(ctx, []surge.Object{at(clock + 2), at(clock - 1)}); err == nil {
		t.Fatal("strict server accepted an out-of-order object")
	}
	if _, err := c1.Ingest(ctx, []surge.Object{at(clock + 1)}); err != nil {
		t.Fatalf("a rejected chunk moved the stream clock: %v", err)
	}
	pre, err := c1.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	var logs bytes.Buffer
	cfg.Logger = slog.New(slog.NewJSONHandler(&logs, nil))
	_, _, c2 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	replayed := -1.0
	for _, line := range strings.Split(logs.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == "durable recovery complete" {
			replayed, _ = rec["replayed_objects"].(float64)
		}
	}
	post, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := len(objs) + 1
	if pre.Objects != uint64(want) || post.WAL.RecoveredObjects != uint64(want) || replayed != float64(want) {
		t.Fatalf("objects acked %d, recovered %d, replayed_objects logged %v; want %d each",
			pre.Objects, post.WAL.RecoveredObjects, replayed, want)
	}
	if post.Now != clock+1 {
		t.Fatalf("recovered clock %v, want %v", post.Now, clock+1)
	}
}

// TestDurableReplayIsNoIngest pins that boot replay does not pose as live
// ingest: it adds no sample to the ingest and loop histograms (obs.Default
// is process-wide, so the test compares counts across the boot), and a
// recovered server nobody has fed reports last_ingest_age_sec = -1. It
// reports itself through the WAL recovery fields instead.
func TestDurableReplayIsNoIngest(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Options: testOptions(1), BatchSize: 32, TimePolicy: Clamp}
	s1, ts1, c1 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	streamBatches(t, c1, recoveryStream(), 40)
	// A sequenced record too: replay applies it exactly, still no ingest.
	if _, err := c1.IngestSeq(context.Background(), "feeder", 1, testObjects(89, 40, 4)); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	hists := map[string]*obs.Histogram{
		"apply":      s1.mApply,
		"batch":      s1.mBatchObjs,
		"queue_wait": s1.mQueueWait,
	}
	before := map[string]uint64{}
	for name, h := range hists {
		before[name] = h.Count()
	}
	s2, _, c2 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	for name, h := range hists {
		if got := h.Count(); got != before[name] {
			t.Errorf("%s histogram: %d samples after the boot, %d before", name, got, before[name])
		}
	}
	if s2.wal.recBatches == 0 {
		t.Fatal("recovery replayed nothing")
	}
	h, err := c2.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.LastIngestAgeSec != -1 || h.RecoveredBatches != s2.wal.recBatches {
		t.Fatalf("health after recovery: last_ingest_age_sec %v (want -1), recovered batches %d (want %d)",
			h.LastIngestAgeSec, h.RecoveredBatches, s2.wal.recBatches)
	}
	if _, err := c2.Ingest(context.Background(), []surge.Object{{X: 1, Y: 1, Weight: 1, Time: 1e6}}); err != nil {
		t.Fatal(err)
	}
	if h, err = c2.Health(context.Background()); err != nil || h.LastIngestAgeSec < 0 {
		t.Fatalf("health after the first ingest: last_ingest_age_sec %v, err %v", h.LastIngestAgeSec, err)
	}
}
