package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"surge"
	"surge/client"
	"surge/internal/core"
	"surge/internal/wal"
)

// queryAPI is the read surface shared by a Client (legacy single-query
// paths) and a Query handle (/v1/queries/{id}/ paths), so equivalence
// assertions can mix both.
type queryAPI interface {
	Best(ctx context.Context) (*client.State, error)
	TopK(ctx context.Context, k int) (*client.TopK, error)
}

// assertQueriesAgree asserts got and want serve bitwise-identical answers:
// /best (result, clock, live) and the full /topk.
func assertQueriesAgree(t *testing.T, label string, got, want queryAPI) {
	t.Helper()
	ctx := context.Background()
	g, err := got.Best(ctx)
	if err != nil {
		t.Fatalf("%s: best: %v", label, err)
	}
	w, err := want.Best(ctx)
	if err != nil {
		t.Fatalf("%s: ref best: %v", label, err)
	}
	if !reflect.DeepEqual(g.Result, w.Result) || g.Now != w.Now || g.Live != w.Live {
		t.Fatalf("%s: best diverged:\ngot  (%+v, now=%v, live=%d)\nwant (%+v, now=%v, live=%d)",
			label, g.Result, g.Now, g.Live, w.Result, w.Now, w.Live)
	}
	gtk, err := got.TopK(ctx, 0)
	if err != nil {
		t.Fatalf("%s: topk: %v", label, err)
	}
	wtk, err := want.TopK(ctx, 0)
	if err != nil {
		t.Fatalf("%s: ref topk: %v", label, err)
	}
	if !reflect.DeepEqual(gtk.Results, wtk.Results) {
		t.Fatalf("%s: topk diverged:\ngot  %+v\nwant %+v", label, gtk.Results, wtk.Results)
	}
}

// TestMultiQueryMatchesIndependentServers is the tenancy consistency
// guarantee: every query of a multi-query server answers bitwise
// identically to an independent single-query server of the same
// configuration fed the same stream with the same batch boundaries — for
// the default query, a boot-declared query of different geometry, a twin
// sharing the default's engine slot, and a query created mid-stream at
// runtime. A mid-stream checkpoint/restore round trip (which unshares the
// twin) must preserve the equivalence.
func TestMultiQueryMatchesIndependentServers(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			const batch = 64
			objs := testObjects(400+uint64(shards), 1200, 6)
			half := len(objs) / 2

			mcfg := Config{
				Algorithm: surge.CellCSPOT, Options: testOptions(shards),
				BatchSize: batch, TimePolicy: Clamp,
				Queries: []client.QueryConfig{
					{ID: "wide", Width: 2, Window: 45, Shards: shards},
					{ID: "twin", Shards: shards},
				},
			}
			ms, _, mc := newTestServer(t, mcfg)

			base := Config{Algorithm: surge.CellCSPOT, Options: testOptions(shards), BatchSize: batch, TimePolicy: Clamp}
			_, _, refDef := newTestServer(t, base)
			wideCfg := base
			wideCfg.Options.Width = 2
			wideCfg.Options.Window = 45
			_, _, refWide := newTestServer(t, wideCfg)

			// The twin must share the default's engine slot at boot.
			if len(ms.slots) != 2 {
				t.Fatalf("boot built %d engine slots for 3 queries (default+twin shared, wide private), want 2", len(ms.slots))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			info, err := mc.Query("twin").Info(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Shared {
				t.Fatal("twin does not report its engine slot as shared")
			}

			streamBatches(t, mc, objs[:half], batch)
			streamBatches(t, refDef, objs[:half], batch)
			streamBatches(t, refWide, objs[:half], batch)
			assertQueriesAgree(t, "default vs independent (first half)", mc, refDef)
			assertQueriesAgree(t, "wide vs independent (first half)", mc.Query("wide"), refWide)
			assertQueriesAgree(t, "twin vs independent (first half)", mc.Query("twin"), refDef)

			// Runtime create: a fresh query and a fresh independent server see
			// only the second half and must agree on it.
			if _, err := mc.CreateQuery(ctx, client.QueryConfig{ID: "late", Shards: shards}); err != nil {
				t.Fatal(err)
			}
			_, _, refLate := newTestServer(t, base)

			// Checkpoint/restore round trip, crossing the server boundary both
			// ways: the tenant restores the independent server's state and vice
			// versa. Restoring the twin unshares it from the default slot.
			ck, err := refWide.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mc.Query("wide").Restore(ctx, ck); err != nil {
				t.Fatal(err)
			}
			tck, err := mc.Query("twin").Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mc.Query("twin").Restore(ctx, tck); err != nil {
				t.Fatal(err)
			}
			if len(ms.slots) != 4 {
				t.Fatalf("after unsharing restore: %d engine slots, want 4", len(ms.slots))
			}

			streamBatches(t, mc, objs[half:], batch)
			streamBatches(t, refDef, objs[half:], batch)
			streamBatches(t, refWide, objs[half:], batch)
			streamBatches(t, refLate, objs[half:], batch)
			assertQueriesAgree(t, "default vs independent (full)", mc, refDef)
			assertQueriesAgree(t, "wide vs independent (after cross-restore)", mc.Query("wide"), refWide)
			assertQueriesAgree(t, "twin vs independent (after unshare)", mc.Query("twin"), refDef)
			assertQueriesAgree(t, "late vs independent (tail only)", mc.Query("late"), refLate)
		})
	}
}

// TestQueryRegistryCRUD drives the registry lifecycle over the wire:
// create, list, info, duplicate rejection, deletion, and the 404
// unknown_query contract after deletion.
func TestQueryRegistryCRUD(t *testing.T) {
	_, _, c := newTestServer(t, Config{Algorithm: surge.CellCSPOT, Options: testOptions(1)})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	info, err := c.CreateQuery(ctx, client.QueryConfig{ID: "ops", Width: 2, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "ops" || info.Width != 2 || info.TopK != 3 || info.Default {
		t.Fatalf("created query info %+v", info)
	}
	if info.Algorithm != surge.CellCSPOT.String() {
		t.Fatalf("created query did not inherit the algorithm: %q", info.Algorithm)
	}

	// Duplicate create → 409; the default id is always taken.
	for _, id := range []string{"ops", "default"} {
		_, err := c.CreateQuery(ctx, client.QueryConfig{ID: id})
		var werr *client.Error
		if !errors.As(err, &werr) || werr.Status != http.StatusConflict {
			t.Fatalf("duplicate create %q = %v, want 409", id, err)
		}
	}
	// Invalid ids and configs → 400.
	for _, qc := range []client.QueryConfig{
		{ID: ""}, {ID: "no/slash"}, {ID: strings.Repeat("x", 65)},
		{ID: "badalg", Algorithm: "nope"}, {ID: "badk", TopK: -1},
	} {
		_, err := c.CreateQuery(ctx, qc)
		var werr *client.Error
		if !errors.As(err, &werr) || werr.Status != http.StatusBadRequest {
			t.Fatalf("create %+v = %v, want 400", qc, err)
		}
	}
	// The chainless baselines are not served: 400 naming the served set,
	// at create and at boot alike.
	for _, alg := range []string{"Oracle", "aG2"} {
		_, err := c.CreateQuery(ctx, client.QueryConfig{ID: "baseline", Algorithm: alg})
		var werr *client.Error
		if !errors.As(err, &werr) || werr.Status != http.StatusBadRequest ||
			!strings.Contains(werr.Err, "served: CCS, B-CCS, Base, GAPS, MGAPS") {
			t.Fatalf("create with algorithm %s = %v, want a 400 naming the served algorithms", alg, err)
		}
	}
	for _, alg := range []surge.Algorithm{surge.Oracle, surge.AG2} {
		if _, err := New(Config{Algorithm: alg, Options: testOptions(1)}); err == nil ||
			!strings.Contains(err.Error(), "served: CCS, B-CCS, Base, GAPS, MGAPS") {
			t.Fatalf("New with algorithm %v = %v, want an error naming the served algorithms", alg, err)
		}
	}

	ql, err := c.Queries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ql.Queries) != 2 || ql.Queries[0].ID != DefaultQueryID || !ql.Queries[0].Default || ql.Queries[1].ID != "ops" {
		t.Fatalf("query list %+v, want [default, ops]", ql.Queries)
	}

	// The named query serves its own read surface.
	if _, err := c.Query("ops").Best(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Query("ops").Stats(ctx); err != nil || st.ID != "ops" {
		t.Fatalf("ops stats = %+v, %v", st, err)
	}

	// Deleting the default is rejected; deleting ops works and later
	// requests fail with the typed 404.
	if err := c.Query(DefaultQueryID).Delete(ctx); err == nil {
		t.Fatal("deleting the default query succeeded")
	}
	if err := c.Query("ops").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []func() error{
		func() error { _, err := c.Query("ops").Best(ctx); return err },
		func() error { _, err := c.Query("ops").Stats(ctx); return err },
		func() error { _, err := c.Query("ops").Info(ctx); return err },
		func() error { return c.Query("ops").Delete(ctx) },
		func() error { _, err := c.Query("ops").Subscribe(ctx); return err },
	} {
		err := probe()
		if !errors.Is(err, client.ErrUnknownQuery) {
			t.Fatalf("request to a deleted query = %v, want ErrUnknownQuery", err)
		}
		var werr *client.Error
		if !errors.As(err, &werr) || werr.Status != http.StatusNotFound || werr.Code != client.CodeUnknownQuery {
			t.Fatalf("deleted-query error = %+v, want 404 %s", err, client.CodeUnknownQuery)
		}
	}
}

// TestTenantIsolationSlowConsumer pins the SSE isolation guarantee: a
// subscriber of one query that never drains its buffer loses only its own
// frames — a subscriber of another query (even one sharing the engine slot)
// receives every notification with a zero drop account.
func TestTenantIsolationSlowConsumer(t *testing.T) {
	s, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1),
		BatchSize: 1, TimePolicy: Strict, SubscriberBuffer: 8,
		Queries: []client.QueryConfig{{ID: "slowq"}, {ID: "fastq"}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Plant the subscribers directly in the hubs so the outcome is
	// deterministic: slowq's never drains a 1-slot buffer, fastq's holds
	// more frames than the stream can publish.
	stuck := &subscriber{ch: make(chan frame, 1)}
	roomy := &subscriber{ch: make(chan frame, 1024)}
	s.tenMu.RLock()
	s.tenants["slowq"].hub.add(stuck)
	s.tenants["fastq"].hub.add(roomy)
	s.tenMu.RUnlock()

	// One object per batch at one growing point: every batch changes the
	// answer, one notification per object.
	const n = 120
	objs := make([]surge.Object, n)
	for i := range objs {
		objs[i] = surge.Object{X: 2, Y: 2, Weight: 5, Time: float64(i)}
	}
	if _, err := c.Ingest(ctx, objs); err != nil {
		t.Fatal(err)
	}

	slow, err := c.Query("slowq").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.Query("fastq").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Dropped == 0 {
		t.Fatal("stuck subscriber reported no drops; the test did not exercise the slow-consumer path")
	}
	if fast.Dropped != 0 {
		t.Fatalf("fastq charged %d drops for slowq's stuck subscriber", fast.Dropped)
	}
	// The roomy subscriber must hold every burst notification of its query,
	// in order, each with a zero drop account.
	var got uint64
	for done := false; !done; {
		select {
		case f := <-roomy.ch:
			if f.topk {
				continue
			}
			got++
			if f.dropped() != 0 {
				t.Fatalf("fastq frame seq %d carries dropped=%d", f.burst.Seq, f.dropped())
			}
			if f.burst.Seq != got {
				t.Fatalf("fastq notification gap: seq %d after %d delivered", f.burst.Seq, got-1)
			}
		default:
			done = true
		}
	}
	if got != fast.Notifications {
		t.Fatalf("fastq delivered %d notifications, published %d", got, fast.Notifications)
	}
}

// TestTenantIsolationEngineError poisons one query's engine — its chain
// panics in Process once armed (panic_test.go's boomEngine) — and asserts
// the blast radius: that query serves its stale answer and reports the
// error in its stats, while ingest stays acked and the other queries keep
// advancing.
func TestTenantIsolationEngineError(t *testing.T) {
	s, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1),
		BatchSize: 32, TimePolicy: Strict,
	})
	_, _, ref := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1),
		BatchSize: 32, TimePolicy: Strict,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Only the poisoned query's chain is built while the wrap is installed.
	var arm atomic.Bool
	core.TestEngineWrap = func(e any) any {
		if ts, ok := e.(core.TopKShard); ok {
			return &boomEngine{TopKShard: ts, arm: &arm}
		}
		return e
	}
	_, err := s.CreateQuery(client.QueryConfig{ID: "poisoned"})
	core.TestEngineWrap = nil
	if err != nil {
		t.Fatal(err)
	}

	objs := testObjects(77, 600, 4)
	streamBatches(t, c, objs[:300], 32)
	streamBatches(t, ref, objs[:300], 32)
	stale, err := c.Query("poisoned").Best(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Every further batch fails in the poisoned query's chain: ingest must
	// keep acking (the default applied it) and the default must stay
	// bitwise equal to the reference. The first failing batch moved the
	// poisoned window's clock before the chain panicked; from then on the
	// query is frozen.
	arm.Store(true)
	streamBatches(t, c, objs[300:332], 32)
	streamBatches(t, ref, objs[300:332], 32)
	failed, err := c.Query("poisoned").Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(failed.Result, stale.Result) {
		t.Fatalf("poisoned query's answer moved when its chain panicked: %+v -> %+v", stale.Result, failed.Result)
	}
	streamBatches(t, c, objs[332:], 32)
	streamBatches(t, ref, objs[332:], 32)
	assertQueriesAgree(t, "default beside a failing tenant", c, ref)

	qs, err := c.Query("poisoned").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Err == "" || !strings.Contains(qs.Err, "panicked") {
		t.Fatalf("poisoned query stats err = %q, want the chain panic", qs.Err)
	}
	after, err := c.Query("poisoned").Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Result, stale.Result) || after.Now != failed.Now {
		t.Fatalf("poisoned query's answer moved under failing ingest: %+v -> %+v", failed, after)
	}
}

// TestQuerySubscriberQuota pins the per-query subscriber cap: the quota
// rejects the subscriber over the limit with 429 quota_exceeded, counts per
// query (a full query does not block another), and frees on disconnect.
func TestQuerySubscriberQuota(t *testing.T) {
	_, _, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1),
		QueryMaxSubscribers: 1,
		Queries:             []client.QueryConfig{{ID: "other"}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sub, err := c.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Subscribe(ctx)
	if !errors.Is(err, client.ErrQuotaExceeded) {
		t.Fatalf("second subscriber = %v, want ErrQuotaExceeded", err)
	}
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Status != http.StatusTooManyRequests || werr.Code != client.CodeQuotaExceeded {
		t.Fatalf("quota error = %+v, want 429 %s", err, client.CodeQuotaExceeded)
	}
	// The quota is per query: another query still accepts a subscriber.
	osub, err := c.Query("other").Subscribe(ctx)
	if err != nil {
		t.Fatalf("other query's subscriber rejected by default's quota: %v", err)
	}
	osub.Close()
	// Disconnecting frees the slot.
	sub.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sub2, err := c.Subscribe(ctx)
		if err == nil {
			sub2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurableMultiQueryRecovery pins tenant-aware durability: a crash
// (kill, no shutdown checkpoint) recovers the whole registry — boot-time
// queries, a query created at runtime mid-stream, their engine states and
// the WAL tail — bitwise equal to a never-crashed multi-query server fed
// the same sequence. A deleted query must stay deleted across the crash.
func TestDurableMultiQueryRecovery(t *testing.T) {
	objs := testObjects(31, 900, 4)
	cfg := Config{
		Options: testOptions(2), BatchSize: 64,
		Queries: []client.QueryConfig{{ID: "boot", Width: 2, Shards: 2}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	dir := t.TempDir()
	s1, ts1, c1 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	streamBatches(t, c1, objs[:300], 50)
	// The runtime create checkpoints the registry synchronously, so the
	// acknowledged query must exist after the crash.
	if _, err := c1.CreateQuery(ctx, client.QueryConfig{ID: "live", Window: 45, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	streamBatches(t, c1, objs[300:600], 50)
	ts1.Close()
	s1.Close() // crash: the post-create stream exists only in the WAL

	// Never-crashed reference fed the identical sequence.
	_, _, ref := newTestServer(t, cfg)
	streamBatches(t, ref, objs[:300], 50)
	if _, err := ref.CreateQuery(ctx, client.QueryConfig{ID: "live", Window: 45, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	streamBatches(t, ref, objs[300:600], 50)

	s2, ts2, c2 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	ql, err := c2.Queries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, q := range ql.Queries {
		ids = append(ids, q.ID)
	}
	if !reflect.DeepEqual(ids, []string{DefaultQueryID, "boot", "live"}) {
		t.Fatalf("recovered registry %v, want [default boot live]", ids)
	}
	assertQueriesAgree(t, "default after crash", c2, ref)
	assertQueriesAgree(t, "boot query after crash", c2.Query("boot"), ref.Query("boot"))
	assertQueriesAgree(t, "runtime query after crash", c2.Query("live"), ref.Query("live"))

	// The recovered registry keeps answering the continuing stream in
	// lockstep with the reference.
	streamBatches(t, c2, objs[600:], 50)
	streamBatches(t, ref, objs[600:], 50)
	assertQueriesAgree(t, "default after recovery + tail", c2, ref)
	assertQueriesAgree(t, "runtime query after recovery + tail", c2.Query("live"), ref.Query("live"))

	// Delete + crash: the delete's checkpoint keeps the id dead at boot.
	if err := c2.Query("live").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	s2.Close()
	_, _, c3 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	ql, err = c3.Queries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ids = ids[:0]
	for _, q := range ql.Queries {
		ids = append(ids, q.ID)
	}
	if !reflect.DeepEqual(ids, []string{DefaultQueryID, "boot"}) {
		t.Fatalf("registry after deleted-query crash %v, want [default boot]", ids)
	}
	if _, err := c3.Query("live").Best(ctx); !errors.Is(err, client.ErrUnknownQuery) {
		t.Fatalf("deleted query resurrected after crash: %v", err)
	}
}

// TestDurableLegacyCheckpointFiles pins how boot treats surge.ckpt files
// written by earlier releases. A pre-registry "SURGEDC1" file is no longer
// read: boot must abort naming the format and the remedy, never report "bad
// magic" or start empty. A "SURGEDC2" file whose registry JSON still carries
// the removed per-query topk_replay_only / best_from_engines keys must boot
// with the keys ignored and serve that query from its chain.
func TestDurableLegacyCheckpointFiles(t *testing.T) {
	objs := testObjects(53, 400, 4)
	cfg := Config{Options: testOptions(1), BatchSize: 64}
	ctx := context.Background()
	oldQuery := client.QueryConfig{ID: "old", Window: 45}

	// A clean shutdown leaves a SURGEDC2 file recording the default query and
	// a runtime-created one (whose configuration lives only in the file).
	dir := t.TempDir()
	s1, _, c1 := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
	if _, err := c1.CreateQuery(ctx, oldQuery); err != nil {
		t.Fatal(err)
	}
	streamBatches(t, c1, objs[:300], 50)
	if _, err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	ck, err := readDurableCheckpoint(filepath.Join(dir, "surge.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.metas) != 2 || len(ck.slots) != 2 {
		t.Fatalf("checkpoint holds %d queries on %d slots, want 2 on 2", len(ck.metas), len(ck.slots))
	}

	// sections appends length-prefixed sections to a file under assembly.
	sections := func(b []byte, secs ...[]byte) []byte {
		for _, sec := range secs {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(sec)))
			b = append(b, sec...)
		}
		return b
	}
	header := func(magic string) []byte {
		return binary.LittleEndian.AppendUint64([]byte(magic), ck.lsn)
	}
	registry, err := json.Marshal(ck.metas)
	if err != nil {
		t.Fatal(err)
	}
	legacyKeys := strings.ReplaceAll(string(registry), `"topk":5}`,
		`"topk":5,"topk_replay_only":true,"best_from_engines":true}`)
	if strings.Count(legacyKeys, "topk_replay_only") != 2 {
		t.Fatalf("registry JSON not patched: %s", registry)
	}
	v1 := sections(header("SURGEDC1"), []byte("{}"), ck.slots[0])
	v2 := sections(header("SURGEDC2"), []byte("{}"), []byte(legacyKeys))
	v2 = binary.LittleEndian.AppendUint32(v2, uint32(len(ck.slots)))
	v2 = sections(v2, ck.slots...)

	for _, tc := range []struct {
		name    string
		file    []byte
		wantErr []string // substrings of the boot error; nil = must boot
	}{
		{"SURGEDC1", v1, []string{"SURGEDC1", "no longer reads", "previous release", "SURGEDC2"}},
		{"SURGEDC2 with removed registry keys", v2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "surge.ckpt"), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != nil {
				_, err := NewDurable(cfg, DurableConfig{Dir: dir, Sync: wal.SyncOff, CheckpointEvery: -1})
				if err == nil {
					t.Fatal("boot accepted the file")
				}
				for _, want := range tc.wantErr {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("boot error %q does not mention %q", err, want)
					}
				}
				return
			}
			_, _, c := newDurableTestServer(t, dir, cfg, DurableConfig{Sync: wal.SyncOff})
			_, _, ref := newTestServer(t, cfg)
			if _, err := ref.CreateQuery(ctx, oldQuery); err != nil {
				t.Fatal(err)
			}
			streamBatches(t, ref, objs[:300], 50)
			streamBatches(t, c, objs[300:], 50)
			streamBatches(t, ref, objs[300:], 50)
			assertQueriesAgree(t, "default", c, ref)
			assertQueriesAgree(t, "query with removed keys", c.Query("old"), ref.Query("old"))
			tk, err := c.Query("old").TopK(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !tk.Continuous || tk.K != 5 {
				t.Fatalf("query with removed keys not served from its chain: %+v", tk)
			}
		})
	}
}

// TestMultiQueryMetricsAndStats spot-checks the per-query observability
// surface: labelled series on /metrics for every registered query and the
// per-query rows of /v1/stats.
func TestMultiQueryMetricsAndStats(t *testing.T) {
	_, ts, c := newTestServer(t, Config{
		Algorithm: surge.CellCSPOT, Options: testOptions(1),
		Queries: []client.QueryConfig{{ID: "ops"}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Ingest(ctx, testObjects(5, 200, 4)); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queries) != 2 || st.Queries[0].ID != DefaultQueryID || st.Queries[1].ID != "ops" {
		t.Fatalf("stats queries = %+v, want rows for default and ops", st.Queries)
	}
	for _, q := range st.Queries {
		if q.Now == 0 || q.Live == 0 {
			t.Fatalf("query %q stats row not populated: %+v", q.ID, q)
		}
	}
	if h, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	} else if h.Queries != 2 {
		t.Fatalf("health queries = %d, want 2", h.Queries)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"surge_queries 2",
		`surge_query_stream_time{query="default"}`,
		`surge_query_stream_time{query="ops"}`,
		`surge_query_live_objects{query="ops"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestMidStreamQuerySeesTheDecidedStream pins the one stream clock: a query
// created mid-stream starts no clock of its own, so a late object is lifted
// to the stream clock for it as for every other query, and the ack and the
// server-wide count report the lift once.
func TestMidStreamQuerySeesTheDecidedStream(t *testing.T) {
	s, _, c := newTestServer(t, Config{Algorithm: surge.CellCSPOT, Options: testOptions(1), TimePolicy: Clamp})
	ctx := context.Background()
	objs := testObjects(61, 200, 4)
	streamBatches(t, c, objs, 50)
	clock := objs[len(objs)-1].Time
	if _, err := s.CreateQuery(client.QueryConfig{ID: "late"}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Ingest(ctx, []surge.Object{{X: 1, Y: 1, Weight: 1, Time: clock - 5}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || ack.Clamped != 1 {
		t.Fatalf("ack accepted %d clamped %d, want 1/1", ack.Accepted, ack.Clamped)
	}
	for _, q := range []struct {
		id  string
		api queryAPI
	}{{DefaultQueryID, c}, {"late", c.Query("late")}} {
		st, err := q.api.Best(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Now != clock {
			t.Fatalf("query %q: now %v, want the late object lifted to the stream clock %v", q.id, st.Now, clock)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Clamped != 1 {
		t.Fatalf("stats clamped %d, want 1", st.Clamped)
	}
}
