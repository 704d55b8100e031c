package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"surge"
	"surge/client"
)

// TestSharedWindowEqualsSeparate boots a registry whose fresh queries fall
// into three window groups — GAPS, MGAPS and CCS queries of different
// sizes on 30 s windows, among them an Area query, a Shards: 2 query and
// two tenants of one slot (built after the group's first query); the
// default and a GAPS query on 45 s windows; a GAPS and a CCS query on
// count windows — and requires, after every
// ingest, each query's /v1/best, /v1/topk, now, live, engine stats and
// snapshot bytes to be bitwise those of a standalone TopKDetector fed the
// same batches. It then deletes the 30 s group's first-built query (the
// group keeps its window fed), creates a query at runtime (a private window
// that starts empty) and restores one of the two tenants (it leaves its
// slot and group; its twin stays), and keeps ingesting and comparing.
func TestSharedWindowEqualsSeparate(t *testing.T) {
	const k = 3
	ctx := context.Background()
	cfg := Config{Algorithm: surge.CellCSPOT, Options: surge.Options{Width: 1, Height: 1, Window: 45, Alpha: 0.5}, TopK: k, BatchSize: 64}
	if err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	opt30 := surge.Options{Width: 1, Height: 1, Window: 30, Alpha: 0.5, Shards: 1}
	with := func(o surge.Options, f func(*surge.Options)) surge.Options {
		f(&o)
		return o
	}
	count := surge.Options{Width: 1.5, Height: 1.5, Window: 60, PastWindow: 40, Alpha: 0.5, CountWindows: true, Shards: 1}
	seeds := []tenantSeed{
		{id: DefaultQueryID, cfg: defaultTenantConfig(cfg), slotTag: -1},
		{id: "gaps30", cfg: tenantConfig{Algorithm: surge.GridApprox, Options: opt30, TopK: k}, slotTag: -1},
		{id: "mgaps30", cfg: tenantConfig{Algorithm: surge.MultiGrid, Options: with(opt30, func(o *surge.Options) { o.Width, o.Height = 2, 1.5 }), TopK: k}, slotTag: -1},
		{id: "area30", cfg: tenantConfig{Algorithm: surge.GridApprox, Options: with(opt30, func(o *surge.Options) {
			o.Area = &surge.Region{MinX: 0.5, MinY: 0.5, MaxX: 3, MaxY: 3.5}
		}), TopK: 2}, slotTag: -1},
		{id: "sharded30", cfg: tenantConfig{Algorithm: surge.CellCSPOT, Options: with(opt30, func(o *surge.Options) { o.Shards = 2 }), TopK: k}, slotTag: -1},
		{id: "mgaps30-twin", cfg: tenantConfig{Algorithm: surge.MultiGrid, Options: with(opt30, func(o *surge.Options) { o.Width, o.Height = 2, 1.5 }), TopK: k}, slotTag: -1},
		{id: "gaps45", cfg: tenantConfig{Algorithm: surge.GridApprox, Options: with(cfg.Options, func(o *surge.Options) { o.Width = 3 }), TopK: k}, slotTag: -1},
		{id: "count-gaps", cfg: tenantConfig{Algorithm: surge.GridApprox, Options: count, TopK: k}, slotTag: -1},
		{id: "count-ccs", cfg: tenantConfig{Algorithm: surge.CellCSPOT, Options: with(count, func(o *surge.Options) { o.Width = 1 }), TopK: k}, slotTag: -1},
	}
	s, err := newServer(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := client.New(ts.URL)
	if len(s.slots) != len(seeds)-1 || len(s.groups) != 3 {
		t.Fatalf("%d slots in %d window groups, want %d in 3", len(s.slots), len(s.groups), len(seeds)-1)
	}

	refs := map[string]*surge.TopKDetector{}
	standalone := func(id string, tc tenantConfig) {
		alg, err := chainFor(tc.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		d, err := surge.NewTopK(alg, tc.Options, tc.TopK)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		refs[id] = d
	}
	for _, sd := range seeds {
		standalone(sd.id, sd.cfg)
	}

	check := func(label string) {
		t.Helper()
		for id, ref := range refs {
			q := c.Query(id)
			st, err := q.Best(ctx)
			if err != nil {
				t.Fatalf("%s: %s best: %v", label, id, err)
			}
			want := ref.BestK()
			now := ref.Now()
			if now == -math.MaxFloat64 {
				now = 0
			}
			rs := ref.Stats()
			wantStats := client.EngineStats{Events: rs.Events, Searches: rs.Searches, SearchEvents: rs.SearchEvents,
				SweepEntries: rs.SweepEntries, CellsTouched: rs.CellsTouched}
			if !reflect.DeepEqual(st.Result, client.FromResult(want[0])) || st.Now != now || st.Live != ref.Live() ||
				st.Stats != wantStats {
				t.Fatalf("%s: query %q: best (%+v, now=%v, live=%d, stats %+v); standalone (%+v, now=%v, live=%d, stats %+v)",
					label, id, st.Result, st.Now, st.Live, st.Stats, want[0], now, ref.Live(), wantStats)
			}
			tk, err := q.TopK(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantTK := make([]client.Result, len(want))
			for i, r := range want {
				wantTK[i] = client.FromResult(r)
			}
			if !reflect.DeepEqual(tk.Results, wantTK) {
				t.Fatalf("%s: query %q: topk\n%+v\nstandalone\n%+v", label, id, tk.Results, wantTK)
			}
			snap, err := q.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantSnap, err := ref.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, wantSnap) {
				t.Fatalf("%s: query %q: snapshot differs from the standalone checkpoint", label, id)
			}
		}
	}
	objs := testObjects(131, 1200, 4)
	ingest := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i += 50 {
			chunk := objs[i:min(i+50, hi)]
			if _, err := c.Ingest(ctx, chunk); err != nil {
				t.Fatal(err)
			}
			for _, ref := range refs {
				if _, err := ref.PushBatch(chunk); err != nil {
					t.Fatal(err)
				}
			}
			check(fmt.Sprintf("after object %d", i+len(chunk)))
		}
	}
	ingest(0, 500)

	// The 30 s group loses the query it was built around.
	if err := c.Query("gaps30").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	delete(refs, "gaps30")
	// groupSize reads a query's window group on the event loop, which owns it.
	groupSize := func(id string) (n int) {
		if err := s.do(func() { n = len(s.tenants[id].slot.Load().grp.slots) }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := groupSize("area30"); n != 3 {
		t.Fatalf("the 30 s group keeps %d slots after the delete, want 3", n)
	}
	ingest(500, 700)

	// A query created at runtime has a window of its own and starts empty.
	late := tenantConfig{Algorithm: surge.GridApprox, Options: opt30, TopK: k}
	if _, err := c.CreateQuery(ctx, client.QueryConfig{ID: "late", Algorithm: "GAPS", Window: 30, TopK: k}); err != nil {
		t.Fatal(err)
	}
	standalone("late", late)
	if n := groupSize("late"); n != 1 {
		t.Fatalf("a created query shares a window with %d slots", n-1)
	}
	ingest(700, 900)

	// A restored query leaves its group for a window of its own.
	snap, err := c.Query("mgaps30").Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("mgaps30").Restore(ctx, snap); err != nil {
		t.Fatal(err)
	}
	refs["mgaps30"].Close()
	if refs["mgaps30"], err = surge.RestoreTopKSharded(surge.MultiGrid, snap, k, 1, 0); err != nil {
		t.Fatal(err)
	}
	if n := groupSize("mgaps30"); n != 1 {
		t.Fatalf("a restored query shares a window with %d slots", n-1)
	}
	if n := groupSize("mgaps30-twin"); n != 3 {
		t.Fatalf("the 30 s group keeps %d slots after the restore, want 3", n)
	}
	check("after the restore")
	ingest(900, len(objs))
}
