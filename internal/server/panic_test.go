package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"surge"
	"surge/client"
	"surge/internal/core"
)

// boomEngine wraps a chain engine and panics in Process once armed.
type boomEngine struct {
	core.TopKShard
	arm *atomic.Bool
}

func (e *boomEngine) Process(ev core.Event) {
	if e.arm.Load() {
		panic("injected chain engine panic")
	}
	e.TopKShard.Process(ev)
}

// TestShardPanicDegradesWithoutDeadlock plants a panicking engine inside the
// maintained chain — on the event loop's slot apply with one shard, inside a
// shard worker with three — via the core.TestEngineWrap hook and drives the
// full serving stack over it: the panic must surface as a pipeline error
// (ingest 5xx, /healthz unhealthy with the panic text) while /v1/best keeps
// answering from the stale snapshot, and Close must return — the shard
// barrier may never deadlock on the crashed worker. Run under -race in CI.
func TestShardPanicDegradesWithoutDeadlock(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testChainPanic(t, shards) })
	}
}

func testChainPanic(t *testing.T, shards int) {
	var arm atomic.Bool
	core.TestEngineWrap = func(e any) any {
		if ts, ok := e.(core.TopKShard); ok {
			return &boomEngine{TopKShard: ts, arm: &arm}
		}
		return e
	}
	defer func() { core.TestEngineWrap = nil }()

	s, _, c := newTestServer(t, Config{
		Algorithm:  surge.CellCSPOT,
		Options:    testOptions(shards),
		TimePolicy: Strict,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	objs := testObjects(91, 400, 6)
	if _, err := c.Ingest(ctx, objs[:200]); err != nil {
		t.Fatalf("healthy ingest failed: %v", err)
	}
	before, err := c.Best(ctx)
	if err != nil {
		t.Fatalf("healthy best failed: %v", err)
	}

	arm.Store(true)
	_, ierr := c.Ingest(ctx, objs[200:])
	if ierr == nil {
		t.Fatal("ingest succeeded while a shard engine was panicking")
	}
	var werr *client.Error
	if !errors.As(ierr, &werr) || werr.Status != http.StatusInternalServerError {
		t.Fatalf("ingest error = %v, want an internal (500) pipeline error", ierr)
	}
	if !strings.Contains(werr.Err, "panicked") {
		t.Fatalf("ingest error %q does not carry the panic", werr.Err)
	}

	// The client surfaces the 503 as an error carrying the healthz body.
	if _, err := c.Health(ctx); err == nil {
		t.Fatal("healthz OK while the pipeline is down")
	} else if !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("healthz error = %v, want 503 with the shard panic", err)
	}

	// Stale-answer mode: the query path still serves the last good snapshot.
	after, err := c.Best(ctx)
	if err != nil {
		t.Fatalf("best after panic: %v", err)
	}
	if after.Result.Found != before.Result.Found || after.Result.Score != before.Result.Score {
		t.Fatalf("stale answer changed after the panic: %+v != %+v", after.Result, before.Result)
	}

	// A second ingest keeps failing (the pipeline error is sticky) and must
	// not wedge the event loop.
	if _, err := c.Ingest(ctx, objs[:50]); err == nil {
		t.Fatal("ingest succeeded on a failed pipeline")
	}

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Close deadlocked on the crashed shard")
	}
}
