package shard

import (
	"strings"
	"testing"
	"time"

	"surge/internal/core"
)

// within runs fn on its own goroutine and fails the test if it does not
// return in time — the panic-containment tests assert "no deadlock", and a
// hung barrier would otherwise only surface as the package-level timeout.
func within(t *testing.T, d time.Duration, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v (barrier deadlock?)", name, d)
	}
}

// panicEngine is a single-region engine that panics in Process after `after`
// events, or in Best when bestBoom is set.
type panicEngine struct {
	after    int
	n        int
	bestBoom bool
}

func (e *panicEngine) Process(core.Event) {
	e.n++
	if e.n > e.after {
		panic("injected engine panic (process)")
	}
}

func (e *panicEngine) Best() core.Result {
	if e.bestBoom {
		panic("injected engine panic (best)")
	}
	return core.Result{}
}

// TestPanicInProcessSurfacesOnQuery crashes one shard's engine mid-stream
// and checks the pipeline converts the panic into a Query error — with the
// shard identified — instead of crashing the process or hanging the
// barrier, and that routing and closing still work afterwards.
func TestPanicInProcessSurfacesOnQuery(t *testing.T) {
	p, err := New(testCfg(), 2, 1, func(c core.Config) (core.Engine, error) {
		if c.Cols.Index == 0 {
			return &panicEngine{after: 0}, nil
		}
		return &captureEngine{cfg: c, score: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// x = 0.5 covers columns 0 and 1, reaching both shards; shard 0 panics
	// on its first event.
	p.Route(core.Event{Kind: core.New, Obj: core.Object{ID: 1, X: 0.5, Y: 0.5, Weight: 1, T: 1}})
	var qerr error
	within(t, 10*time.Second, "Query after panic", func() {
		_, _, qerr = p.Query()
	})
	if qerr == nil {
		t.Fatal("Query returned no error after an engine panic")
	}
	if !strings.Contains(qerr.Error(), "shard 0") || !strings.Contains(qerr.Error(), "panicked") {
		t.Fatalf("panic error does not identify the shard: %v", qerr)
	}
	if !strings.Contains(qerr.Error(), "panic_test.go") {
		t.Fatalf("panic error carries no stack: %v", qerr)
	}

	// The failed pipeline must stay drainable: routing a backlog far past
	// the channel depth cannot block, and every later Query reports the
	// same first error.
	within(t, 10*time.Second, "Route after panic", func() {
		for i := 0; i < 20*chanDepth*MaxFlush; i++ {
			p.Route(core.Event{Kind: core.New, Obj: core.Object{ID: uint64(i + 2), X: 0.5, Y: 0.5, Weight: 1, T: 2}})
		}
	})
	within(t, 10*time.Second, "second Query", func() {
		_, _, err = p.Query()
	})
	if err == nil || err.Error() != qerr.Error() {
		t.Fatalf("second Query error = %v, want the recorded first panic", err)
	}
	within(t, 10*time.Second, "Close after panic", func() {
		if cerr := p.Close(); cerr != nil {
			t.Errorf("Close after panic: %v", cerr)
		}
	})
}

// TestPanicInBestSurfacesOnQuery crashes an engine inside the barrier
// answer itself: the reply must still be delivered so the merge completes,
// and the same Query must report the failure.
func TestPanicInBestSurfacesOnQuery(t *testing.T) {
	p, err := New(testCfg(), 2, 1, func(c core.Config) (core.Engine, error) {
		if c.Cols.Index == 1 {
			return &panicEngine{after: 1 << 30, bestBoom: true}, nil
		}
		return &captureEngine{cfg: c, score: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var qerr error
	within(t, 10*time.Second, "Query with panicking Best", func() {
		_, _, qerr = p.Query()
	})
	if qerr == nil || !strings.Contains(qerr.Error(), "shard 1") {
		t.Fatalf("Query error = %v, want shard 1 panic", qerr)
	}
	within(t, 10*time.Second, "Close", func() { p.Close() })
}

// panicTopK is a top-k shard engine whose ProblemBest panics.
type panicTopK struct{}

func (panicTopK) Process(core.Event)                      {}
func (panicTopK) BestK() []core.Result                    { return nil }
func (panicTopK) ProblemBest(int) core.Result             { panic("injected engine panic (solve)") }
func (panicTopK) ApplyRank(int, core.Result, core.Result) {}

// okTopK is a healthy no-answer top-k shard engine.
type okTopK struct{}

func (okTopK) Process(core.Event)                      {}
func (okTopK) BestK() []core.Result                    { return nil }
func (okTopK) ProblemBest(int) core.Result             { return core.Result{} }
func (okTopK) ApplyRank(int, core.Result, core.Result) {}

// TestPanicInTopKSolve crashes one shard's chain engine inside a solve: the
// coordinator's reply loop must still complete (zero reply from the
// recovering worker) and the chain Query must report the panic, now and on
// every later call.
func TestPanicInTopKSolve(t *testing.T) {
	p, c, err := NewTopK(testCfg(), 3, 1, Params{}, 2, func(cfg core.Config) (core.TopKShard, error) {
		if cfg.Cols.Index == 2 {
			return panicTopK{}, nil
		}
		return okTopK{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var qerr error
	within(t, 10*time.Second, "chain Query with panicking solve", func() {
		_, _, qerr = c.Query()
	})
	if qerr == nil || !strings.Contains(qerr.Error(), "shard 2") || !strings.Contains(qerr.Error(), "panicked") {
		t.Fatalf("chain Query error = %v, want shard 2 panic", qerr)
	}
	within(t, 10*time.Second, "second chain Query", func() {
		_, _, err = c.Query()
	})
	if err == nil {
		t.Fatal("second chain Query returned no error")
	}
	within(t, 10*time.Second, "Close", func() { p.Close() })
}
