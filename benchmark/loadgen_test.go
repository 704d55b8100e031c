package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock only moves when told to: SleepUntil jumps to the target and each
// operation advances it by its scripted service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := &fakeClock{now: time.Unix(100, 0)}
	t0 := clk.now
	// Operation 2 stalls for 35 ms; the rest take 2 ms. Operations 3, 4 and
	// 5 fall due during the stall and are sent late, one after the other.
	service := []time.Duration{2, 2, 35, 2, 2, 2, 2, 2}
	ts := runOpenLoop(clk, t0, len(service), interval, func(i int) error {
		clk.now = clk.now.Add(service[i] * time.Millisecond)
		if i == 6 {
			return errors.New("refused")
		}
		return nil
	})
	wantSent := []time.Duration{0, 10, 20, 55, 57, 59, 61, 70}
	wantLatency := []float64{2, 2, 35, 27, 19, 11, inf, 2}
	for i, op := range ts {
		if op.due != time.Duration(i)*interval {
			t.Errorf("op %d due at %v, want %v", i, op.due, time.Duration(i)*interval)
		}
		if op.sent != wantSent[i]*time.Millisecond {
			t.Errorf("op %d sent at %v, want %v", i, op.sent, wantSent[i]*time.Millisecond)
		}
		if got := op.latencyMS(); got != wantLatency[i] {
			t.Errorf("op %d latency %v ms, want %v (timed from its due time)", i, got, wantLatency[i])
		}
	}
	if got := ts[3].lateness(); got != 25*time.Millisecond {
		t.Errorf("op 3 lateness %v, want 25ms", got)
	}
	// The generator itself was never late: every delay was the connection
	// being busy with the previous operation.
	for i, d := range generatorLateness(ts) {
		if d != 0 {
			t.Errorf("op %d generator lateness %v, want 0", i, d)
		}
	}
}

func TestBacklogGrowthDetection(t *testing.T) {
	const interval = 10 * time.Millisecond
	run := func(service time.Duration) []opTiming {
		clk := &fakeClock{now: time.Unix(0, 0)}
		return runOpenLoop(clk, clk.now, 200, interval, func(i int) error {
			clk.now = clk.now.Add(service)
			return nil
		})
	}
	if backlogGrowing(run(9*time.Millisecond), interval) {
		t.Error("a 9 ms service time at a 10 ms interval reported a growing backlog")
	}
	// 11 ms of service every 10 ms: each request is sent 1 ms later than
	// the one before, so the end of the phase runs ~90 ms later than its
	// middle.
	if !backlogGrowing(run(11*time.Millisecond), interval) {
		t.Error("an 11 ms service time at a 10 ms interval was not reported as a growing backlog")
	}
	// One long stall in the middle that drains again is not growth.
	clk := &fakeClock{now: time.Unix(0, 0)}
	stall := runOpenLoop(clk, clk.now, 200, interval, func(i int) error {
		d := 2 * time.Millisecond
		if i == 100 {
			d = 80 * time.Millisecond
		}
		clk.now = clk.now.Add(d)
		return nil
	})
	if backlogGrowing(stall, interval) {
		t.Error("a single drained stall was reported as a growing backlog")
	}
}

func TestRequestOfEventTime(t *testing.T) {
	// Three requests of four objects; stream times are sorted, with a tie
	// across the boundary of requests 0 and 1.
	times := []float64{1, 2, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct {
		t    float64
		want int
	}{
		{0.5, -1}, // before the first object
		{1, 0},
		{3.9, 0},
		{4, 1},   // the latest object with T <= 4 is the first of request 1
		{7, 1},   // a chunk's last object
		{7.5, 1}, // between objects: still the latest one at or before t
		{11, 2},
		{99, 2},
	} {
		if got := requestOf(times, 4, c.t); got != c.want {
			t.Errorf("requestOf(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}
