package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"surge/client"
)

// clock is the scheduler's view of time, so the open-loop logic can be
// tested against a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// opTiming is one open-loop operation, as offsets from the phase start.
type opTiming struct {
	due, sent, done time.Duration
	failed          bool
}

// latency is timed from when the operation was due, not from when the
// generator got round to sending it: a stall in the server delays the sends
// queued behind it and that wait belongs to them. A failed operation misses
// every limit.
func (o opTiming) latencyMS() float64 {
	if o.failed {
		return inf
	}
	return ms(o.done - o.due)
}

func (o opTiming) lateness() time.Duration { return o.sent - o.due }

// runOpenLoop issues n operations on a fixed schedule over one connection:
// operation i is due at t0 + i·interval and is sent when due or, if the
// previous one is still in flight, as soon as it returns.
func runOpenLoop(clk clock, t0 time.Time, n int, interval time.Duration, op func(i int) error) []opTiming {
	out := make([]opTiming, n)
	for i := range out {
		due := t0.Add(time.Duration(i) * interval)
		clk.SleepUntil(due)
		sent := clk.Now()
		err := op(i)
		done := clk.Now()
		out[i] = opTiming{due: due.Sub(t0), sent: sent.Sub(t0), done: done.Sub(t0), failed: err != nil}
	}
	return out
}

// generatorLateness is the part of each send's lateness the generator itself
// caused: how long after both the due time and the previous reply it took to
// send. Waiting for the one connection to free is the server's doing and is
// already in the latency.
func generatorLateness(ts []opTiming) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		ready := t.due
		if i > 0 && ts[i-1].done > ready {
			ready = ts[i-1].done
		}
		out[i] = t.sent - ready
	}
	return out
}

// backlogGrowing reports an unsustainable rate: if the generator runs later
// at the end of the phase than at its middle by more than one send interval,
// requests are queueing faster than the server drains them and every latency
// in the phase depends on how long the phase lasted. Lateness is the median
// over the middle quarter of the phase, over its last quarter and over its
// last twentieth, and both of the latter must exceed the first: a stall that
// a GC cycle or a noisy neighbour causes and the server then drains is in
// the latencies already and does not make the run invalid.
func backlogGrowing(ts []opTiming, interval time.Duration) bool {
	mid, end, tail := latenessProfile(ts)
	return end-mid > interval && tail-mid > interval
}

// latenessProfile is the median lateness over the middle quarter, the last
// quarter and the last twentieth of a phase (zeros for a phase too short to
// have them).
func latenessProfile(ts []opTiming) (mid, end, tail time.Duration) {
	n := len(ts)
	if n < 40 {
		return 0, 0, 0
	}
	late := func(lo, hi int) time.Duration {
		v := make([]time.Duration, 0, hi-lo)
		for _, t := range ts[lo:hi] {
			v = append(v, t.lateness())
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return v[len(v)/2]
	}
	return late(n*3/8, n*5/8), late(n*3/4, n), late(n*19/20, n)
}

// requestOf maps an SSE event's stream time to the ingest request that
// caused it: the request holding the latest object with T <= t. times is the
// whole stream's timestamps in send order.
func requestOf(times []float64, reqObjs int, t float64) int {
	i := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if i == 0 {
		return -1
	}
	return (i - 1) / reqObjs
}

// conn is one keep-alive HTTP connection to the child. Timed requests go
// through do, which reports when the last byte was read; everything else
// uses the typed client over the same connection.
type conn struct {
	base string
	hc   *http.Client
	api  *client.Client
}

func newConn(base string) *conn {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return &conn{base: base, hc: hc, api: client.New(base, client.WithHTTPClient(hc))}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply; the returned instant is
// when the last body byte was read.
func (c *conn) do(method, path, contentType string, body []byte) ([]byte, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, time.Time{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	data, err := io.ReadAll(resp.Body)
	done := time.Now()
	resp.Body.Close()
	if err != nil {
		return nil, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, done, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, done, nil
}

// ingest posts one pre-encoded request body and decodes its ack.
func (c *conn) ingest(body []byte) (client.IngestResult, time.Time, error) {
	var ack client.IngestResult
	data, done, err := c.do(http.MethodPost, "/v1/ingest", client.NDJSON, body)
	if err != nil {
		return ack, done, err
	}
	return ack, done, json.Unmarshal(data, &ack)
}

// sseEvent is one "burst" or "topk" event as the subscriber read it.
type sseEvent struct {
	at      time.Time // last byte of the event read
	topk    bool
	time    float64 // stream clock at the change
	dropped uint64
	seq     uint64
	result  client.Result // burst events only
}

// subscriber holds the SSE connection open and timestamps every event.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events []sseEvent
	bursts int
	err    error // set when the stream ended for any reason but close()
}

// subscribe opens GET path and returns once the hello event has arrived, so
// every later change is delivered or accounted for in a Dropped count.
func subscribe(base, path string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: %s", resp.Status)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{})}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	kind, _, err := readSSE(br)
	if err == nil && kind != "hello" {
		err = fmt.Errorf("subscribe: first event %q, want hello", kind)
	}
	if err != nil {
		resp.Body.Close()
		cancel()
		return nil, err
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		defer hc.CloseIdleConnections()
		for {
			kind, data, err := readSSE(br)
			at := time.Now()
			if err != nil {
				if ctx.Err() == nil {
					s.mu.Lock()
					s.err = err
					s.mu.Unlock()
				}
				return
			}
			if kind != "burst" && kind != "topk" {
				continue
			}
			var n client.Notification // a topk event's seq/time/dropped decode the same way
			if err := json.Unmarshal(data, &n); err != nil {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
				return
			}
			ev := sseEvent{at: at, topk: kind == "topk", time: n.Time, dropped: n.Dropped, seq: n.Seq, result: n.Result}
			s.mu.Lock()
			s.events = append(s.events, ev)
			if !ev.topk {
				s.bursts++
			}
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// readSSE reads one event: field lines up to a blank line.
func readSSE(br *bufio.Reader) (kind string, data []byte, err error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if kind != "" || data != nil {
				return kind, data, nil
			}
		case strings.HasPrefix(line, "event:"):
			kind = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(line[len("data:"):], " ")...)
		}
	}
}

// snapshot returns the events read so far and the stream's error state.
func (s *subscriber) snapshot() ([]sseEvent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sseEvent(nil), s.events...), s.err
}

// waitBursts waits until n burst events have arrived.
func (s *subscriber) waitBursts(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		got, err := s.bursts, s.err
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("subscriber: %w", err)
		}
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriber: %d of %d burst events after %v", got, n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitTime waits until an event stamped with stream time t or later arrived
// or the stream has been quiet for the grace period: the last chunk of a
// phase need not change the answer.
func (s *subscriber) waitTime(t float64, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.events)
		ok := n > 0 && s.events[n-1].time >= t
		s.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}
