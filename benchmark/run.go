package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"surge/client"
	"surge/internal/stream"
)

// Shares of -seconds given to each measured phase. The untraced run spends
// it on sat + paced; the traced run on two paced halves (spans off, then
// on) and the in-process layer replay, which is sized in objects.
const (
	satShare         = 0.22
	pacedShare       = 0.78
	tracedPacedShare = 0.2
	layerObjsPerSec  = 4000 // layer-replay objects per -seconds second
)

// bench is one invocation's shared state.
type bench struct {
	ctx    context.Context
	reap   *reaper
	outDir string
	bin    string
}

// runSpec selects one run of one workload.
type runSpec struct {
	w       workload
	seed    uint64
	seconds float64
	setups  int // how many times set-up is repeated for setup_s
	trace   bool
}

// makePlan generates the stream for seed and cuts it into pre-encoded
// requests, so nothing on a timed path encodes.
func makePlan(w workload, seed uint64, fill, sat, paced int) (*plan, error) {
	ds := w.dataset(seed)
	n := (fill + sat + paced) * w.reqObjs
	objs := toSurge(stream.Stretch(ds.Generate(n), w.ratePerDay))
	p := &plan{w: w, ds: ds, objs: objs, fillEnd: fill, satEnd: fill + sat}
	p.times = make([]float64, n)
	for i, o := range objs {
		p.times[i] = o.Time
	}
	p.bodies = make([][]byte, fill+sat+paced)
	var buf bytes.Buffer
	for i := range p.bodies {
		buf.Reset()
		if err := client.EncodeNDJSON(&buf, objs[i*w.reqObjs:(i+1)*w.reqObjs]); err != nil {
			return nil, err
		}
		p.bodies[i] = append([]byte(nil), buf.Bytes()...)
	}
	return p, nil
}

// session is a filled, verified child with its connections attached.
type session struct {
	b       *bench
	p       *plan
	c       *child
	scratch string // per-child directory: data dir, queries file, snapshot
	args    []string
	ing     *conn
	rd      *conn
	sub     *subscriber

	acked    []int // requests the server acked, in send order
	sent     int   // objects in acked requests
	accepted int   // Σ ack.accepted
	clamped  int   // Σ ack.clamped
}

func (s *session) close() {
	if s.sub != nil {
		s.sub.close()
	}
	if s.ing != nil {
		s.ing.close()
	}
	if s.rd != nil {
		s.rd.close()
	}
	if s.c != nil {
		s.b.reap.kill(s.c)
	}
	s.b.reap.removeDir(s.scratch)
}

// post sends request i closed-loop and accounts its ack.
func (s *session) post(i int) (client.IngestResult, time.Time, error) {
	ack, done, err := s.ing.ingest(s.p.bodies[i])
	if err != nil {
		return ack, done, err
	}
	if n := s.p.w.reqObjs; ack.Accepted != n {
		return ack, done, fmt.Errorf("request %d: accepted %d of %d objects", i, ack.Accepted, n)
	}
	s.acked = append(s.acked, i)
	s.sent += ack.Accepted
	s.accepted += ack.Accepted
	s.clamped += ack.Clamped
	return ack, done, nil
}

// readPaths are what the reader connection polls, round-robin. Both routes
// hop the event loop, so a read queues behind ingest.
func (s *session) readPaths() []string {
	paths := []string{"/v1/best"}
	for _, q := range s.p.w.queries(s.p.ds) {
		paths = append(paths, "/v1/queries/"+q.ID+"/best")
	}
	return paths
}

// setup is the timed set-up of the run shape: generate and encode the
// stream, start the child, wait for /healthz, attach the other connections,
// fill the two windows closed-loop and verify every answer against ref.
// Computing ref itself (first call only) is the checker's cost, not the
// system's, and is left out of the returned duration.
func (b *bench) setup(spec runSpec, ref **reference, stderrName string) (*session, time.Duration, error) {
	w := spec.w
	var fill, sat, paced int
	if spec.trace {
		fill, _, paced = w.phaseSizes(0, 2*tracedPacedShare*spec.seconds)
	} else {
		fill, sat, paced = w.phaseSizes(satShare*spec.seconds, pacedShare*spec.seconds)
	}
	t0 := time.Now()
	p, err := makePlan(w, spec.seed, fill, sat, paced)
	if err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(t0)
	if *ref == nil {
		if *ref, err = replayFill(p); err != nil {
			return nil, 0, err
		}
	}

	t1 := time.Now()
	scratch, err := os.MkdirTemp(b.outDir, "child-")
	if err != nil {
		return nil, 0, err
	}
	b.reap.addDir(scratch)
	s := &session{b: b, p: p, scratch: scratch, args: w.serveArgs(p.ds)}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if w.durable {
		s.args = append(s.args, "-data-dir", filepath.Join(scratch, "data"),
			"-wal-sync", walSync, "-checkpoint-every", "-1s")
	}
	if qs := w.queries(p.ds); len(qs) > 0 {
		data, err := json.Marshal(qs)
		if err != nil {
			return nil, 0, err
		}
		qfile := filepath.Join(scratch, "queries.json")
		if err := os.WriteFile(qfile, data, 0o644); err != nil {
			return nil, 0, err
		}
		s.args = append(s.args, "-queries", qfile)
	}
	stderrPath := filepath.Join(b.outDir, stderrName)
	if s.c, err = b.reap.startChild(b.ctx, b.bin, s.args, stderrPath); err != nil {
		return nil, 0, err
	}
	s.ing, s.rd = newConn(s.c.base), newConn(s.c.base)
	if s.sub, err = subscribe(s.c.base, "/v1/subscribe"); err != nil {
		return nil, 0, err
	}
	if err := s.fill(*ref); err != nil {
		return nil, 0, fmt.Errorf("fill: %w", err)
	}
	ok = true
	return s, elapsed + time.Since(t1), nil
}

// fill posts the first two windows closed-loop and checks every ack and
// every burst event bitwise against the reference replay.
func (s *session) fill(ref *reference) error {
	for i := 0; i < s.p.fillEnd; i++ {
		ack, _, err := s.post(i)
		if err != nil {
			return err
		}
		if !sameResult(ack.Result, ref.acks[i]) {
			return fmt.Errorf("request %d: ack result %+v, reference %+v", i, ack.Result, ref.acks[i])
		}
	}
	if err := s.sub.waitBursts(len(ref.bursts), 5*time.Second); err != nil {
		return err
	}
	events, _ := s.sub.snapshot()
	nb := 0
	for _, ev := range events {
		if ev.dropped != 0 {
			return fmt.Errorf("subscriber lost %d events during fill", ev.dropped)
		}
		if ev.topk {
			continue
		}
		if nb >= len(ref.bursts) {
			return fmt.Errorf("burst event %d: reference has only %d", nb+1, len(ref.bursts))
		}
		want := ref.bursts[nb]
		if ev.seq != uint64(nb+1) || ev.time != want.time || !sameResult(ev.result, want.result) {
			return fmt.Errorf("burst event %d: got seq %d time %v %+v, reference time %v %+v",
				nb+1, ev.seq, ev.time, ev.result, want.time, want.result)
		}
		nb++
	}
	tk, err := s.rd.api.TopK(s.b.ctx, 0)
	if err != nil {
		return err
	}
	if !tk.Continuous || !sameResults(tk.Results, ref.topk) {
		return fmt.Errorf("/v1/topk after fill: %s, reference %s", fmtResults(tk.Results), fmtResults(ref.topk))
	}
	st, err := s.rd.api.Best(s.b.ctx)
	if err != nil {
		return err
	}
	if !sameResult(st.Result, ref.best["default"]) {
		return fmt.Errorf("/v1/best after fill: %+v, reference %+v", st.Result, ref.best["default"])
	}
	for _, q := range s.p.w.queries(s.p.ds) {
		st, err := s.rd.api.Query(q.ID).Best(s.b.ctx)
		if err != nil {
			return err
		}
		if !sameResult(st.Result, ref.best[q.ID]) {
			return fmt.Errorf("query %s best after fill: %+v, reference %+v", q.ID, st.Result, ref.best[q.ID])
		}
	}
	return nil
}

// satOut is the closed-loop phase: one connection sending back to back.
type satOut struct {
	objects   int
	objsPerS  float64       // median over satSlices equal slices of the phase
	cpu       time.Duration // child utime+stime over the whole phase
	sliceRate []float64
}

// satSlices cuts the closed-loop phase into equal request counts; the
// reported throughput is the median slice's, so a neighbour borrowing the
// CPU for a fraction of a second does not decide the number.
const satSlices = 8

func (s *session) sat(lo, hi int) (satOut, error) {
	out := satOut{objects: (hi - lo) * s.p.w.reqObjs}
	before, err := readProc(s.c.cmd.Process.Pid)
	if err != nil {
		return out, err
	}
	for k := 0; k < satSlices; k++ {
		a, b := lo+(hi-lo)*k/satSlices, lo+(hi-lo)*(k+1)/satSlices
		t0 := time.Now()
		for i := a; i < b; i++ {
			if _, _, err := s.post(i); err != nil {
				return out, fmt.Errorf("sat: %w", err)
			}
		}
		out.sliceRate = append(out.sliceRate, float64((b-a)*s.p.w.reqObjs)/time.Since(t0).Seconds())
	}
	after, err := readProc(s.c.cmd.Process.Pid)
	if err != nil {
		return out, err
	}
	out.objsPerS = median(out.sliceRate)
	out.cpu = after.cpu - before.cpu
	return out, nil
}

// pacedOut is the open-loop phase.
type pacedOut struct {
	interval time.Duration
	ack      []opTiming
	query    []opTiming
	detectMS []float64
	sseGapUS []float64 // SSE read minus ack read of the same request
	lost     uint64    // SSE events the server dropped for this subscriber
	backlog  string    // set when the pinned rate was not sustained
	subErr   error
	wall     time.Duration
	selfCPU  time.Duration
}

// paced sends requests [lo, hi) on the pinned schedule while the reader
// polls back to back and the subscriber timestamps every event.
// With a tracer, each request's spans are recorded as well.
func (s *session) paced(lo, hi int, tr *tracer) (pacedOut, error) {
	w := s.p.w
	out := pacedOut{interval: time.Duration(float64(w.reqObjs) / w.pacedRate * float64(time.Second))}
	before, _ := s.sub.snapshot()
	cpu0 := selfCPU()
	t0 := time.Now().Add(10 * time.Millisecond)
	// The reader is a closed loop on its own connection: the next GET goes
	// out readerThink after the previous reply has been read, timed from
	// send to last byte, until the ingest schedule is done.
	paths := s.readPaths()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			sent := time.Now()
			_, done, err := s.rd.do(http.MethodGet, paths[i%len(paths)], "", nil)
			if err != nil {
				done = time.Now()
			}
			out.query = append(out.query, opTiming{due: sent.Sub(t0), sent: sent.Sub(t0), done: done.Sub(t0), failed: err != nil})
			time.Sleep(readerThink)
		}
	}()
	ackAt := make([]time.Time, hi-lo)
	out.ack = runOpenLoop(realClock{}, t0, hi-lo, out.interval, func(i int) error {
		_, done, err := s.post(lo + i)
		ackAt[i] = done
		return err
	})
	stop.Store(true)
	wg.Wait()
	s.sub.waitTime(s.p.times[hi*w.reqObjs-1], 100*time.Millisecond)
	out.wall = time.Since(t0)
	out.selfCPU = selfCPU() - cpu0

	// One detection sample per distinct event time: the first burst or
	// topk event stamped with it, timed from the due time of the request
	// that carried the object with that timestamp.
	events, subErr := s.sub.snapshot()
	out.subErr = subErr
	seen := map[float64]bool{}
	firstAt, lastAt := make([]time.Time, hi-lo), make([]time.Time, hi-lo)
	for _, ev := range events[len(before):] {
		out.lost += ev.dropped
		if seen[ev.time] {
			continue
		}
		seen[ev.time] = true
		r := requestOf(s.p.times, w.reqObjs, ev.time) - lo
		if r < 0 || r >= hi-lo {
			continue
		}
		due := t0.Add(out.ack[r].due)
		out.detectMS = append(out.detectMS, ms(ev.at.Sub(due)))
		if firstAt[r].IsZero() {
			firstAt[r] = ev.at
		}
		lastAt[r] = ev.at
	}
	// The notification of a request's last chunk against its ack: both leave
	// the server at the end of the same event-loop turn.
	for r, at := range lastAt {
		if !at.IsZero() && !out.ack[r].failed {
			out.sseGapUS = append(out.sseGapUS, float64(at.Sub(ackAt[r]))/float64(time.Microsecond))
		}
	}
	if tr != nil {
		for i, a := range out.ack {
			req := tr.add("req", t0.Add(a.due), t0.Add(a.done), -1, lo+i)
			tr.add("req.wait_send", t0.Add(a.due), t0.Add(a.sent), req, lo+i)
			tr.add("req.rtt", t0.Add(a.sent), t0.Add(a.done), req, lo+i)
			if !firstAt[i].IsZero() {
				tr.add("deliver", t0.Add(a.sent), firstAt[i], req, lo+i)
			}
		}
	}
	if backlogGrowing(out.ack, out.interval) {
		// Not a wrong answer, so not a failed run: the latencies, timed from
		// the due times, already show the queue. But they now depend on how
		// long the phase lasted; the record says so, and -compare will not
		// call them within bound.
		mid, end, tail := latenessProfile(out.ack)
		out.backlog = fmt.Sprintf("backlog growing at %v objects/s: sends late by %v mid-phase, %v in the last quarter, %v at the end; one send interval is %v",
			w.pacedRate, mid, end, tail, out.interval)
		fmt.Fprintln(os.Stderr, "benchmark: warning:", w.Name+":", out.backlog)
	}
	return out, nil
}

// failures counts the paced phase's failed operations: non-200 ingest or
// query replies, SSE events lost, and a subscriber disconnect.
func (o pacedOut) failures() int {
	n := int(o.lost)
	for _, t := range o.ack {
		if t.failed {
			n++
		}
	}
	for _, t := range o.query {
		if t.failed {
			n++
		}
	}
	if o.subErr != nil {
		n++
	}
	return n
}

// answers is what the served state looks like to a client.
type answers struct {
	best client.State
	topk client.TopK
}

func (s *session) answers() (answers, error) {
	best, err := s.rd.api.Best(s.b.ctx)
	if err != nil {
		return answers{}, err
	}
	topk, err := s.rd.api.TopK(s.b.ctx, 0)
	if err != nil {
		return answers{}, err
	}
	return answers{best: *best, topk: *topk}, nil
}

// finalChecks are the teardown checks on the measured child. A request the
// paced phase lost (429, 503) was refused whole, so the server's clock and
// window are those of the acked requests alone.
func (s *session) finalChecks() (answers, *client.StatsSnapshot, error) {
	a, err := s.answers()
	if err != nil {
		return a, nil, err
	}
	st, err := s.rd.api.Stats(s.b.ctx)
	if err != nil {
		return a, nil, err
	}
	if s.accepted != s.sent {
		return a, nil, fmt.Errorf("acks accepted %d objects, %d were sent in successful requests", s.accepted, s.sent)
	}
	if s.clamped != 0 {
		return a, nil, fmt.Errorf("%d objects clamped on a time-ordered stream", s.clamped)
	}
	n := s.p.w.reqObjs
	times := make([]float64, 0, s.sent)
	for _, i := range s.acked {
		times = append(times, s.p.times[i*n:(i+1)*n]...)
	}
	if last := times[len(times)-1]; a.best.Now != last {
		return a, nil, fmt.Errorf("/v1/best now %v, last timestamp acked %v", a.best.Now, last)
	}
	live, err := liveAfter(times)
	if err != nil {
		return a, nil, err
	}
	if a.best.Live != live {
		return a, nil, fmt.Errorf("/v1/best live %d, window replay %d", a.best.Live, live)
	}
	if st.Objects != uint64(s.sent) {
		return a, nil, fmt.Errorf("/v1/stats objects %d, acked %d", st.Objects, s.sent)
	}
	return a, st, nil
}

// recover kills the child with SIGKILL and brings a new one up on the same
// state: a durable workload re-executes on its data directory and replays
// the whole run's WAL; the others boot from a snapshot taken just before
// the first kill (-restore). One recovery is the time from the kill until
// the new child serves answers equal to the old one's. A short recovery is
// repeated — kill the recovered child, recover again — until five were timed
// or 2.5 s spent, and the median is returned: a 60 ms boot is otherwise at
// the mercy of one page fault.
func (s *session) recover(pre answers) (time.Duration, error) {
	args := s.args
	if !s.p.w.durable {
		data, err := s.rd.api.Snapshot(s.b.ctx)
		if err != nil {
			return 0, err
		}
		file := filepath.Join(s.scratch, "snapshot.ckpt")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			return 0, err
		}
		args = append(append([]string(nil), args...), "-restore", file)
	}
	s.sub.close()
	s.sub = nil
	s.ing.close()

	var took []float64
	var total time.Duration
	for len(took) == 0 || (len(took) < 5 && total < 2500*time.Millisecond) {
		d, err := s.recoverOnce(args, pre)
		if err != nil {
			return 0, err
		}
		took = append(took, d.Seconds())
		total += d
	}
	return time.Duration(median(took) * float64(time.Second)), nil
}

func (s *session) recoverOnce(args []string, pre answers) (time.Duration, error) {
	w := s.p.w
	s.rd.close()
	t0 := time.Now()
	s.b.reap.kill(s.c)
	s.c = nil
	c, err := s.b.reap.startChild(s.b.ctx, s.b.bin, args, filepath.Join(s.b.outDir, "surged-"+w.Name+"-recovered.stderr"))
	if err != nil {
		return 0, err
	}
	s.c = c
	s.rd = newConn(c.base)
	post, err := s.answers()
	if err != nil {
		return 0, err
	}
	took := time.Since(t0)

	// WAL replay re-applies the acked batches in order, so a durable child
	// must answer bitwise as before. A snapshot restore rebuilds the engines
	// from the live objects: the library promises the same scores, and may
	// pick another of several equally bursty regions.
	same := sameResults
	if !w.durable {
		same = sameScores
	}
	postAll := append([]client.Result{post.best.Result}, post.topk.Results...)
	preAll := append([]client.Result{pre.best.Result}, pre.topk.Results...)
	if post.best.Now != pre.best.Now || post.best.Live != pre.best.Live || !same(postAll, preAll) {
		return 0, fmt.Errorf("recovery: now %v live %d best+topk %s; before the kill now %v live %d %s",
			post.best.Now, post.best.Live, fmtResults(postAll), pre.best.Now, pre.best.Live, fmtResults(preAll))
	}
	if w.durable {
		st, err := s.rd.api.Stats(s.b.ctx)
		if err != nil {
			return 0, err
		}
		if st.WAL == nil || st.WAL.RecoveredObjects != uint64(s.sent) {
			return 0, fmt.Errorf("recovery: WAL stats %+v, %d objects were acked", st.WAL, s.sent)
		}
	}
	return took, nil
}
