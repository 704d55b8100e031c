package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// smokeBench builds surged once for the tests that need a real child.
func smokeBench(t *testing.T) *bench {
	t.Helper()
	if testing.Short() {
		t.Skip("needs to build and run surged")
	}
	b := &bench{ctx: context.Background(), reap: newReaper(), outDir: t.TempDir()}
	t.Cleanup(b.reap.cleanup)
	bin, err := buildSurged(b.ctx, b.outDir)
	if err != nil {
		t.Fatal(err)
	}
	b.bin = bin
	return b
}

func smokeSpec(t *testing.T, trace bool) runSpec {
	w, err := workloadByName("approx-durable")
	if err != nil {
		t.Fatal(err)
	}
	return runSpec{w: w, seed: 7, seconds: 1, setups: 1, trace: trace}
}

// TestSmoke is the -smoke pass: one tiny run of the durable workload against
// a real surged child — fill and its checks, sat, paced, teardown checks,
// kill -9 and WAL recovery — so the harness itself cannot rot.
func TestSmoke(t *testing.T) {
	b := smokeBench(t)
	rec, err := b.run(smokeSpec(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
	}
	for _, d := range endToEnd {
		m, ok := rec.Metrics[d.Name]
		if !ok || !(m.Value > 0) || m.Unit != d.Unit {
			t.Errorf("%s = %+v (present %t): want a positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
	if len(rec.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed, %d declared", len(rec.Metrics), len(endToEnd))
	}
	left, _ := os.ReadDir(b.outDir)
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}
}

// refuseNth answers the nth request through it with 429 and forwards the
// rest: a server shedding one request.
type refuseNth struct {
	next http.RoundTripper
	n    int
}

func (r *refuseNth) RoundTrip(req *http.Request) (*http.Response, error) {
	if r.n--; r.n != 0 {
		return r.next.RoundTrip(req)
	}
	req.Body.Close()
	return &http.Response{
		Status: "429 Too Many Requests", StatusCode: http.StatusTooManyRequests,
		Header: http.Header{}, Body: io.NopCloser(strings.NewReader(`{"error":"injected"}`)), Request: req,
	}, nil
}

// TestPacedFailureIsCounted loses one request of the paced phase. The run
// must still end with a record — failed = 1, the teardown and recovery
// checks made against the requests that were acked — not with an error.
func TestPacedFailureIsCounted(t *testing.T) {
	b := smokeBench(t)
	spec := smokeSpec(t, false)
	var ref *reference
	s, took, err := b.setup(spec, &ref, "surged.stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	sat, paced := s.p.satEnd-s.p.fillEnd, len(s.p.bodies)-s.p.satEnd
	s.ing.hc.Transport = &refuseNth{next: s.ing.hc.Transport, n: sat + paced/2}
	rec, err := b.measure(spec, s, took.Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 1 || !(rec.FailedShare > 0) || len(s.acked) != len(s.p.bodies)-1 {
		t.Errorf("failed=%d failed_share=%g with %d of %d requests acked: want exactly the refused request counted",
			rec.Failed, rec.FailedShare, len(s.acked), len(s.p.bodies))
	}
	if _, err := json.Marshal(rec); err != nil {
		t.Error(err)
	}
}

// TestSmokeTraced runs the per-layer side the same way.
func TestSmokeTraced(t *testing.T) {
	b := smokeBench(t)
	rec, err := b.run(smokeSpec(t, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if m, ok := rec.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s = %+v (present %t): want a value in %s", d.Name, m, ok, d.Unit)
		}
	}
	if len(rec.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, %d declared", len(rec.Metrics), len(perLayer))
	}
	if _, err := os.Stat(b.outDir + "/trace-approx-durable.json"); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}

// TestCorruptedReferenceFailsTheRun proves the correctness check can fail:
// with one score of the reference off by one ulp-scale step, set-up must
// refuse the server's (correct) answers.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	b := smokeBench(t)
	spec := smokeSpec(t, false)
	fill, sat, paced := spec.w.phaseSizes(satShare*spec.seconds, pacedShare*spec.seconds)
	p, err := makePlan(spec.w, spec.seed, fill, sat, paced)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := replayFill(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.acks[len(ref.acks)/2].Score *= 1 + 1e-15
	s, _, err := b.setup(spec, &ref, "surged.stderr")
	if err == nil {
		s.close()
		t.Fatal("set-up accepted answers that differ from the reference")
	}
	if !strings.Contains(err.Error(), "reference") {
		t.Errorf("unexpected error: %v", err)
	}
}
