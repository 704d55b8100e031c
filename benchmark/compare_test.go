package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// flat is a summary of n identical-looking runs around v with the given
// relative spread.
func flat(v, spread float64) metricSummary {
	return metricSummary{
		Unit: "x", N: 10, Median: v,
		Q1: v * (1 - spread/2), Q3: v * (1 + spread/2),
		Min: v * (1 - spread), Max: v * (1 + spread), Spread: spread,
	}
}

func nonFinite(m metricSummary, runs int) metricSummary {
	m.NonFinite = runs
	return m
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ingest_objs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new metricSummary
		want     string
	}{
		{"same", lower, flat(10, 0.02), flat(10.1, 0.02), verdictWithin},
		{"worse but inside the bound", lower, flat(10, 0.02), flat(10.9, 0.02), verdictWithin},
		{"latency up 20%", lower, flat(10, 0.02), flat(12, 0.02), verdictRegressed},
		{"latency down 20%", lower, flat(10, 0.02), flat(8, 0.02), verdictImproved},
		{"throughput down 20%", higher, flat(100, 0.02), flat(80, 0.02), verdictRegressed},
		{"throughput up 20%", higher, flat(100, 0.02), flat(120, 0.02), verdictImproved},
		{"noise wider than the bound", lower, flat(10, 0.30), flat(12, 0.30), verdictUnresolved},
		{"noisy, but every new run beats every old run", lower, flat(10, 0.15), flat(5, 0.15), verdictImproved},
		{"better by less than the old spread", lower, flat(10, 0.05), flat(9.8, 0.05), verdictWithin},
		{"a run whose median request failed", lower, flat(10, 0.02), nonFinite(flat(10, 0.02), 1), verdictRegressed},
	} {
		if got, _ := verdict(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareExitCodeAndRatioBase(t *testing.T) {
	set := func(ack, failedShare float64) summaryFile {
		return summaryFile{Workloads: map[string]workloadSummary{
			"exact-1shard": {Runs: 10, FailedShare: failedShare, Metrics: map[string]metricSummary{
				"ack_p50_ms": flat(ack, 0.02),
			}},
		}}
	}
	var out bytes.Buffer
	if code := compareSummaries(&out, set(10, 0), set(10.2, 0)); code != 0 {
		t.Errorf("unchanged set: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "base: old median 10.0000") {
		t.Errorf("the ratio is printed without its base:\n%s", out.String())
	}
	out.Reset()
	if code := compareSummaries(&out, set(10, 0), set(13, 0)); code == 0 {
		t.Errorf("30%% slower acks: exit 0, want non-zero\n%s", out.String())
	}
	if code := compareSummaries(&out, set(10, 0), set(10, 0.001)); code == 0 {
		t.Error("a higher failed_share: exit 0, want non-zero")
	}
	if code := compareSummaries(&out, set(10, 0), summaryFile{}); code == 0 {
		t.Error("a workload missing from the new set: exit 0, want non-zero")
	}
	out.Reset()
	dropped := set(10, 0)
	delete(dropped.Workloads["exact-1shard"].Metrics, "ack_p50_ms")
	if code := compareSummaries(&out, set(10, 0), dropped); code == 0 || !strings.Contains(out.String(), "ack_p50_ms") {
		t.Errorf("a metric missing from the new set: exit %d, want non-zero and the metric named\n%s", code, out.String())
	}
}

// A paced latency from a run whose backlog grew measures the phase's length,
// so it cannot be "within bound": unresolved if the old set had such runs
// too, regressed if only the new one has.
func TestCompareGrowingBacklog(t *testing.T) {
	set := func(backlogRuns int) summaryFile {
		return summaryFile{Workloads: map[string]workloadSummary{
			"exact-1shard": {Runs: 10, BacklogRuns: backlogRuns, Metrics: map[string]metricSummary{
				"ack_p50_ms":  flat(10, 0.02),
				"peak_rss_mb": flat(200, 0.02),
			}},
		}}
	}
	for _, c := range []struct {
		old, new int
		code     int
		ack      string
	}{
		{0, 0, 0, verdictWithin},
		{0, 1, 1, verdictRegressed},
		{2, 1, 0, verdictUnresolved},
	} {
		var out bytes.Buffer
		code := compareSummaries(&out, set(c.old), set(c.new))
		var ack, rss string
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == "ack_p50_ms" {
				ack = line
			}
			if len(f) > 0 && f[0] == "peak_rss_mb" {
				rss = line
			}
		}
		if code != c.code || !strings.HasSuffix(ack, ": "+c.ack) || !strings.HasSuffix(rss, ": "+verdictWithin) {
			t.Errorf("backlog runs old %d new %d: exit %d, want %d with ack_p50_ms %q and peak_rss_mb within bound\n%s",
				c.old, c.new, code, c.code, c.ack, out.String())
		}
	}
}

func TestSummarizeUsesDriverQuartiles(t *testing.T) {
	var recs []record
	for i := 1; i <= 10; i++ {
		r := newRecord(runSpec{w: workloads[0], seed: uint64(i), seconds: 20})
		r.set("ack_p50_ms", float64(i))
		r.Attempted, r.Failed = 100, 0
		recs = append(recs, *r)
	}
	s := summarize(recs, environment{})
	m := s.Workloads[workloads[0].Name].Metrics["ack_p50_ms"]
	if m.Q1 != 2.75 || m.Median != 5.5 || m.Q3 != 8.25 || m.Min != 1 || m.Max != 10 || m.N != 10 || m.Unit != "ms" {
		t.Errorf("summary of 1..10: %+v", m)
	}
	if want := (8.25 - 2.75) / 5.5; m.Spread != want {
		t.Errorf("spread %v, want %v", m.Spread, want)
	}
	if ws := s.Workloads[workloads[0].Name]; ws.Runs != 10 || ws.Attempted != 1000 {
		t.Errorf("workload summary %+v", ws)
	}
}

// A +Inf or NaN run must reach the summary file as a count, not break it:
// encoding/json has no number for either.
func TestSummarizeCountsNonFiniteAndBacklogRuns(t *testing.T) {
	var recs []record
	for i, v := range []float64{4, inf, 6, math.NaN(), 5} {
		r := newRecord(runSpec{w: workloads[0], seed: uint64(i), seconds: 20})
		r.set("ack_p50_ms", v)
		r.Attempted = 100
		if i == 1 {
			r.Backlog = "backlog growing"
		}
		recs = append(recs, *r)
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("record with ack_p50_ms = %v: %v", v, err)
		}
	}
	line, _ := json.Marshal(recs[1].result)
	if want := `"ack_p50_ms":{"value":null,"unit":"ms","non_finite":"+Inf"}`; !strings.Contains(string(line), want) {
		t.Errorf("result line %s, want it to hold %s", line, want)
	}
	s := summarize(recs, environment{})
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	ws := s.Workloads[workloads[0].Name]
	if m := ws.Metrics["ack_p50_ms"]; m.N != 5 || m.NonFinite != 2 || m.Median != 5 || m.Min != 4 || m.Max != 6 {
		t.Errorf("summary of 4, +Inf, 6, NaN, 5: %+v", m)
	}
	if ws.BacklogRuns != 1 {
		t.Errorf("backlog runs %d, want 1", ws.BacklogRuns)
	}
}
