package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricSummary is one workload × metric over a set of runs. Q1, Median and
// Q3 are Python's statistics.quantiles(values, n=4), as the driver computes
// them.
type metricSummary struct {
	Unit string `json:"unit"`
	N    int    `json:"n"`
	// NonFinite counts the runs whose value was +Inf (the percentile reached
	// into the failed operations) or NaN (an empty sample). The statistics
	// below are over the other runs.
	NonFinite int     `json:"non_finite_runs,omitempty"`
	Median    float64 `json:"median"`
	Q1        float64 `json:"q1"`
	Q3        float64 `json:"q3"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	// Spread is (Q3-Q1)/Median: the run-to-run noise as a share of the
	// value, comparable with the metric's bound.
	Spread float64 `json:"spread"`
}

type workloadSummary struct {
	Runs        int      `json:"runs"`
	Seeds       []uint64 `json:"seeds"`
	Attempted   int      `json:"ops_attempted"`
	Failed      int      `json:"ops_failed"`
	FailedShare float64  `json:"failed_share"`
	// BacklogRuns counts the runs whose paced phase did not sustain the
	// pinned rate: their ack, detect and query latencies grow with the
	// length of the phase and say nothing about a request.
	BacklogRuns int                      `json:"backlog_growing_runs"`
	Metrics     map[string]metricSummary `json:"metrics"`
}

// summaryFile is what -summary writes and -compare reads.
type summaryFile struct {
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Env       environment                `json:"env"`
	Workloads map[string]workloadSummary `json:"workloads"`
	Claim     any                        `json:"claim"`
}

func summarize(recs []record, env environment) summaryFile {
	out := summaryFile{Env: env, Workloads: map[string]workloadSummary{}}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range recs {
		out.Seconds, out.Trace = r.Seconds, r.Trace
		ws := out.Workloads[r.Workload]
		ws.Runs++
		ws.Seeds = append(ws.Seeds, r.Seed)
		ws.Attempted += r.Attempted
		ws.Failed += r.Failed
		if r.Backlog != "" {
			ws.BacklogRuns++
		}
		out.Workloads[r.Workload] = ws
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	for name, ws := range out.Workloads {
		ws.FailedShare = float64(ws.Failed) / float64(ws.Attempted)
		ws.Metrics = map[string]metricSummary{}
		for metric, all := range values[name] {
			var v []float64
			for _, x := range all {
				if finite(x) {
					v = append(v, x)
				}
			}
			m := metricSummary{Unit: units[metric], N: len(all), NonFinite: len(all) - len(v)}
			if len(v) > 0 {
				s := sortedCopy(v)
				m.Q1, m.Median, m.Q3 = quartiles(v)
				m.Min, m.Max = s[0], s[len(s)-1]
			}
			if m.Median != 0 { // a count that is 0 on every run has no relative spread
				m.Spread = (m.Q3 - m.Q1) / math.Abs(m.Median)
			}
			ws.Metrics[metric] = m
		}
		out.Workloads[name] = ws
	}
	return out
}

// Verdicts of one workload × metric pairing.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges new against old for a metric with the given direction and
// bound. worse is how much worse new's median is, as a share of old's
// median (negative: better). Where either side's run-to-run spread is wider
// than the bound the medians cannot resolve a change of that size, so the
// pairing is unresolved — unless every new run is better than every old run.
// More runs without a finite value (failures reached the percentile, or
// there was nothing to sample) is a regression whatever the other runs read.
func verdict(d metricDef, old, new metricSummary) (v string, worse float64) {
	worse = (new.Median - old.Median) / old.Median
	allBetter := new.Max < old.Min
	if d.Better == "higher" {
		worse = -worse
		allBetter = new.Min > old.Max
	}
	switch {
	case new.NonFinite > old.NonFinite:
		return verdictRegressed, worse
	case allBetter:
		return verdictImproved, worse
	case old.Spread > d.Bound || new.Spread > d.Bound:
		return verdictUnresolved, worse
	case worse > d.Bound:
		return verdictRegressed, worse
	case worse < -old.Spread && worse < 0:
		return verdictImproved, worse
	}
	return verdictWithin, worse
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// ratio with its base and a verdict. It returns the process exit code:
// non-zero on any regression beyond a metric's bound, a higher failed_share,
// or a workload or metric the new set no longer reports.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	var old, new summaryFile
	for path, dst := range map[string]*summaryFile{oldPath: &old, newPath: &new} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, dst)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", path, err))
		}
	}
	return compareSummaries(w, old, new)
}

func compareSummaries(w io.Writer, old, new summaryFile) int {
	code := 0
	names := make([]string, 0, len(old.Workloads))
	for name := range old.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ow := old.Workloads[name]
		nw, ok := new.Workloads[name]
		if !ok {
			fmt.Fprintf(w, "%s: missing from the new set\n", name)
			code = 1
			continue
		}
		fmt.Fprintf(w, "%s (old %d runs, new %d runs)\n", name, ow.Runs, nw.Runs)
		for _, d := range endToEnd {
			om, ok := ow.Metrics[d.Name]
			if !ok {
				continue // new since the old set: nothing to compare it with
			}
			nm, ok := nw.Metrics[d.Name]
			if !ok {
				fmt.Fprintf(w, "  %-22s missing from the new set: %s\n", d.Name, verdictRegressed)
				code = 1
				continue
			}
			v, worse := verdict(d, om, nm)
			if pacedMetric(d.Name) && ow.BacklogRuns+nw.BacklogRuns > 0 {
				// Either median holds latencies that grew with the phase's
				// length; a rate the old set sustained and the new one does
				// not is a regression whatever the medians read.
				v = verdictUnresolved
				if nw.BacklogRuns > ow.BacklogRuns {
					v = verdictRegressed
				}
			}
			if v == verdictRegressed {
				code = 1
			}
			change := fmt.Sprintf("%.1f%% worse", 100*worse)
			if worse < 0 {
				change = fmt.Sprintf("%.1f%% better", -100*worse)
			}
			fmt.Fprintf(w, "  %-22s old %12.4f  new %12.4f %-4s new/old %.4f (base: old median %.4f)  %s, bound %.0f%%, spread old %.1f%% new %.1f%%: %s\n",
				d.Name, om.Median, nm.Median, om.Unit, nm.Median/om.Median, om.Median,
				change, 100*d.Bound, 100*om.Spread, 100*nm.Spread, v)
			if om.NonFinite+nm.NonFinite > 0 {
				fmt.Fprintf(w, "  %-22s not a finite number in %d of %d old runs and %d of %d new runs (left out of the medians)\n",
					"", om.NonFinite, om.N, nm.NonFinite, nm.N)
			}
		}
		if ow.BacklogRuns+nw.BacklogRuns > 0 {
			fmt.Fprintf(w, "  backlog grew in %d of %d old runs and %d of %d new runs: their paced latencies depend on the length of the phase\n",
				ow.BacklogRuns, ow.Runs, nw.BacklogRuns, nw.Runs)
		}
		if nw.FailedShare > ow.FailedShare {
			fmt.Fprintf(w, "  failed_share rose from %g to %g: regressed\n", ow.FailedShare, nw.FailedShare)
			code = 1
		}
	}
	return code
}
