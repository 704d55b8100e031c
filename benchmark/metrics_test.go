package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors /BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndBenchmarkJSONAgree(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique("workload", w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark {%s %s}", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
		if w.reqObjs%w.batch != 0 {
			t.Errorf("workload %s: a request of %d objects is not a whole number of %d-object chunks", w.Name, w.reqObjs, w.batch)
		}
	}

	check := func(kind string, defs []metricDef, js []jsonMetric, bounded bool) {
		if len(defs) != len(js) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(js), len(defs))
		}
		for i, d := range defs {
			unique(kind+" metric", d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			j := js[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has {%s %s %s}, the benchmark {%s %s %s}",
					kind, i, j.Name, j.Unit, j.Better, d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (j.Bound == nil || *j.Bound != d.Bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from %v", d.Name, d.Bound)
			case bounded && (d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			case !bounded && j.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", d.Name)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd, true)
	check("per_layer", perLayer, bj.PerLayer, false)

	if d, ok := defByName(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", d)
	}
	for _, d := range endToEnd {
		if s, _ := defByName(endToEnd, "setup_s"); d.Bound > s.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}
