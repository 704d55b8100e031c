package main

import (
	"math"
	"testing"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 61, 100, 624, 999, 1000, 1219, 50000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1) // the value is its own rank
		}
		got, q := tail(v)
		beyond := n - int(got)
		if beyond < 10 {
			t.Errorf("n=%d: tail %v (p%g) leaves %d samples beyond it, want >= 10", n, got, 100*q, beyond)
		}
		if n < 1000 && beyond != 10 {
			t.Errorf("n=%d: tail %v (p%g) leaves %d samples beyond it: a higher percentile is supported", n, got, 100*q, beyond)
		}
		if n >= 1000 && (q != 0.99 || got != math.Ceil(0.99*float64(n))) {
			t.Errorf("n=%d: tail %v (p%g), want the p99", n, got, 100*q)
		}
	}
	if got, q := tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); got != 6 || q != 0.5 {
		t.Errorf("tail of 12 samples = %v (p%g), want the median", got, 100*q)
	}
	// Failures are +Inf samples: fifteen of them in a thousand reach the p99.
	v := make([]float64, 1000)
	for i := 985; i < 1000; i++ {
		v[i] = inf
	}
	if got, _ := tail(v); !math.IsInf(got, 1) {
		t.Errorf("tail with 1.5%% failures = %v, want +Inf", got)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	// 1000 operations, 15 of them failed: the p99 reaches into the failures,
	// the median does not.
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	for i := 0; i < 15; i++ {
		v[i*7] = opTiming{failed: true}.latencyMS()
	}
	s := sortedCopy(v)
	if got := percentile(s, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 1.5%% failures = %v, want +Inf", got)
	}
	if got := percentile(s, 0.5); math.IsInf(got, 1) {
		t.Errorf("median with 1.5%% failures = %v, want finite", got)
	}
	// Nearest rank: of 1..100 the p99 is 99, the p50 is 50.
	w := make([]float64, 100)
	for i := range w {
		w[i] = float64(i + 1)
	}
	if got := percentile(w, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(w, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 4, 2, 8})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}
