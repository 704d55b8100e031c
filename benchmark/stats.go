package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule. Failed operations enter the sample as +Inf, so a
// quantile reaching into the failures reads +Inf.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail returns the highest percentile of a sorted sample that still has at
// least ten samples beyond it, capped at the p99 the tail metrics are named
// after, and which percentile that was: p99 from 1000 samples up, the
// eleventh-largest sample below that, and with fewer than twenty samples
// only the median means anything.
func tail(sorted []float64) (value, q float64) {
	n := len(sorted)
	switch {
	case n >= 1000:
		return percentile(sorted, 0.99), 0.99
	case n >= 20:
		return sorted[n-11], float64(n-10) / float64(n)
	}
	return percentile(sorted, 0.5), 0.5
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// quartiles are Python's statistics.quantiles(v, n=4) (the "exclusive"
// method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
