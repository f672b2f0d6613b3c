package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midmean is the interquartile mean: the mean of what is left after
// dropping the lowest and the highest quarter. Robust like the median,
// but it moves smoothly when the samples are a mix of a fast and a slow
// stretch of the machine, where a median jumps from one to the other.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// fastQuarter is the mean of the lowest quarter of xs (of the lowest
// sample when there are fewer than four). For an operation of a few
// milliseconds that is repeated as it is, whatever else the machine does
// only ever adds time, and adds it in bursts that cover a third of the
// samples of one run and none of the next; the fast quarter is what the
// program itself takes.
func fastQuarter(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	s = s[:max(1, len(s)/4)]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// returns (the "exclusive" method), which is what the driver uses for
// the spread of a metric. One sample yields that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// hiPercentile is the highest of p50, p90, p99, p99.9 and p99.99 that
// still has at least ten samples beyond it, with its value.
func hiPercentile(xs []float64) (p, v float64) {
	s := sorted(xs)
	p = 50
	for _, c := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(s))*(1-c/100) >= 10 {
			p = c
		}
	}
	return p, percentile(s, p)
}

// toUnit converts durations to float64s of the given unit.
func toUnit(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
