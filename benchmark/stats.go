package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// v by the exclusive method of Python's statistics.quantiles(v, n=4),
// which is what the acceptance driver applies to the per-run values;
// using the same rule here keeps the spreads this program prints
// comparable with the ones it is judged on. One sample is its own
// quartiles; none gives zeros.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle quartile of v.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0 (a share with nothing attempted).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
