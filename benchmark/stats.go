package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks.  Empty input yields 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// dist is the summary every timing is reported through: the median,
// the tail, the quartiles, and how many samples stand behind them.
type dist struct {
	P50, P99, Q1, Q3 float64
	N                int
}

func summarize(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return dist{
		P50: quantile(s, 0.50), P99: quantile(s, 0.99),
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s),
	}
}

func median(v []float64) float64 { return summarize(v).P50 }
