package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailQuantile is the highest percentile up to p95 that leaves at least
// ten samples beyond it; with fewer than 20 samples it falls back to
// the median.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.95 {
		q = 0.95
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// latencySummary is one latency series as the report prints it.
type latencySummary struct {
	N         int
	P50, Tail float64
	TailQ     float64 // the quantile Tail is taken at
}

func summarize(xs []float64) latencySummary {
	if len(xs) == 0 {
		return latencySummary{}
	}
	q := tailQuantile(len(xs))
	return latencySummary{N: len(xs), P50: median(xs), Tail: quantile(xs, q), TailQ: q}
}
