package main

import (
	"math"
	"sort"

	"vnfopt/internal/stats"
)

// tailQuantiles are the candidate tail percentiles, highest first. A
// workload fixes one of them per latency series, in its table: the
// highest that leaves at least minBeyond samples above it at the run
// length the benchmark is run at.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// minBeyond is the number of samples a tail percentile must leave above
// it to be reported as that percentile.
const minBeyond = 10

// series is one latency sample set, in milliseconds.
type series struct {
	name    string
	tail    float64 // fixed tail quantile for this series
	samples []float64
}

// summary is a series reduced to the numbers the report prints.
type summary struct {
	Name    string  `json:"name"`
	N       int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	Tail    float64 `json:"tail_ms"`
	TailQ   float64 `json:"tail_quantile"`
	Beyond  int     `json:"samples_beyond_tail"`
	Mean    float64 `json:"mean_ms"`
	Highest float64 `json:"supported_quantile"`
}

// summarize sorts a copy of the samples and reports the median, the
// fixed tail, how many samples lie beyond it, and the highest tail the
// sample supports (at least minBeyond beyond it).
func (s *series) summarize() summary {
	xs := append([]float64(nil), s.samples...)
	sort.Float64s(xs)
	out := summary{Name: s.name, N: len(xs), TailQ: s.tail}
	if len(xs) == 0 {
		return out
	}
	out.P50 = stats.Quantile(xs, 0.5)
	out.Tail = stats.Quantile(xs, s.tail)
	out.Beyond = beyond(len(xs), s.tail)
	out.Mean = stats.Mean(xs)
	out.Highest = supportedQuantile(len(xs))
	return out
}

// beyond counts the samples strictly above the q-quantile position of an
// n-sample set.
func beyond(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// supportedQuantile is the highest candidate tail quantile an n-sample
// set supports, or 0 when it supports none.
func supportedQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// quantile is the q-quantile of an unsorted sample (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, q)
}

// median of a small sample (used for repeated set-up and recovery
// timings).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0 (a layer that did no work this run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
