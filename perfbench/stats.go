package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// quantile returns the exact q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. The result is always one of the samples, never an
// interpolation between buckets. samples must be sorted ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile's position.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// highestPercentile returns the largest of the candidate quantiles that
// keeps at least minBeyond samples above it, or 0 when none does.
func highestPercentile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if beyond(n, q) >= minBeyond && q > best {
			best = q
		}
	}
	return best
}

// sortedCopy returns the samples sorted ascending, leaving the input
// untouched.
func sortedCopy(samples []float64) []float64 {
	out := append([]float64(nil), samples...)
	sort.Float64s(out)
	return out
}

// median is the exact median of samples (mean of the middle pair for an
// even count). It returns 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
