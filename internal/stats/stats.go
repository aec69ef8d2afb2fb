// Package stats provides the summary statistics the experiment harness
// reports: numerically stable mean/variance accumulation (Welford) and
// percentiles.
package stats

import "math"

// Accumulator accumulates a stream of observations with Welford's
// algorithm; the zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance (0 with fewer than two
// observations).
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of a sorted sample using
// linear interpolation. It panics on an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
