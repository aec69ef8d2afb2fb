// Package numeric provides the numerical routines pombm needs beyond the
// standard library: Lambert W (for planar-Laplace inverse-CDF sampling),
// adaptive Simpson quadrature, and circle-intersection arc fractions (for
// the Prob baseline's reachability probabilities).
package numeric

import (
	"errors"
	"math"
)

// ErrDomain is returned when an input lies outside a function's domain.
var ErrDomain = errors.New("numeric: argument outside domain")

const invE = 1.0 / math.E

// LambertWm1 computes the lower branch W₋₁(x), defined for -1/e ≤ x < 0,
// satisfying W e^W = x with W ≤ -1. This branch inverts the planar-Laplace
// radial CDF (Andrés et al., CCS'13, Eq. for C_ε⁻¹).
func LambertWm1(x float64) (float64, error) {
	if math.IsNaN(x) || x < -invE-1e-15 || x >= 0 {
		return 0, ErrDomain
	}
	if x <= -invE {
		return -1, nil
	}
	// Initial guess.
	var w float64
	if x > -0.25 {
		// Asymptotic near 0⁻: W₋₁(x) ≈ ln(-x) - ln(-ln(-x)).
		l1 := math.Log(-x)
		l2 := math.Log(-l1)
		w = l1 - l2 + l2/l1
	} else {
		// Series around the branch point, lower sign.
		p := -math.Sqrt(2 * (math.E*x + 1))
		w = -1 + p - p*p/3 + 11.0/72.0*p*p*p
	}
	return halley(w, x), nil
}

// halley refines w towards the solution of w e^w = x using Halley's method,
// which is cubically convergent; a handful of iterations reaches 1 ulp.
func halley(w, x float64) float64 {
	for i := 0; i < 64; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		if f == 0 {
			break
		}
		w1 := w + 1
		denom := ew*w1 - (w+2)*f/(2*w1)
		if denom == 0 {
			break
		}
		dw := f / denom
		w -= dw
		if math.Abs(dw) <= 1e-14*(1+math.Abs(w)) {
			break
		}
	}
	return w
}
