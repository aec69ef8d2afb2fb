package numeric

import "math"

// ArcFraction returns the fraction (in [0,1]) of the circle of radius rho
// centred at the origin that lies within distance r of a point at distance
// d from the origin.
//
// This is the angular kernel in the Prob baseline's reachability integral:
// integrating it against the planar-Laplace radial density gives the
// probability that an obfuscated location's true position lies within a
// worker's reachable disc.
func ArcFraction(rho, d, r float64) float64 {
	switch {
	case rho < 0 || d < 0 || r < 0:
		return 0
	case rho == 0:
		if d <= r {
			return 1
		}
		return 0
	case d+rho <= r:
		return 1 // circle entirely inside the disc
	case math.Abs(d-rho) >= r:
		return 0 // circle entirely outside (or disc inside annulus gap)
	}
	// Law of cosines for the half-angle subtended by the intersection.
	cos := (rho*rho + d*d - r*r) / (2 * rho * d)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return math.Acos(cos) / math.Pi
}
