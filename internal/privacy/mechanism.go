// Package privacy implements the location-obfuscation mechanisms of the
// POMBM problem: the paper's tree-based mechanism on HST leaves (Alg. 2 and
// its O(D) random-walk implementation, Alg. 3), the planar Laplace
// mechanism of Andrés et al. (CCS'13) used by the Lap-GR/Lap-HG/Prob
// baselines, and a grid exponential mechanism used for ablations. It also
// provides an exact Geo-Indistinguishability verifier used by the tests.
package privacy

import "errors"

// ErrBadEpsilon is returned when a non-positive privacy budget is supplied.
var ErrBadEpsilon = errors.New("privacy: epsilon must be positive")
