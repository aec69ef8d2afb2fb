// Package obs holds what a running process records about itself: for now
// one histogram type, which the agent hop's stages are timed into
// (internal/platform). Recording costs a few atomic adds and no allocation,
// so it stays on in production and under every AllocsPerRun pin.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Hist is a fixed-array log-scale histogram of durations in nanoseconds:
// each power of two up to 2^maxExp is cut into sub equal buckets, so a
// bucket is at most 1/sub of its lower edge wide and a quantile read back
// from bucket midpoints is within 1/(2·sub) of the order statistic. Longer
// observations land in the last bucket. Safe for concurrent use; the zero
// value is empty.
type Hist struct {
	counts [buckets]atomic.Uint64
}

const (
	subBits = 3
	sub     = 1 << subBits
	// maxExp bounds the range at 2^40 ns, about eighteen minutes.
	maxExp = 40
	// Values below sub ns get one bucket each; above, one octave of sub
	// buckets per exponent up to maxExp.
	buckets = (maxExp - subBits + 1) * sub
)

func bucketOf(v uint64) int {
	if v < sub {
		return int(v)
	}
	if v >= 1<<maxExp {
		return buckets - 1
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1)), subBits ≤ e < maxExp
	return (e-subBits+1)*sub + int((v>>(uint(e)-subBits))&(sub-1))
}

// bucketMid returns the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < sub {
		return float64(i)
	}
	e := uint(i/sub + subBits - 1)
	width := uint64(1) << (e - subBits)
	lo := uint64(1)<<e + uint64(i%sub)*width
	return float64(lo) + float64(width-1)/2
}

// Record adds one observation of ns nanoseconds (negative reads as 0).
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))].Add(1)
}

// Snapshot returns the histogram as it stands. Concurrent Records may or
// may not be in it; each is counted exactly once across later snapshots.
func (h *Hist) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.counts[i] = c
		s.n += c
	}
	return s
}

// Snapshot is a histogram's state at one moment: a value, free to copy and
// read without synchronisation.
type Snapshot struct {
	counts [buckets]uint64
	n      uint64
}

// Count returns the number of observations.
func (s *Snapshot) Count() uint64 { return s.n }

// Quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds: the midpoint
// of the bucket holding the ⌈q·n⌉-th smallest observation. An empty
// snapshot reads 0.
func (s *Snapshot) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := uint64(q * float64(s.n))
	if float64(rank) < q*float64(s.n) {
		rank++
	}
	rank = max(rank, 1)
	var cum uint64
	for i, c := range s.counts {
		if cum += c; cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(buckets - 1)
}

// Summary is a Snapshot reduced to what a stats endpoint prints.
type Summary struct {
	Count uint64  `json:"count"`
	P50Us float64 `json:"p50_us"`
	P90Us float64 `json:"p90_us"`
	P99Us float64 `json:"p99_us"`
}

// Summary reads the snapshot's count, median and tails, in microseconds.
func (s *Snapshot) Summary() Summary {
	return Summary{Count: s.n, P50Us: s.Quantile(0.50) / 1e3, P90Us: s.Quantile(0.90) / 1e3, P99Us: s.Quantile(0.99) / 1e3}
}
