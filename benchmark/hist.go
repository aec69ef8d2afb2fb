package main

import "math/bits"

// Histogram is a fixed-bucket log-scale latency histogram over
// nanoseconds: each power of two is cut into histSub equal sub-buckets, so
// a bucket's width is at most 1/histSub of its lower edge and a quantile
// read back from bucket midpoints is within 0.4 % of the exact order
// statistic (the test pins ≤ 1 %). Each client owns one — Record takes no
// lock and allocates nothing — and the per-client histograms are merged
// once the clients have stopped.
type Histogram struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values below histSub ns get one bucket each; above, 64−histSubBits
	// octaves of histSub sub-buckets.
	histBuckets = (64 - histSubBits + 1) * histSub
)

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1)), e ≥ histSubBits
	sub := (v >> (uint(e) - histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + int(sub)
}

// bucketMid returns the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub + histSubBits - 1
	sub := uint64(i % histSub)
	lo := uint64(1)<<uint(e) + sub<<(uint(e)-histSubBits)
	width := uint64(1) << (uint(e) - histSubBits)
	return float64(lo) + float64(width-1)/2
}

// Record adds one observation of ns nanoseconds (negative reads as 0).
func (h *Histogram) Record(ns int64) { h.RecordN(ns, 1) }

// RecordN adds n observations of the same value: every task of a batch
// experienced the latency of the SubmitBatch call it rode in.
func (h *Histogram) RecordN(ns int64, n int) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))] += uint32(n)
	h.n += uint64(n)
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds: the midpoint
// of the bucket holding the ⌈q·n⌉-th smallest observation. An empty
// histogram reads 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	rank = max(rank, 1)
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}
