package obs

import (
	"math"
	"testing"
)

// TestBucketsTileTheRange: every value lands in a bucket whose midpoint is
// within the promised 1/(2·sub) of it, bucket indices never decrease with
// the value, and the range's ends stay inside the array.
func TestBucketsTileTheRange(t *testing.T) {
	prev := 0
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 17, 1000, 1023, 1024, 17_100, 41_800, 1 << 30, 1<<40 - 1} {
		i := bucketOf(v)
		if i < prev || i >= buckets {
			t.Fatalf("bucketOf(%d) = %d after %d, of %d buckets", v, i, prev, buckets)
		}
		prev = i
		if mid := bucketMid(i); math.Abs(mid-float64(v)) > float64(v)/(2*sub) {
			t.Errorf("value %d sits in bucket %d, midpoint %g: further than 1/%d off", v, i, mid, 2*sub)
		}
	}
	if i := bucketOf(math.MaxUint64); i != buckets-1 {
		t.Errorf("an observation past the range lands in bucket %d, want the last, %d", i, buckets-1)
	}
}

func TestQuantilesReadTheOrderStatistics(t *testing.T) {
	var h Hist
	if s := h.Snapshot(); s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("an empty histogram reads count %d, median %g", s.Count(), s.Quantile(0.5))
	}
	h.Record(-5) // reads as 0
	for v := int64(1); v < 1000; v++ {
		h.Record(v * 1000)
	}
	s := h.Snapshot()
	if s.Count() != 1000 {
		t.Fatalf("count %d, want 1000", s.Count())
	}
	for _, tc := range []struct{ q, want float64 }{{0.001, 0}, {0.5, 499e3}, {0.9, 899e3}, {0.99, 989e3}, {1, 999e3}} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > tc.want/(2*sub) {
			t.Errorf("q%g = %g, want %g within 1/%d", tc.q, got, tc.want, 2*sub)
		}
	}
	if sum := s.Summary(); sum.Count != 1000 || sum.P50Us != s.Quantile(0.5)/1e3 || sum.P99Us < sum.P90Us || sum.P90Us < sum.P50Us {
		t.Errorf("summary %+v does not read the snapshot", sum)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Record(12345) }); allocs != 0 {
		t.Errorf("Record allocates %g times", allocs)
	}
}
