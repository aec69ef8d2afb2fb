package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The histogram's quantiles must stay within 1 % of the exact order
// statistics, across six decades of latencies.
func TestHistogramQuantileError(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var h Histogram
	exact := make([]float64, 200000)
	for i := range exact {
		// Log-uniform over 50 ns … 50 ms, the range the workloads span.
		v := int64(50 * math.Pow(1e6, rnd.Float64()))
		exact[i] = float64(v)
		h.Record(v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := exact[int(math.Ceil(q*float64(len(exact))))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%v: histogram %v, exact %v, relative error %.4f > 1 %%", q, got, want, rel)
		}
	}
	if h.Count() != uint64(len(exact)) {
		t.Errorf("count %d, want %d", h.Count(), len(exact))
	}
}

func TestHistogramBucketsCoverTheirValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("value %d maps to bucket %d outside [0, %d)", v, i, histBuckets)
		}
		if mid := bucketMid(i); math.Abs(mid-float64(v)) > float64(v)/histSub+0.5 {
			t.Errorf("value %d: bucket %d has midpoint %v, further than one bucket width away", v, i, mid)
		}
	}
}

func TestHistogramMergeAndRecordN(t *testing.T) {
	var a, b Histogram
	a.RecordN(1000, 3)
	b.Record(2_000_000)
	a.Merge(&b)
	if a.Count() != 4 {
		t.Fatalf("merged count %d, want 4", a.Count())
	}
	if q := a.Quantile(0.5); math.Abs(q-1000) > 10 {
		t.Errorf("median %v, want ≈ 1000", q)
	}
	if q := a.Quantile(1); math.Abs(q-2e6) > 2e4 {
		t.Errorf("max %v, want ≈ 2e6", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram must read 0")
	}
}

func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Errorf("Record allocates %v times per call, want 0", n)
	}
}
