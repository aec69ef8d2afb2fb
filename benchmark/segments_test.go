package main

import (
	"math"
	"testing"
)

// Segments tile the timed region: no cycle is skipped or played twice, and
// batch-window's boundaries fall on whole periods of its arrival pattern.
func TestSegmentBoundsTileTheTimedRegion(t *testing.T) {
	for _, sp := range specs {
		warm, total := tapeCycles(sp, defaultSeconds, defaultReps)
		n := max((total-warm)/sp.segmentCycles, 1)
		next := warm
		for s := 0; s < n; s++ {
			lo, hi := segmentBounds(sp, warm, total, s, n)
			if lo != next || hi <= lo {
				t.Fatalf("%s: segment %d is [%d, %d), the previous one ended at %d", sp.name, s, lo, hi, next)
			}
			if sp.tape == "batch" && (lo-warm)%batchPeriod != 0 {
				t.Errorf("%s: segment %d starts inside a period (cycle %d)", sp.name, s, lo)
			}
			next = hi
		}
		if next != total {
			t.Errorf("%s: the segments end at cycle %d, the timed region at %d", sp.name, next, total)
		}
	}
}

// The quieter half is the faster half by time per task, and pooling it
// gives its tasks over its wall time.
func TestQuieterHalfKeepsTheFasterSegments(t *testing.T) {
	tr := &timed{segs: make([]segment, 5)}
	for i, ms := range []int64{30, 10, 50, 20, 40} { // 100 tasks each
		tr.segs[i].wall, tr.segs[i].tasks = ms*1e6, 100
		tr.segs[i].task.RecordN(ms*1e4, 100)
	}
	kept := quieterHalf(tr.segs)
	if len(kept) != 3 || kept[0] != 1 || kept[1] != 3 || kept[2] != 0 {
		t.Fatalf("kept segments %v, want [1 3 0]", kept)
	}
	quiet, whole := tr.pooled(kept), tr.pooled(nil)
	if got, want := quiet.tput(), 300/0.060; math.Abs(got-want) > 1e-6 {
		t.Errorf("quieter half: %v tasks/s, want %v", got, want)
	}
	if got, want := whole.tput(), 500/0.150; math.Abs(got-want) > 1e-6 {
		t.Errorf("whole region: %v tasks/s, want %v", got, want)
	}
	if q, w := quiet.task.Quantile(0.5), whole.task.Quantile(0.5); q >= w || quiet.task.Count() != 300 {
		t.Errorf("quieter half's median %v over %d tasks, whole region's %v", q, quiet.task.Count(), w)
	}
}

// The index is 1 at the reference readings, is read off the faster half of
// the chunks, and is the geometric mean of the two kernels' slow-downs.
func TestHostIndex(t *testing.T) {
	y := &yardstick{cpuRefNs: 50, netRefNs: 40000}
	rest := chunk{cpu: 50, net: 40000}
	if got := y.index([]chunk{rest, rest, {cpu: 500, net: 400000}}); math.Abs(got-1) > 1e-12 {
		t.Errorf("two chunks at rest and one inside a burst read %v, want 1", got)
	}
	slow := chunk{cpu: 100, net: 40000} // sorting twice as slow, the echo unchanged
	if got := y.index([]chunk{slow, slow}); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("index %v, want √2", got)
	}
}
