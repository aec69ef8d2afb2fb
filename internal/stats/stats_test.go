package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Std() != 0 {
		t.Error("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", a.Mean())
	}
	// Population variance of this classic sample is 4; unbiased = 32/7.
	if math.Abs(a.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", a.Var(), 32.0/7.0)
	}
}

func TestAccumulatorMatchesDirectComputation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var a Accumulator
		var sum float64
		for _, x := range xs {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(wantVar))
		return math.Abs(a.Mean()-mean) <= 1e-6*math.Max(1, math.Abs(mean)) &&
			math.Abs(a.Var()-wantVar) <= 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, tt := range cases {
		if got := Percentile(sorted, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("P%.0f%% = %v, want %v", tt.p*100, got, tt.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("empty percentile did not panic")
		}
	}()
	Percentile(nil, 0.5)
}
