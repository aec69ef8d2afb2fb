package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLambertWm1Identity(t *testing.T) {
	for _, x := range []float64{-invE + 1e-12, -0.36, -0.3, -0.2, -0.1, -0.01, -1e-4, -1e-8, -1e-15} {
		w, err := LambertWm1(x)
		if err != nil {
			t.Fatalf("Wm1(%v): %v", x, err)
		}
		got := w * math.Exp(w)
		if math.Abs(got-x) > 1e-9*math.Max(math.Abs(x), 1e-12) {
			t.Errorf("Wm1(%v)=%v, w·e^w=%v", x, w, got)
		}
		if w > -1+1e-9 {
			t.Errorf("Wm1(%v)=%v above -1", x, w)
		}
	}
}

func TestLambertWKnownValues(t *testing.T) {
	// W₋₁(-2e⁻²) = -2 (since -2·e^{-2} = x).
	w, _ := LambertWm1(-2 * math.Exp(-2))
	if math.Abs(w+2) > 1e-9 {
		t.Errorf("Wm1(-2e^-2) = %v, want -2", w)
	}
	// The branch point is -1.
	if wm, _ := LambertWm1(-invE); wm != -1 {
		t.Errorf("branch point: Wm1=%v", wm)
	}
}

func TestLambertWDomainErrors(t *testing.T) {
	if _, err := LambertWm1(0); err == nil {
		t.Error("Wm1(0) should fail")
	}
	if _, err := LambertWm1(0.5); err == nil {
		t.Error("Wm1(0.5) should fail")
	}
	if _, err := LambertWm1(math.NaN()); err == nil {
		t.Error("Wm1(NaN) should fail")
	}
}

func TestLambertWm1RoundTripQuick(t *testing.T) {
	// For any w ≤ -1, Wm1(w·e^w) = w.
	f := func(raw float64) bool {
		w := -1 - math.Abs(math.Mod(raw, 30)) // w in [-31, -1]
		x := w * math.Exp(w)
		if x == 0 { // severe underflow for very negative w
			return true
		}
		got, err := LambertWm1(x)
		if err != nil {
			return false
		}
		return math.Abs(got-w) <= 1e-8*math.Abs(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
