package numeric

import (
	"math"
	"testing"
)

func TestAdaptiveSimpsonPolynomials(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 3 }, 0, 5, 15},
		{"linear", func(x float64) float64 { return x }, 0, 4, 8},
		{"cubic", func(x float64) float64 { return x * x * x }, 0, 2, 4},
		{"sin over period", math.Sin, 0, 2 * math.Pi, 0},
		{"gaussian-ish", func(x float64) float64 { return math.Exp(-x * x) }, -8, 8, math.Sqrt(math.Pi)},
		{"exp decay", func(x float64) float64 { return math.Exp(-x) }, 0, 50, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := AdaptiveSimpson(tt.f, tt.a, tt.b, 1e-10)
			if math.Abs(got-tt.want) > 1e-7 {
				t.Errorf("∫ = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAdaptiveSimpsonOrientation(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	fwd := AdaptiveSimpson(f, 0, 3, 1e-10)
	rev := AdaptiveSimpson(f, 3, 0, 1e-10)
	if math.Abs(fwd+rev) > 1e-9 {
		t.Errorf("reversed interval: %v vs %v", fwd, rev)
	}
	if AdaptiveSimpson(f, 2, 2, 1e-10) != 0 {
		t.Error("empty interval not 0")
	}
}

func TestLaplaceRadialDensityIntegratesToOne(t *testing.T) {
	// The planar Laplace radial density ε²ρe^{-ερ} must integrate to 1
	// (this is the kernel the Prob baseline integrates against).
	for _, eps := range []float64{0.2, 0.6, 1.0, 2.0} {
		f := func(rho float64) float64 { return eps * eps * rho * math.Exp(-eps*rho) }
		got := AdaptiveSimpson(f, 0, 200/eps, 1e-12)
		if math.Abs(got-1) > 1e-6 {
			t.Errorf("ε=%v: ∫ radial density = %v", eps, got)
		}
	}
}
