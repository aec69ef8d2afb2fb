package numeric

import (
	"math"
	"math/rand"
	"testing"
)

func TestArcFractionExtremes(t *testing.T) {
	tests := []struct {
		name      string
		rho, d, r float64
		want      float64
	}{
		{"circle inside disc", 1, 1, 3, 1},
		{"circle far outside", 1, 10, 2, 0},
		{"disc inside annulus gap", 5, 0.5, 1, 0},
		{"degenerate circle inside", 0, 1, 2, 1},
		{"degenerate circle outside", 0, 5, 2, 0},
		{"centered circle inside", 2, 0, 3, 1},
		{"centered circle outside", 4, 0, 3, 0},
		{"negative input", -1, 1, 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ArcFraction(tt.rho, tt.d, tt.r); got != tt.want {
				t.Errorf("ArcFraction(%v,%v,%v) = %v, want %v", tt.rho, tt.d, tt.r, got, tt.want)
			}
		})
	}
}

func TestArcFractionHalf(t *testing.T) {
	// When rho² + d² = r²+... pick symmetric case: d = r and rho small:
	// the chord through the origin's side. For rho→0 limit with d = r the
	// point sits on the boundary; exactly half the tiny circle is inside.
	got := ArcFraction(1e-9, 5, 5)
	if math.Abs(got-0.5) > 1e-3 {
		t.Errorf("boundary half-coverage = %v, want ~0.5", got)
	}
}

func TestArcFractionMonotoneInR(t *testing.T) {
	// Growing the disc can only cover more of the circle.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rho := rng.Float64() * 10
		d := rng.Float64() * 10
		prev := 0.0
		for r := 0.0; r <= 25; r += 0.25 {
			cur := ArcFraction(rho, d, r)
			if cur+1e-12 < prev {
				t.Fatalf("ArcFraction not monotone: rho=%v d=%v r=%v: %v < %v", rho, d, r, cur, prev)
			}
			prev = cur
		}
		if prev < 1-1e-12 {
			t.Fatalf("ArcFraction(rho=%v,d=%v,r=25) = %v, want 1", rho, d, prev)
		}
	}
}

func TestArcFractionMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct{ rho, d, r float64 }{
		{2, 3, 4}, {5, 5, 3}, {1, 1.5, 1}, {3, 0.5, 3},
	}
	for _, c := range cases {
		const n = 200000
		in := 0
		for i := 0; i < n; i++ {
			th := rng.Float64() * 2 * math.Pi
			x, y := c.rho*math.Cos(th), c.rho*math.Sin(th)
			if math.Hypot(x-c.d, y) <= c.r {
				in++
			}
		}
		mc := float64(in) / n
		got := ArcFraction(c.rho, c.d, c.r)
		if math.Abs(got-mc) > 0.01 {
			t.Errorf("ArcFraction(%v,%v,%v) = %v, Monte Carlo = %v", c.rho, c.d, c.r, got, mc)
		}
	}
}
