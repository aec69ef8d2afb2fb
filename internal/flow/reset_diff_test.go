package flow

import (
	"math/rand"
	"testing"
)

// bipOutcome is everything a solve leaves readable: per-task arcs, the
// closing worker potentials, cardinality and cost.
type bipOutcome struct {
	matched int
	cost    float64
	arcs    []int
	pots    []float64
}

func outcome(t *testing.T, b *Bipartite, in bipInstance, warm []float64) bipOutcome {
	t.Helper()
	var o bipOutcome
	o.matched, o.cost = solveBip(t, b, in, warm)
	for task := 0; task < in.nTasks; task++ {
		o.arcs = append(o.arcs, b.MatchedArc(task))
	}
	for w := range in.caps {
		o.pots = append(o.pots, b.WorkerPot(w))
	}
	return o
}

// sameOutcome compares two solves bit for bit.
func sameOutcome(a, b bipOutcome) bool {
	if a.matched != b.matched || a.cost != b.cost || len(a.arcs) != len(b.arcs) || len(a.pots) != len(b.pots) {
		return false
	}
	for i := range a.arcs {
		if a.arcs[i] != b.arcs[i] {
			return false
		}
	}
	for i := range a.pots {
		if a.pots[i] != b.pots[i] {
			return false
		}
	}
	return true
}

// TestResetDifferential pins the arena life-cycle: one solver Reset across
// many random windows, warm-started or cold, must report exactly the
// matching, cost and closing potentials of a fresh NewBipartite per window.
// Any slab state leaking across Reset shows up as a divergence.
func TestResetDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 21, 99} {
		r := rand.New(rand.NewSource(seed))
		reused := NewBipartite()
		for cycle := 0; cycle < 60; cycle++ {
			in := randBip(r)
			var warm []float64
			if cycle%2 == 1 {
				for range in.caps {
					warm = append(warm, float64(r.Intn(41)-20))
				}
			}
			got := outcome(t, reused, in, warm)
			want := outcome(t, NewBipartite(), in, warm)
			if !sameOutcome(got, want) {
				t.Fatalf("seed %d cycle %d: reused %+v, fresh %+v", seed, cycle, got, want)
			}
		}
	}
}
