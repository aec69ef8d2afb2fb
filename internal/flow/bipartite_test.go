package flow

import (
	"math"
	"math/rand"
	"testing"
)

// bipInstance is one random restricted-assignment problem.
type bipInstance struct {
	nTasks int
	caps   []int       // worker capacities
	arcs   [][]int     // per task: candidate worker ids
	costs  [][]float64 // per task: candidate costs (parallel to arcs)
}

func randBip(r *rand.Rand) bipInstance {
	in := bipInstance{nTasks: 1 + r.Intn(12)}
	nW := 1 + r.Intn(10)
	in.caps = make([]int, nW)
	for w := range in.caps {
		in.caps[w] = 1 + r.Intn(3)
	}
	in.arcs = make([][]int, in.nTasks)
	in.costs = make([][]float64, in.nTasks)
	for t := 0; t < in.nTasks; t++ {
		k := r.Intn(5) // possibly no candidates at all
		seen := map[int]bool{}
		for j := 0; j < k; j++ {
			w := r.Intn(nW)
			if seen[w] {
				continue
			}
			seen[w] = true
			in.arcs[t] = append(in.arcs[t], w)
			in.costs[t] = append(in.costs[t], float64(r.Intn(25)))
		}
	}
	return in
}

// solveBip runs the Bipartite solver on the instance with the given warm
// potentials (nil = cold) and returns cardinality and total cost.
func solveBip(t *testing.T, b *Bipartite, in bipInstance, warm []float64) (int, float64) {
	t.Helper()
	b.Reset(in.nTasks, len(in.caps))
	for w, c := range in.caps {
		pot := 0.0
		if warm != nil {
			pot = warm[w]
		}
		b.SetWorker(w, c, pot)
	}
	for task := range in.arcs {
		for j, w := range in.arcs[task] {
			if err := b.AddArc(task, w, in.costs[task][j]); err != nil {
				t.Fatalf("AddArc(%d, %d, %v): %v", task, w, in.costs[task][j], err)
			}
		}
	}
	matched := b.Run()
	return matched, b.MatchedCost()
}

// bruteBip is the independent reference: a branch-and-bound enumeration
// that gives each task one of its candidates or none, within capacities,
// and keeps the best result by cardinality first, then cost.
func bruteBip(in bipInstance) (int, float64) {
	left := append([]int(nil), in.caps...)
	// reach[t]: tasks from t on with a candidate — the most they can add.
	reach := make([]int, in.nTasks+1)
	for t := in.nTasks - 1; t >= 0; t-- {
		reach[t] = reach[t+1]
		if len(in.arcs[t]) > 0 {
			reach[t]++
		}
	}
	bestN, bestC := -1, 0.0
	var rec func(t, n int, c float64)
	rec = func(t, n int, c float64) {
		if most := n + reach[t]; most < bestN || (most == bestN && c >= bestC) {
			return
		}
		if t == in.nTasks {
			bestN, bestC = n, c
			return
		}
		for j, w := range in.arcs[t] {
			if left[w] > 0 {
				left[w]--
				rec(t+1, n+1, c+in.costs[t][j])
				left[w]++
			}
		}
		rec(t+1, n, c)
	}
	rec(0, 0, 0)
	return bestN, bestC
}

// TestBipartiteMatchesFlowOracle pins the window solver's optimum — the
// min-cost flow optimum of the source/sink network — against the
// branch-and-bound oracle on random instances: identical cardinality and
// identical total cost, with the solver arena reused across every instance.
func TestBipartiteMatchesFlowOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		r := rand.New(rand.NewSource(seed))
		b := NewBipartite()
		for cycle := 0; cycle < 120; cycle++ {
			in := randBip(r)
			gotN, gotC := solveBip(t, b, in, nil)
			wantN, wantC := bruteBip(in)
			if gotN != wantN || math.Abs(gotC-wantC) > 1e-9 {
				t.Fatalf("seed %d cycle %d: Bipartite (%d, %v), brute force (%d, %v)",
					seed, cycle, gotN, gotC, wantN, wantC)
			}
		}
	}
}

// TestBipartiteWarmStartPreservesOptimum pins the warm-start contract: at
// window start no arc carries flow, so ANY seeded potentials — random,
// negative, wildly inconsistent — must leave the optimum untouched. Only
// the choice among equal-cost optima may move.
func TestBipartiteWarmStartPreservesOptimum(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	b := NewBipartite()
	for cycle := 0; cycle < 150; cycle++ {
		in := randBip(r)
		warm := make([]float64, len(in.caps))
		for w := range warm {
			warm[w] = float64(r.Intn(101) - 50)
		}
		gotN, gotC := solveBip(t, b, in, warm)
		wantN, wantC := bruteBip(in)
		if gotN != wantN || math.Abs(gotC-wantC) > 1e-9 {
			t.Fatalf("cycle %d warm %v: Bipartite (%d, %v), brute force (%d, %v)",
				cycle, warm, gotN, gotC, wantN, wantC)
		}
	}
}

// TestBipartiteDeterministic pins tie-breaking: replaying the same window
// with the same potentials yields the identical assignment, arc for arc.
func TestBipartiteDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := randBip(r)
	a, b := NewBipartite(), NewBipartite()
	solveBip(t, a, in, nil)
	solveBip(t, b, in, nil)
	for task := 0; task < in.nTasks; task++ {
		if a.MatchedWorker(task) != b.MatchedWorker(task) || a.MatchedArc(task) != b.MatchedArc(task) {
			t.Fatalf("task %d: worker %d/arc %d vs worker %d/arc %d",
				task, a.MatchedWorker(task), a.MatchedArc(task), b.MatchedWorker(task), b.MatchedArc(task))
		}
	}
}

// TestBipartiteRematchesThroughChain pins the augmenting-path machinery
// with a case that forces a rematch: worker 0 is best for both tasks but
// has one unit, so task 1's arrival must push task 0 onto its alternative.
func TestBipartiteRematchesThroughChain(t *testing.T) {
	b := NewBipartite()
	b.Reset(2, 2)
	b.SetWorker(0, 1, 0)
	b.SetWorker(1, 1, 0)
	mustArc := func(task, w int, cost float64) {
		if err := b.AddArc(task, w, cost); err != nil {
			t.Fatal(err)
		}
	}
	mustArc(0, 0, 1) // task 0: cheap on 0, dear on 1
	mustArc(0, 1, 5)
	mustArc(1, 0, 1) // task 1: only worker 0
	if got := b.Run(); got != 2 {
		t.Fatalf("matched %d, want 2", got)
	}
	if b.MatchedWorker(0) != 1 || b.MatchedWorker(1) != 0 {
		t.Fatalf("assignment (%d, %d), want (1, 0)", b.MatchedWorker(0), b.MatchedWorker(1))
	}
	if c := b.MatchedCost(); math.Abs(c-6) > 1e-9 {
		t.Fatalf("cost %v, want 6", c)
	}
}

// TestBipartiteAddArcRejectsBadInput pins the validation surface.
func TestBipartiteAddArcRejectsBadInput(t *testing.T) {
	b := NewBipartite()
	b.Reset(2, 2)
	cases := []struct {
		name string
		t, w int
		cost float64
	}{
		{"task out of range", 2, 0, 1},
		{"negative task", -1, 0, 1},
		{"negative worker", 0, -1, 1},
		{"worker out of range", 0, 2, 1},
		{"negative cost", 0, 0, -1},
		{"nan cost", 0, 0, math.NaN()},
		{"inf cost", 0, 0, math.Inf(1)},
	}
	for _, tc := range cases {
		if err := b.AddArc(tc.t, tc.w, tc.cost); err == nil {
			t.Errorf("%s: AddArc(%d, %d, %v) accepted", tc.name, tc.t, tc.w, tc.cost)
		}
	}
	if err := b.AddArc(1, 0, 1); err != nil {
		t.Fatalf("valid arc rejected: %v", err)
	}
	if err := b.AddArc(0, 0, 1); err == nil {
		t.Error("out-of-order arc accepted")
	}
	// Rejected arcs leave no slot behind: the one valid arc is arc 0.
	b.SetWorker(0, 1, 0)
	b.SetWorker(1, 1, 0)
	if got := b.Run(); got != 1 || b.MatchedArc(1) != 0 || b.MatchedArc(0) != -1 {
		t.Errorf("matched %d, task 1 through arc %d, task 0 through arc %d; want 1, 0, -1",
			got, b.MatchedArc(1), b.MatchedArc(0))
	}
}

// TestSimplePath pins the plainest path to the sink: one worker of
// capacity 3 absorbs three tasks through their only arcs.
func TestSimplePath(t *testing.T) {
	b := NewBipartite()
	in := bipInstance{nTasks: 3, caps: []int{3}, arcs: [][]int{{0}, {0}, {0}}, costs: [][]float64{{1}, {2}, {3}}}
	if got, cost := solveBip(t, b, in, nil); got != 3 || cost != 6 {
		t.Fatalf("matched %d at cost %v, want 3 at 6", got, cost)
	}
	for task := 0; task < 3; task++ {
		if b.MatchedArc(task) != task || b.MatchedWorker(task) != 0 {
			t.Errorf("task %d: arc %d worker %d", task, b.MatchedArc(task), b.MatchedWorker(task))
		}
	}
}

// TestPrefersCheapPathAndReportsResiduals pins capacity on the cheap side:
// three tasks each see a cheap worker of capacity 1 and a dear one of
// capacity 5; one task rides the cheap worker and the dear one keeps three
// units spare.
func TestPrefersCheapPathAndReportsResiduals(t *testing.T) {
	b := NewBipartite()
	in := bipInstance{nTasks: 3, caps: []int{1, 5}}
	for task := 0; task < 3; task++ {
		in.arcs = append(in.arcs, []int{0, 1})
		in.costs = append(in.costs, []float64{1, 10})
	}
	if got, cost := solveBip(t, b, in, nil); got != 3 || cost != 21 {
		t.Fatalf("matched %d at cost %v, want 3 at 21 (1 + 2×10)", got, cost)
	}
	load := []int{0, 0}
	for task := 0; task < 3; task++ {
		load[b.MatchedWorker(task)]++
	}
	if load[0] != 1 || 5-load[1] != 3 {
		t.Errorf("loads %v: cheap worker must be saturated, dear one 3 units spare", load)
	}
}

// TestDisconnectedSinkStopsEarly pins tasks with no way to the sink: one
// without candidates, one whose only worker has no capacity. Both stay
// unmatched at no cost.
func TestDisconnectedSinkStopsEarly(t *testing.T) {
	b := NewBipartite()
	in := bipInstance{nTasks: 2, caps: []int{1, 0}, arcs: [][]int{nil, {1}}, costs: [][]float64{nil, {4}}}
	if got, cost := solveBip(t, b, in, nil); got != 0 || cost != 0 {
		t.Fatalf("matched %d at cost %v on a disconnected sink", got, cost)
	}
	for task := 0; task < 2; task++ {
		if b.MatchedArc(task) != -1 || b.MatchedWorker(task) != -1 {
			t.Errorf("task %d: arc %d worker %d, want -1", task, b.MatchedArc(task), b.MatchedWorker(task))
		}
	}
}

// TestResetReusesArena pins Reset across a shrinking and a growing window:
// arc ids restart at 0 and nothing of the previous window survives.
func TestResetReusesArena(t *testing.T) {
	b := NewBipartite()
	first := bipInstance{nTasks: 3, caps: []int{1, 1, 1}, arcs: [][]int{{0}, {1}, {2}}, costs: [][]float64{{1}, {1}, {1}}}
	if got, _ := solveBip(t, b, first, nil); got != 3 {
		t.Fatalf("first window matched %d, want 3", got)
	}
	shrunk := bipInstance{nTasks: 1, caps: []int{2}, arcs: [][]int{{0}}, costs: [][]float64{{5}}}
	if got, cost := solveBip(t, b, shrunk, nil); got != 1 || b.MatchedArc(0) != 0 || cost != 5 {
		t.Fatalf("shrunk window: matched %d, arc %d, cost %v", got, b.MatchedArc(0), cost)
	}
	grown := bipInstance{nTasks: 4, caps: []int{1, 1}, arcs: [][]int{nil, nil, nil, {1}}, costs: [][]float64{nil, nil, nil, {2}}}
	if got, cost := solveBip(t, b, grown, nil); got != 1 || b.MatchedWorker(3) != 1 || cost != 2 {
		t.Fatalf("grown window: matched %d, task 3 on %d, cost %v", got, b.MatchedWorker(3), cost)
	}
	for task := 0; task < 3; task++ {
		if b.MatchedArc(task) != -1 {
			t.Errorf("task %d kept arc %d from an earlier window", task, b.MatchedArc(task))
		}
	}
}
