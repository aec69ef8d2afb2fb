package pombm_test

// Godoc examples: runnable documentation for the main public entry points.
// Outputs are deterministic because every constructor takes a seed.

import (
	"fmt"

	"github.com/pombm/pombm"
)

// ExampleBuildHSTWithParams rebuilds the paper's worked Example 1: four
// points, β = 1/2, identity pivot permutation.
func ExampleBuildHSTWithParams() {
	pts := []pombm.Point{
		pombm.Pt(1, 1), pombm.Pt(2, 3), pombm.Pt(5, 3), pombm.Pt(4, 4),
	}
	tree, err := pombm.BuildHSTWithParams(pts, 0.5, []int{0, 1, 2, 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("depth D = %d, degree c = %d\n", tree.Depth(), tree.Degree())
	fmt.Printf("dT(o1, o2) = %.0f\n", tree.Dist(tree.CodeOf(0), tree.CodeOf(1)))
	fmt.Printf("dT(o3, o4) = %.0f\n", tree.Dist(tree.CodeOf(2), tree.CodeOf(3)))
	// Output:
	// depth D = 4, degree c = 2
	// dT(o1, o2) = 28
	// dT(o3, o4) = 12
}

// ExampleNewHSTMechanism reproduces Table I of the paper: per-leaf
// obfuscation probabilities at ε = 0.1.
func ExampleNewHSTMechanism() {
	pts := []pombm.Point{
		pombm.Pt(1, 1), pombm.Pt(2, 3), pombm.Pt(5, 3), pombm.Pt(4, 4),
	}
	tree, _ := pombm.BuildHSTWithParams(pts, 0.5, []int{0, 1, 2, 3})
	mech, err := pombm.NewHSTMechanism(tree, 0.1)
	if err != nil {
		panic(err)
	}
	for lvl := 0; lvl <= tree.Depth(); lvl++ {
		fmt.Printf("level %d: %.3f\n", lvl, mech.Weight(lvl)/mech.TotalWeight())
	}
	// Output:
	// level 0: 0.394
	// level 1: 0.264
	// level 2: 0.119
	// level 3: 0.024
	// level 4: 0.001
}

// ExampleOptimalMatching solves a small assignment instance.
func ExampleOptimalMatching() {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total, err := pombm.OptimalMatching(3, 3, func(task, worker int) float64 {
		return cost[task][worker]
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("assignment %v, total cost %.0f\n", assign, total)
	// Output:
	// assignment [1 0 2], total cost 5
}

// ExampleVerifyHSTGeoI audits Theorem 1 exactly on a small tree.
func ExampleVerifyHSTGeoI() {
	pts := []pombm.Point{
		pombm.Pt(1, 1), pombm.Pt(2, 3), pombm.Pt(5, 3), pombm.Pt(4, 4),
	}
	tree, _ := pombm.BuildHSTWithParams(pts, 0.5, []int{0, 1, 2, 3})
	mech, _ := pombm.NewHSTMechanism(tree, 0.5)
	report := pombm.VerifyHSTGeoI(mech, 1e-9)
	fmt.Printf("satisfied: %v, violations: %d\n", report.Satisfied(), report.Violations)
	// Output:
	// satisfied: true, violations: 0
}

// ExampleRun executes the paper's full pipeline on a small instance.
func ExampleRun() {
	region := pombm.NewRect(pombm.Pt(0, 0), pombm.Pt(200, 200))
	env, _ := pombm.NewEnv(region, 16, 16, 1)
	inst, _ := pombm.SyntheticInstance(pombm.SyntheticParams{
		NumTasks: 50, NumWorkers: 80, Mu: 100, Sigma: 20,
	}, 7)
	res, err := pombm.Run(pombm.AlgTBF, env, inst, pombm.Options{Epsilon: 0.6}, 42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("matched %d of %d tasks\n", res.Matched, len(inst.Tasks))
	// Output:
	// matched 50 of 50 tasks
}
