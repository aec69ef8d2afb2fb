package core

import (
	"testing"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

func testEnv(t testing.TB, cols int) *Env {
	t.Helper()
	env, err := NewEnv(workload.SyntheticRegion, cols, cols, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func testInstance(t testing.TB, nt, nw int, seed uint64) *workload.Instance {
	t.Helper()
	p := workload.SyntheticParams{NumTasks: nt, NumWorkers: nw, Mu: workload.DefaultMu, Sigma: workload.DefaultSigma}
	in, err := workload.Synthetic(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(workload.SyntheticRegion, 0, 4, rng.New(1)); err == nil {
		t.Error("zero columns accepted")
	}
	env := testEnv(t, 8)
	if env.Tree.NumPoints() != 64 {
		t.Errorf("N = %d, want 64", env.Tree.NumPoints())
	}
}

func TestSnapCodeRoundTrip(t *testing.T) {
	env := testEnv(t, 8)
	for i := 0; i < env.Grid.Len(); i++ {
		if got := env.SnapCode(env.Grid.Point(i)); got != env.Tree.CodeOf(i) {
			t.Fatalf("SnapCode(grid point %d) mismatched", i)
		}
	}
}

func TestLeafPosition(t *testing.T) {
	env := testEnv(t, 8)
	// Real leaves map to their own grid point.
	for i := 0; i < env.Grid.Len(); i += 7 {
		if got := env.LeafPosition(env.Tree.CodeOf(i)); got != env.Grid.Point(i) {
			t.Fatalf("LeafPosition(real leaf %d) = %v", i, got)
		}
	}
	// A fake leaf maps to some real grid point (the tree-nearest).
	real := env.Tree.CodeOf(0)
	fake := []byte(real)
	fake[len(fake)-1] ^= 1
	if _, ok := env.Tree.PointOf(hst.Code(fake)); ok {
		t.Skip("sibling happens to be real; nothing to test")
	}
	pos := env.LeafPosition(hst.Code(fake))
	found := false
	for i := 0; i < env.Grid.Len(); i++ {
		if env.Grid.Point(i) == pos {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("fake-leaf position %v is not a grid point", pos)
	}
}

func TestRunDispatch(t *testing.T) {
	env := testEnv(t, 8)
	inst := testInstance(t, 30, 50, 5)
	opt := Options{Epsilon: 0.6}
	for _, alg := range []Algorithm{AlgTBF, AlgLapGR, AlgLapHG} {
		res, err := Run(alg, env, inst, opt, rng.New(3))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Errorf("%s: result labelled %s", alg, res.Algorithm)
		}
		if res.Matched != len(inst.Tasks) {
			t.Errorf("%s: matched %d of %d tasks", alg, res.Matched, len(inst.Tasks))
		}
		if res.TotalDistance <= 0 {
			t.Errorf("%s: total distance %v", alg, res.TotalDistance)
		}
	}
	if _, err := Run("bogus", env, inst, opt, rng.New(3)); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Run(AlgTBF, env, inst, Options{Epsilon: -1}, rng.New(3)); err == nil {
		t.Error("bad epsilon accepted")
	}
}

func TestMoreTasksThanWorkers(t *testing.T) {
	env := testEnv(t, 8)
	inst := testInstance(t, 40, 25, 6)
	for _, alg := range []Algorithm{AlgTBF, AlgLapGR, AlgLapHG} {
		res, err := Run(alg, env, inst, Options{Epsilon: 0.6}, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		if res.Matched != 25 {
			t.Errorf("%s: matched %d, want 25 (worker-limited)", alg, res.Matched)
		}
	}
}

func TestTBFDeterministicGivenSeed(t *testing.T) {
	env := testEnv(t, 8)
	inst := testInstance(t, 50, 80, 7)
	a, err := runTBF(env, inst, Options{Epsilon: 0.6}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTBF(env, inst, Options{Epsilon: 0.6}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalDistance != b.TotalDistance || a.Matched != b.Matched {
		t.Errorf("same seed diverged: %v vs %v", a.TotalDistance, b.TotalDistance)
	}
}

func TestTrieAndScanPipelineEquivalent(t *testing.T) {
	env := testEnv(t, 16)
	inst := testInstance(t, 150, 200, 8)
	for _, alg := range []Algorithm{AlgTBF, AlgLapHG} {
		scan, err := Run(alg, env, inst, Options{Epsilon: 0.6}, rng.New(10))
		if err != nil {
			t.Fatal(err)
		}
		trie, err := Run(alg, env, inst, Options{Epsilon: 0.6, UseTrie: true}, rng.New(10))
		if err != nil {
			t.Fatal(err)
		}
		if scan.TotalDistance != trie.TotalDistance {
			t.Errorf("%s: scan %v ≠ trie %v", alg, scan.TotalDistance, trie.TotalDistance)
		}
	}
}

// TestShapeTBFBeatsBaselinesAtSmallEpsilon is the paper's headline claim in
// miniature: averaged over repetitions at strict privacy (ε = 0.2), TBF's
// total true distance is clearly below Lap-GR's and Lap-HG's (Fig. 7a).
func TestShapeTBFBeatsBaselinesAtSmallEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	env := testEnv(t, 32)
	opt := Options{Epsilon: 0.2}
	var tbf, gr, hg float64
	const reps = 5
	for rep := 0; rep < reps; rep++ {
		inst := testInstance(t, 400, 700, uint64(100+rep))
		seed := rng.New(uint64(200 + rep))
		a, err := runTBF(env, inst, opt, seed.Derive("tbf"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runLapGR(env, inst, opt, seed.Derive("gr"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := runLapHG(env, inst, opt, seed.Derive("hg"))
		if err != nil {
			t.Fatal(err)
		}
		tbf += a.TotalDistance
		gr += b.TotalDistance
		hg += c.TotalDistance
	}
	if tbf >= gr {
		t.Errorf("TBF %v not below Lap-GR %v at ε=0.2", tbf/reps, gr/reps)
	}
	if tbf >= hg {
		t.Errorf("TBF %v not below Lap-HG %v at ε=0.2", tbf/reps, hg/reps)
	}
}

func TestEmptyInstance(t *testing.T) {
	env := testEnv(t, 8)
	inst := &workload.Instance{Region: workload.SyntheticRegion}
	for _, alg := range []Algorithm{AlgTBF, AlgLapGR, AlgLapHG} {
		res, err := Run(alg, env, inst, Options{Epsilon: 0.5}, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Matched != 0 || res.TotalDistance != 0 {
			t.Errorf("%s: nonzero result on empty instance", alg)
		}
		if res.MeanLatency() != 0 {
			t.Errorf("%s: MeanLatency on empty instance", alg)
		}
	}
}
