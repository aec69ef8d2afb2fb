package core

import (
	"testing"

	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

func TestRunSizeDispatch(t *testing.T) {
	env := testEnv(t, 16)
	inst := testInstance(t, 60, 100, 21)
	reaches := workload.Reaches(len(inst.Workers), 10, 20, rng.New(2))
	for _, alg := range []Algorithm{AlgTBF, AlgProb} {
		res, err := RunSize(alg, env, inst, reaches, Options{Epsilon: 0.6}, rng.New(3))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Errorf("%s: labelled %s", alg, res.Algorithm)
		}
		if res.MatchingSize > res.Assigned {
			t.Errorf("%s: valid %d > assigned %d", alg, res.MatchingSize, res.Assigned)
		}
		if res.Assigned > len(inst.Tasks) {
			t.Errorf("%s: assigned %d > tasks", alg, res.Assigned)
		}
	}
	if _, err := RunSize(AlgLapGR, env, inst, reaches, Options{Epsilon: 0.6}, rng.New(3)); err == nil {
		t.Error("Lap-GR accepted as size algorithm")
	}
	if _, err := RunSize(AlgTBF, env, inst, reaches[:3], Options{Epsilon: 0.6}, rng.New(3)); err == nil {
		t.Error("reach-length mismatch accepted")
	}
}

func TestSizePipelinesAchieveMatches(t *testing.T) {
	// Dense worker pool, generous reach: both algorithms must achieve a
	// substantial valid matching.
	env := testEnv(t, 16)
	inst := testInstance(t, 80, 400, 23)
	reaches := workload.Reaches(len(inst.Workers), 30, 40, rng.New(5))
	for _, alg := range []Algorithm{AlgTBF, AlgProb} {
		res, err := RunSize(alg, env, inst, reaches, Options{Epsilon: 1.0}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if res.MatchingSize < len(inst.Tasks)/2 {
			t.Errorf("%s: matching size %d of %d tasks", alg, res.MatchingSize, len(inst.Tasks))
		}
	}
}

// TestShapeTBFSizeBeatsProb mirrors Fig. 8: with strict privacy the
// tree-based matcher completes more true matches than Prob.
func TestShapeTBFSizeBeatsProb(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	env := testEnv(t, 32)
	var tbf, prob int
	const reps = 5
	for rep := 0; rep < reps; rep++ {
		inst := testInstance(t, 300, 600, uint64(300+rep))
		reaches := workload.Reaches(len(inst.Workers), 10, 20, rng.New(uint64(400+rep)))
		seed := rng.New(uint64(500 + rep))
		a, err := runTBFSize(env, inst, reaches, Options{Epsilon: 0.2}, seed.Derive("tbf"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runProbSize(env, inst, reaches, Options{Epsilon: 0.2}, seed.Derive("prob"))
		if err != nil {
			t.Fatal(err)
		}
		tbf += a.MatchingSize
		prob += b.MatchingSize
	}
	if tbf <= prob {
		t.Errorf("TBF matching size %d not above Prob %d at ε=0.2", tbf, prob)
	}
}

func TestSizeEmptyInstance(t *testing.T) {
	env := testEnv(t, 8)
	inst := &workload.Instance{Region: workload.SyntheticRegion}
	for _, alg := range []Algorithm{AlgTBF, AlgProb} {
		res, err := RunSize(alg, env, inst, nil, Options{Epsilon: 0.5}, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Assigned != 0 || res.MatchingSize != 0 {
			t.Errorf("%s: nonzero on empty instance", alg)
		}
	}
}
