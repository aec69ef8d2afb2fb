package engine_test

import (
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// The rotation differential, extending the hst op-tape style to epoch
// swaps: after any number of rotations, an engine that lived through them
// must be assignment-for-assignment identical to an engine built fresh
// from the same post-rotation worker set — a rotation leaves no residue
// (no stale index state, no leaked ids, no tie-break drift).

// driveRotationDifferential churns an engine through random
// insert/remove/assign ops interleaved with rotations to the trees a
// deployment rotates to (hst.BuildEpoch); after every rotation (and at the
// end) it rebuilds a fresh engine from the live population and replays an
// identical assignment tape on both, comparing every answer.
func driveRotationDifferential(t *testing.T, seed uint64, rotations, opsPerEpoch int) {
	t.Helper()
	src := rng.New(seed)
	tree := buildTree(t, 8, seed)
	eng, err := engine.New(tree, 4)
	if err != nil {
		t.Fatal(err)
	}

	live := map[int]hst.Code{} // id → code, the ground-truth population
	nextID := 0

	churn := func() {
		for op := 0; op < opsPerEpoch; op++ {
			switch {
			case src.Float64() < 0.5: // insert
				c := randCode(tree, src)
				if err := eng.Insert(c, nextID); err != nil {
					t.Fatal(err)
				}
				live[nextID] = c
				nextID++
			case src.Float64() < 0.5: // assign
				if id, _, ok := eng.Assign(randCode(tree, src)); ok {
					delete(live, id)
				}
			default: // remove an arbitrary live worker
				for id, c := range live {
					if !eng.Remove(c, id) {
						t.Fatalf("remove of live worker %d failed", id)
					}
					delete(live, id)
					break
				}
			}
		}
	}

	// compare rebuilds a fresh engine from the live population and drains
	// both engines with one probe tape, answer for answer.
	compare := func(round int) {
		fresh, err := engine.New(tree, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Inserting in arbitrary map order must not matter — the engines
		// tie-break on ids, not insertion order.
		for id, c := range live {
			if err := fresh.Insert(c, id); err != nil {
				t.Fatal(err)
			}
		}
		if fresh.Len() != eng.Len() {
			t.Fatalf("round %d: rotated engine holds %d, fresh %d", round, eng.Len(), fresh.Len())
		}
		probeSrc := rng.New(seed).DeriveN("probe", round)
		for {
			q := randCode(tree, probeSrc)
			idR, lvlR, okR := eng.Assign(q)
			idF, lvlF, okF := fresh.Assign(q)
			if idR != idF || lvlR != lvlF || okR != okF {
				t.Fatalf("round %d: rotated engine assigned (%d,%d,%v), fresh (%d,%d,%v)",
					round, idR, lvlR, okR, idF, lvlF, okF)
			}
			if !okR {
				break
			}
			delete(live, idR)
		}
		// Drained: both empty. Rebuild the rotated engine's population for
		// the next epoch from the (now empty) live set by reinserting a
		// fresh wave, so later rounds start populated.
		for i := 0; i < 40; i++ {
			c := randCode(tree, src)
			if err := eng.Insert(c, nextID); err != nil {
				t.Fatal(err)
			}
			live[nextID] = c
			nextID++
		}
	}

	for round := 0; round < rotations; round++ {
		churn()

		// Rotate: every live worker re-reports under the next tree with a
		// fresh id, exactly as the serving layers do.
		epoch := eng.Epoch() + 1
		next, err := hst.BuildEpoch(tree.Points(), seed, epoch, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, 0, len(live))
		for id := range live {
			order = append(order, id)
		}
		// Deterministic order: ascending id.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && order[j] < order[j-1]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		newLive := map[int]hst.Code{}
		inserts := make([]engine.EpochInsert, 0, len(order))
		for range order {
			id := nextID
			nextID++
			code := randCode(next, src)
			newLive[id] = code
			inserts = append(inserts, engine.EpochInsert{Code: code, ID: id})
		}
		if err := eng.SwapEpoch(epoch, next, 0, inserts); err != nil {
			t.Fatal(err)
		}
		if got := eng.Epoch(); got != engine.FirstEpoch+int64(round)+1 || eng.Tree() != next {
			t.Fatalf("round %d: engine at epoch %d after the swap", round, got)
		}
		tree = next
		live = newLive

		compare(round)
	}
}

func TestRotatedEngineMatchesFreshBuild(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		driveRotationDifferential(t, uint64(3000+trial), 5, 300)
	}
}

// TestRotationDifferentialAcrossSeeds repeats a smaller differential on
// three seeds, each drawing both trees and both populations: a swapped
// engine must answer a drain tape exactly as one built fresh from the
// post-swap population.
func TestRotationDifferentialAcrossSeeds(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		t.Run("", func(t *testing.T) {
			src := rng.New(uint64(40 + k))
			tree := buildTree(t, 8, uint64(50+k))
			eng, err := engine.New(tree, 0)
			if err != nil {
				t.Fatal(err)
			}
			live := map[int]hst.Code{}
			for id := 0; id < 100; id++ {
				live[id] = randCode(tree, src)
				if err := eng.Insert(live[id], id); err != nil {
					t.Fatal(err)
				}
			}
			tree2 := buildTree(t, 8, uint64(60+k))
			inserts := make([]engine.EpochInsert, 0, len(live))
			newLive := map[int]hst.Code{}
			for id := 0; id < 100; id++ {
				c := randCode(tree2, src)
				newLive[1000+id] = c
				inserts = append(inserts, engine.EpochInsert{Code: c, ID: 1000 + id})
			}
			if err := eng.SwapEpoch(2, tree2, 0, inserts); err != nil {
				t.Fatal(err)
			}
			fresh, err := engine.New(tree2, 0)
			if err != nil {
				t.Fatal(err)
			}
			for id, c := range newLive {
				if err := fresh.Insert(c, id); err != nil {
					t.Fatal(err)
				}
			}
			for {
				q := randCode(tree2, src)
				idR, lvlR, okR := eng.Assign(q)
				idF, lvlF, okF := fresh.Assign(q)
				if idR != idF || lvlR != lvlF || okR != okF {
					t.Fatalf("seed %d: rotated (%d,%d,%v) ≠ fresh (%d,%d,%v)",
						40+k, idR, lvlR, okR, idF, lvlF, okF)
				}
				if !okR {
					break
				}
			}
		})
	}
}
