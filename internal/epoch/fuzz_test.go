package epoch

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// fuzzTrees builds the fixed pair of trees the round-trip fuzz rotates
// between; construction is deterministic, so every fuzz input exercises
// the same infrastructure.
func fuzzTrees(t *testing.T) (*hst.Tree, *hst.Tree) {
	t.Helper()
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := hst.Build(grid.Points(), rng.New(101))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := hst.Build(grid.Points(), rng.New(202))
	if err != nil {
		t.Fatal(err)
	}
	return t1, t2
}

// drainCompare asserts two engines answer an identical probe tape answer
// for answer until both drain. It consumes both populations.
func drainCompare(t *testing.T, a, b *engine.Engine, tree *hst.Tree, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	for {
		q := randCode(tree, src)
		idA, lvlA, epA, okA := a.AssignEpoch(q)
		idB, lvlB, epB, okB := b.AssignEpoch(q)
		if idA != idB || lvlA != lvlB || epA != epB || okA != okB {
			t.Fatalf("engines diverge on %v: (%d,%d,%d,%v) ≠ (%d,%d,%d,%v)",
				[]byte(q), idA, lvlA, epA, okA, idB, lvlB, epB, okB)
		}
		if !okA {
			return
		}
	}
}

// FuzzEpochRoundTrip drives an engine's population from a fuzz tape, then
// serialize → rotate → deserialize: the snapshot of the rotated engine
// must restore to an engine whose leaf index answers identically, and the
// snapshot JSON itself must be a fixed point (restore → snapshot →
// identical bytes).
func FuzzEpochRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{255, 0, 255, 9, 9, 9, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tape []byte) {
		tree1, tree2 := fuzzTrees(t)
		eng, err := engine.New(tree1, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Build a population from the tape: groups of depth+1 bytes are
		// (op, digits...) — inserts weighted over removals/pops.
		d := tree1.Depth()
		live := map[int]hst.Code{}
		nextID := 0
		readCode := func(pos int, tr *hst.Tree) hst.Code {
			buf := make([]byte, tr.Depth())
			for i := range buf {
				if pos+i < len(tape) {
					buf[i] = tape[pos+i] % byte(tr.Degree())
				}
			}
			return hst.Code(buf)
		}
		for pos := 0; pos+d < len(tape); pos += d + 1 {
			code := readCode(pos+1, tree1)
			switch tape[pos] % 4 {
			case 0, 1: // insert
				if err := eng.Insert(code, nextID); err != nil {
					t.Fatal(err)
				}
				live[nextID] = code
				nextID++
			case 2: // pop nearest
				if id, _, ok := eng.Assign(code); ok {
					delete(live, id)
				}
			case 3: // remove the smallest live id
				min, found := -1, false
				for id := range live {
					if !found || id < min {
						min, found = id, true
					}
				}
				if found {
					if !eng.Remove(live[min], min) {
						t.Fatalf("remove of live worker %d failed", min)
					}
					delete(live, min)
				}
			}
		}

		// Serialize epoch 1, restore, and require identical answers.
		snap1 := Snapshot(eng)
		if snap1.Epoch != engine.FirstEpoch || len(snap1.Workers) != len(live) {
			t.Fatalf("snapshot = epoch %d with %d workers, want %d/%d",
				snap1.Epoch, len(snap1.Workers), engine.FirstEpoch, len(live))
		}
		blob1, err := json.Marshal(snap1)
		if err != nil {
			t.Fatal(err)
		}
		// The streaming encoder/decoder must agree with the materialized
		// codec byte for byte on every fuzzed population.
		assertStreamIdentity(t, eng, snap1, blob1)
		parsed1, err := ReadState(bytes.NewReader(blob1))
		if err != nil {
			t.Fatal(err)
		}
		restored1, err := parsed1.Engine(5) // shard layout must not matter
		if err != nil {
			t.Fatal(err)
		}

		// Rotate the original: every live worker re-reports under tree2 at
		// a tape-derived code with a fresh id.
		ctrl, err := NewController(Config{Tree: tree1, Seed: 7, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		ctrl.stageForTest(tree2)
		order := make([]int, 0, len(live))
		for id := range live {
			order = append(order, id)
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && order[j] < order[j-1]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		names := make([]string, len(order))
		for i, id := range order {
			names[i] = workerNameFor(id)
		}
		k := 0
		plan, err := ctrl.PlanRotation(nil, names, func(_ string, tr *hst.Tree) (hst.Code, error) {
			pos := 0
			if len(tape) > 0 {
				pos = k % len(tape)
			}
			code := readCode(pos, tr)
			k += tr.Depth()
			return code, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		inserts := make([]engine.EpochInsert, len(plan.Outcomes))
		for i := range plan.Outcomes {
			inserts[i] = engine.EpochInsert{Code: plan.Outcomes[i].Code, ID: nextID}
			nextID++
		}
		if err := eng.SwapEpoch(plan.Epoch, plan.Tree, 0, inserts); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Commit(plan); err != nil {
			t.Fatal(err)
		}

		// Serialize the rotated epoch → restore → the snapshot must be a
		// fixed point and the restored engine must answer identically.
		snap2 := Snapshot(eng)
		if snap2.Epoch != engine.FirstEpoch+1 {
			t.Fatalf("rotated snapshot epoch %d", snap2.Epoch)
		}
		blob2, err := json.Marshal(snap2)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamIdentity(t, eng, snap2, blob2)
		parsed2, err := ReadState(bytes.NewReader(blob2))
		if err != nil {
			t.Fatal(err)
		}
		restored2, err := parsed2.Engine(2)
		if err != nil {
			t.Fatal(err)
		}
		blob2b, err := snapshotJSON(restored2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob2, blob2b) {
			t.Fatalf("snapshot not a fixed point:\n%s\n---\n%s", blob2, blob2b)
		}

		// Answer equivalence, destructive (last): the pre-rotation restore
		// against the original tree's probes, then the rotated pair.
		preRotate, err := parsed1.Engine(2)
		if err != nil {
			t.Fatal(err)
		}
		drainCompare(t, restored1, preRotate, tree1, 11)
		drainCompare(t, eng, restored2, tree2, 13)
	})
}

// stageForTest stages an explicit tree as the next epoch, bypassing
// Prepare's construction — fuzzing needs a fixed target tree.
func (c *Controller) stageForTest(tree *hst.Tree) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.staged = &Staged{Epoch: c.epoch + 1, Tree: tree}
}

// snapshotJSON snapshots an engine and serialises it, for fixed-point
// checks.
func snapshotJSON(eng *engine.Engine) ([]byte, error) {
	return json.Marshal(Snapshot(eng))
}
