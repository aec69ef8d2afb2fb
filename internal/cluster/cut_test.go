package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// The coordinator's decisions hold wherever the cut falls: a node answers
// from its own workers at their true levels, so the merge of a window's
// mines and the greedy election rebuild one engine's answer from any split
// of the population. These tests split it by a random rule, never route's.

// drawCode is a leaf of tree with its digits from a random position on drawn
// afresh: a code the tree has, near the real leaves or far from them.
func drawCode(src *rng.Source, tree *hst.Tree) hst.Code {
	b := []byte(tree.CodeOf(src.Intn(tree.NumPoints())))
	for j := src.Intn(len(b) + 1); j < len(b); j++ {
		b[j] = byte(src.Intn(tree.Degree()))
	}
	return hst.Code(b)
}

// capacityEngine is an engine of tree under capacity-greedy, which keeps a
// worker's declared units.
func capacityEngine(t *testing.T, tree *hst.Tree) *engine.Engine {
	t.Helper()
	pol, err := engine.PolicyByName("capacity-greedy")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestMineMergeIgnoresTheCut: for a population split over 1–4 engines by a
// random rule, nearestK over the engines' mines of a window is, task by
// task, the list one engine mines over the whole population.
func TestMineMergeIgnoresTheCut(t *testing.T) {
	tree := buildTree(t, 9)
	for trial := range 12 {
		src := rng.New(uint64(500 + trial))
		n, k := 1+trial%4, 1+src.Intn(8)
		t.Run(fmt.Sprintf("trial=%d/engines=%d/k=%d", trial, n, k), func(t *testing.T) {
			union := capacityEngine(t, tree)
			parts := make([]*engine.Engine, n)
			for i := range parts {
				parts[i] = capacityEngine(t, tree)
			}
			for id := range 40 + src.Intn(200) {
				code, units := drawCode(src, tree), 1+src.Intn(3)
				if err := union.InsertCapEpoch(code, id, units, 0); err != nil {
					t.Fatal(err)
				}
				if err := parts[src.Intn(n)].InsertCapEpoch(code, id, units, 0); err != nil {
					t.Fatal(err)
				}
			}
			tasks := make([]hst.Code, 1+src.Intn(engine.BatchWindowSize))
			for i := range tasks {
				tasks[i] = drawCode(src, tree)
			}
			want, err := union.MineWindowCandidates(tasks, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			mines := make([]OpResult, n)
			for i, eng := range parts {
				wm, err := eng.MineWindowCandidates(tasks, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				mines[i].Own = wm.Own
			}
			for ti := range tasks {
				if got := nearestK(mines, ti, k); !reflect.DeepEqual(got, want.Own[ti]) {
					t.Fatalf("task %d (%v): merged %+v, one engine mines %+v", ti, []byte(tasks[ti]), got, want.Own[ti])
				}
			}
		})
	}
}

// TestElectionIgnoresTheCut: LocalNodes populated by a random rule, and the
// election (elect: peek every node, elect the smallest (level, id), pop it
// there) answers task by task what one engine's Assign answers over the
// whole population, until both pools are dry.
func TestElectionIgnoresTheCut(t *testing.T) {
	tree := buildTree(t, 9)
	pol, err := engine.PolicyByName("capacity-greedy")
	if err != nil {
		t.Fatal(err)
	}
	for trial := range 8 {
		src := rng.New(uint64(700 + trial))
		n := 1 + trial%4
		t.Run(fmt.Sprintf("trial=%d/nodes=%d", trial, n), func(t *testing.T) {
			core, err := newFanCore(localNodes(n), tree, pol, 1)
			if err != nil {
				t.Fatal(err)
			}
			union := capacityEngine(t, tree)
			workers := 30 + src.Intn(120)
			for id := range workers {
				code, units := drawCode(src, tree), 1+src.Intn(3)
				if err := union.InsertCapEpoch(code, id, units, 0); err != nil {
					t.Fatal(err)
				}
				op := OpRequest{Kind: OpInsert, Code: []byte(code), ID: id, Capacity: units}
				if _, err := core.nodes[src.Intn(n)].Do(op); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; ; step++ {
				code := drawCode(src, tree)
				wantID, wantLvl, wantOK := union.Assign(code)
				core.opMu.Lock()
				id, lvl, ok, err := core.elect(core.state.Load(), code)
				core.opMu.Unlock()
				if err != nil || id != wantID || lvl != wantLvl || ok != wantOK {
					t.Fatalf("step %d, task %v: elected (%d, %d, %v, %v), one engine assigns (%d, %d, %v)",
						step, []byte(code), id, lvl, ok, err, wantID, wantLvl, wantOK)
				}
				if !ok {
					if core.Len() != 0 {
						t.Fatalf("step %d: nothing elected with %d workers pooled", step, core.Len())
					}
					return
				}
			}
		})
	}
}

// TestFastPathStopsAboveTheRoot pins the fast path's level: a task's node
// may hold workers that share nothing with it — under two nodes, first
// digits 0 and 2 both route to node 0 — and those sit at the root level,
// where another node's smaller id wins. Worker 5 is under digit 2 and
// worker 1 under digit 1; a task under digit 0 must get worker 1.
func TestFastPathStopsAboveTheRoot(t *testing.T) {
	tree := buildTree(t, 7)
	under := func(d byte) hst.Code { return hst.Code(append([]byte{d}, tree.CodeOf(0)[1:]...)) }
	if tree.Degree() < 3 {
		t.Fatalf("degree %d: no third first digit", tree.Degree())
	}
	pol, err := engine.PolicyByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	core, err := newFanCore(localNodes(2), tree, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range map[int]byte{5: 2, 1: 1} {
		if err := core.InsertCapEpoch(under(d), id, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if id, lvl, ok, err := core.AssignErr(under(0)); err != nil || !ok || id != 1 || lvl != tree.Depth() {
		t.Fatalf("the task under digit 0 got (%d, %d, %v, %v), want worker 1 at the root level", id, lvl, ok, err)
	}
}
