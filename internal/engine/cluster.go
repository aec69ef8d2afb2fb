package engine

import (
	"errors"
	"fmt"
	"iter"

	"github.com/pombm/pombm/internal/hst"
)

// This file is the engine's export surface for a cluster node
// (internal/cluster): each call answers from this engine's workers alone,
// with the levels one engine would give them, so a coordinator rebuilds the
// single-process decision from its nodes' answers wherever the cut falls.
// For the greedy rule a node pops its nearest worker within a level
// (PopWithinEpoch) and reports its nearest without taking it
// (NearestEpoch): the coordinator elects the smallest (level, id) across
// nodes, as one index's pop does. For the batch-optimal window each node
// mines every task's k nearest, resolved to leaf codes
// (MineWindowCandidates); the coordinator keeps each task's k smallest
// (level, id) cluster-wide and hands those to the policy's solve kernel
// (SolveMined, policy.go), and commits are code-addressed unit consumptions
// (ConsumeUnit) because an arena ref means nothing across a process
// boundary.

// BatchWindowSize is the batch-optimal window length: a batch up to this
// size solves as a single matching, a longer one as consecutive windows of
// this size, each its own restricted matching under its own lock hold.
// Larger windows buy a wider matching scope at quadratically growing solve
// cost.
const BatchWindowSize = 256

// BatchWindows yields the windows a window-solving policy serves a batch of
// n tasks as: consecutive [lo, hi) ranges of at most BatchWindowSize tasks,
// and one empty window for an empty batch. The in-process policy and a
// cluster coordinator both chunk through it, so their Windows counts agree.
func BatchWindows(n int) iter.Seq2[int, int] {
	return func(yield func(lo, hi int) bool) {
		for lo := 0; lo == 0 || lo < n; lo += BatchWindowSize {
			if !yield(lo, min(lo+BatchWindowSize, n)) {
				return
			}
		}
	}
}

// PopWithinEpoch pops the nearest worker to a task code — smallest LCA
// level, then smallest id — when its LCA with the task sits at level ≤
// level; ok is false when no worker on this engine is that near, or the
// tree does not have the code. A non-zero epoch pins the pop: ErrStaleEpoch
// reports the engine has rotated past it.
func (e *Engine) PopWithinEpoch(code hst.Code, level int, epoch int64) (id, lcaLevel int, ok bool, err error) {
	st, err := e.lock("pop", code, epoch)
	if errors.Is(err, ErrStaleEpoch) {
		return None, 0, false, err
	}
	if err != nil {
		return None, 0, false, nil
	}
	defer e.mu.Unlock()
	if id, lcaLevel, ok = st.index.PopNearestWithin(code, level); !ok {
		return None, 0, false, nil
	}
	st.assigns++
	return id, lcaLevel, true, nil
}

// NearestEpoch answers the worker PopWithinEpoch at the tree's depth would
// pop, and its LCA level, without taking it. The epoch pin and the refusals
// are PopWithinEpoch's.
func (e *Engine) NearestEpoch(code hst.Code, epoch int64) (id, lcaLevel int, ok bool, err error) {
	st, err := e.lock("peek", code, epoch)
	if errors.Is(err, ErrStaleEpoch) {
		return None, 0, false, err
	}
	if err != nil {
		return None, 0, false, nil
	}
	defer e.mu.Unlock()
	if id, lcaLevel, ok = st.index.Nearest(code); !ok {
		return None, 0, false, nil
	}
	return id, lcaLevel, true, nil
}

// ConsumeUnit takes one capacity unit from the worker id at the given leaf
// code: the code-addressed commit for a candidate mined on this engine by
// MineWindowCandidates. It fails when the worker is no longer at that leaf
// with a unit to give — the coordinator undoes the window's earlier
// consumptions (AddCapacityEpoch) and re-mines.
func (e *Engine) ConsumeUnit(code hst.Code, id int, epoch int64) error {
	st, err := e.lock("consume", code, epoch)
	if err != nil {
		return err
	}
	ok := st.index.Consume(code, id)
	if ok {
		st.assigns++
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("engine: consume: worker %d not available at reported leaf", id)
	}
	return nil
}

// WindowMine is one engine's contribution to a cluster batch window: the
// node-local pool size and each task's k nearest candidates here. Everything
// is gathered under one hold of the lock, so the snapshot is internally
// consistent — and, with the coordinator serialising windows against every
// other mutation, consistent until the window's commits.
type WindowMine struct {
	// Epoch stamps the snapshot.
	Epoch int64
	// Pool is the number of available workers on this engine.
	Pool int
	// Own[i] holds the k nearest candidates on this engine for the i-th
	// requested code, at their true levels; nil for a code the tree does
	// not have.
	Own [][]hst.Candidate
}

// MineWindowCandidates mines this engine's share of a batch window for the
// coordinator's scatter-gather solve, with the enumerator the in-process
// window uses (NearestKRef), each ref resolved to its leaf code before the
// lock drops. codes are the window's tasks; k is the policy's per-task pool.
func (e *Engine) MineWindowCandidates(codes []hst.Code, k int, epoch int64) (*WindowMine, error) {
	st, err := e.lockEpoch("mine", epoch)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	var refs []hst.CandidateRef // mining scratch, reused list to list
	wm := &WindowMine{Epoch: st.epoch, Pool: st.index.Len(), Own: make([][]hst.Candidate, len(codes))}
	for i, code := range codes {
		if st.tree.CheckCode(code) != nil {
			continue
		}
		if refs = st.index.NearestKRef(code, k, refs[:0]); len(refs) > 0 {
			wm.Own[i] = make([]hst.Candidate, len(refs))
			for j, r := range refs {
				wm.Own[i][j], _ = st.index.ResolveRef(r) // mined under the lock still held
			}
		}
	}
	return wm, nil
}
