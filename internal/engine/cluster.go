package engine

import (
	"errors"
	"fmt"

	"github.com/pombm/pombm/internal/hst"
)

// This file is the engine's export surface for a cluster node
// (internal/cluster): the single-process decision rules, cut where a node
// boundary can fall without changing a single answer.
//
// The coordinator's cut keeps every worker that shares a task's first code
// digit on the task's node. For the greedy rule a node therefore resolves
// every level below the root (AssignSubtreeEpoch pops within depth − 1),
// and the root tier, where every remaining worker is equidistant and only
// the global minimum id matters, is a min-of-mins across nodes
// (MinAvailableID, then PopMinID at the elected node). For the
// batch-optimal window each node mines its tasks' k nearest and one
// smallest-k pad list, resolved to leaf codes (MineWindowCandidates); the
// coordinator merges them into each task's k nearest cluster-wide and hands
// those to the policy's solve kernel (SolveMined, policy.go), and commits
// are code-addressed unit consumptions (ConsumeUnit) because an arena ref
// means nothing across a process boundary.

// BatchWindowSize is the batch-optimal window length: a batch up to this
// size solves as a single matching, a longer one as consecutive windows of
// this size, each its own restricted matching under its own lock hold.
// Larger windows buy a wider matching scope at quadratically growing solve
// cost. Exported so a cluster coordinator chunks exactly as the
// single-process policy does.
const BatchWindowSize = 256

// AssignSubtreeEpoch runs the greedy rule's node-local tiers for a task
// code: it pops the nearest worker whose LCA with the task sits below the
// root. ok is false when no worker on this engine shares the task's first
// digit; the coordinator then resolves the root tier via
// MinAvailableID/PopMinID across all nodes. A non-zero epoch pins the pop:
// ErrStaleEpoch reports the engine has rotated past it.
func (e *Engine) AssignSubtreeEpoch(code hst.Code, epoch int64) (id, lcaLevel int, ok bool, err error) {
	st, err := e.lock("assign", code, epoch)
	if errors.Is(err, ErrStaleEpoch) {
		return None, 0, false, err
	}
	if err != nil {
		return None, 0, false, nil
	}
	if id, lcaLevel, ok = st.index.PopNearestWithin(code, st.tree.Depth()-1); ok {
		st.assigns++
	} else {
		id, lcaLevel = None, 0
	}
	e.mu.Unlock()
	return id, lcaLevel, ok, nil
}

// MinAvailableID returns the smallest available worker id on this engine,
// for the coordinator's root-tier min-of-mins.
func (e *Engine) MinAvailableID(epoch int64) (id int, ok bool, err error) {
	st, err := e.lockEpoch("min-id", epoch)
	if err != nil {
		return None, false, err
	}
	defer e.mu.Unlock()
	if id, ok = st.index.MinID(); !ok {
		id = None
	}
	return id, ok, nil
}

// PopMinID pops the smallest available worker id on this engine — the
// root-tier commit, after MinAvailableID elected this node. The match
// level is the tree depth: every worker reachable only through the root
// tier is at the maximal LCA level.
func (e *Engine) PopMinID(epoch int64) (id, lcaLevel int, ok bool, err error) {
	st, err := e.lockEpoch("pop-min", epoch)
	if err != nil {
		return None, 0, false, err
	}
	defer e.mu.Unlock()
	if id, ok = st.index.PopMin(); ok {
		st.assigns++
	} else {
		id = None
	}
	return id, st.tree.Depth(), ok, nil
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
// node-local pool size, each requested task's k nearest candidates, and
// the k smallest-id workers as a pad list. Everything is gathered under one
// hold of the lock, so the snapshot is internally consistent — and, with
// the coordinator serialising windows against every other mutation,
// consistent until the window's commits.
type WindowMine struct {
	// Epoch stamps the snapshot.
	Epoch int64
	// Pool is the number of available workers on this engine.
	Pool int
	// Own[i] holds the k nearest candidates on this engine for the i-th
	// requested code, nil for a code the tree does not have.
	Own [][]hst.Candidate
	// Pad holds the k smallest-id workers on this engine, stamped at the
	// root level: what this engine offers a task homed on another node,
	// where every worker here is at the maximal LCA level.
	Pad []hst.Candidate
}

// MineWindowCandidates mines this engine's share of a batch window for the
// coordinator's scatter-gather solve, with the enumerators the in-process
// window uses (NearestKRef, SmallestKRef), each ref resolved to its leaf
// code before the lock drops. codes are the window tasks routed to this
// node; k is the policy's per-task pool.
func (e *Engine) MineWindowCandidates(codes []hst.Code, k int, epoch int64) (*WindowMine, error) {
	st, err := e.lockEpoch("mine", epoch)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	var refs []hst.CandidateRef // mining scratch, reused list to list
	resolved := func() []hst.Candidate {
		if len(refs) == 0 {
			return nil
		}
		out := make([]hst.Candidate, len(refs))
		for i, r := range refs {
			out[i], _ = st.index.ResolveRef(r) // mined under the lock still held
		}
		return out
	}
	wm := &WindowMine{Epoch: st.epoch, Pool: st.index.Len(), Own: make([][]hst.Candidate, len(codes))}
	for i, code := range codes {
		if st.tree.CheckCode(code) == nil {
			refs = st.index.NearestKRef(code, k, refs[:0])
			wm.Own[i] = resolved()
		}
	}
	refs = st.index.SmallestKRef(k, st.tree.Depth(), refs[:0])
	wm.Pad = resolved()
	return wm, nil
}
