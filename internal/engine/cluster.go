package engine

import (
	"fmt"

	"github.com/pombm/pombm/internal/hst"
)

// This file is the engine's export surface for a cluster coordinator
// (internal/cluster): the single-process decision rules, cut where a node
// boundary can fall without changing a single answer.
//
// The cut leans on the same property the in-process sharding does: every
// worker sharing a task's top branch lives in one shard, and a shard (plus,
// under sub-sharding, its whole sibling group) can be pinned to one node.
// For the greedy rule a node therefore resolves everything below the root
// tier locally (AssignSubtreeEpoch — the same popSubtree the in-process
// slow path runs), and the root tier, where every remaining worker is
// equidistant and only the global minimum id matters, is the same
// min-of-shards scan taken one level up: a min-of-mins across nodes
// (MinAvailableID, then PopMinID at the elected node). For the
// batch-optimal window the coordinator keeps only what is distributed:
// each node mines its tasks' own-branch candidates and its shards'
// smallest-k pad lists by arena ref and resolves them to leaf codes
// (MineWindowCandidates), the coordinator hands the gathered lists to the
// policy's one pad-and-solve kernel (SolveMined, policy.go),
// and commits are code-addressed unit consumptions (ConsumeUnit) because
// an arena ref means nothing across a process boundary.

// BatchWindowSize is the batch-optimal window length: a batch up to this
// size solves as a single matching, a longer one as consecutive windows of
// this size, each its own restricted matching under its own lock session.
// Larger windows buy a wider matching scope at quadratically growing solve
// cost. Exported so a cluster coordinator chunks exactly as the
// single-process policy does.
const BatchWindowSize = 256

// GroupOf returns the routable shard group a code belongs to: the unit
// that must stay whole on one node for AssignSubtreeEpoch to be exact.
func (l Layout) GroupOf(code hst.Code) int {
	return l.GroupOfShard(l.ShardIdx(code))
}

// GroupOfShard returns the routable group of a shard index. Under
// sub-sharding a group is a top branch (the own shard plus its sibling
// sub-shards); under plain sharding each shard is its own group.
func (l Layout) GroupOfShard(s int) int {
	if l.Sub > 1 {
		return s % l.Degree
	}
	return s
}

// lockedEpoch runs fn under every shard lock of the serving state — the
// hold that makes a node's answer to a cross-node question internally
// consistent. A non-zero epoch pins the call: ErrStaleEpoch, naming op,
// reports the engine has rotated past it.
func (e *Engine) lockedEpoch(op string, epoch int64, fn func(st *epochState)) error {
	for {
		st := e.state.Load()
		if epoch != 0 && st.epoch != epoch {
			return fmt.Errorf("%w (%s for epoch %d, serving %d)", ErrStaleEpoch, op, epoch, st.epoch)
		}
		st.lockAll()
		if e.state.Load() != st {
			st.unlockAll()
			continue
		}
		fn(st)
		st.unlockAll()
		return nil
	}
}

// AssignSubtreeEpoch runs the greedy rule's node-local tiers for a task
// code: the own-shard fast path, the locked own-shard re-check, and (under
// sub-sharding) the sibling sub-shard tier — everything except the root
// tier, which needs the global population and belongs to the coordinator.
// ok is false when no worker shares the task's top branch on this engine;
// the coordinator then resolves the root tier via MinAvailableID/PopMinID
// across all nodes. A non-zero epoch pins the pop: ErrStaleEpoch reports
// the engine has rotated past it.
func (e *Engine) AssignSubtreeEpoch(code hst.Code, epoch int64) (id, lcaLevel int, ok bool, err error) {
	for {
		st := e.state.Load()
		if epoch != 0 && st.epoch != epoch {
			return None, 0, false, fmt.Errorf("%w (assign for epoch %d, serving %d)", ErrStaleEpoch, epoch, st.epoch)
		}
		if st.tree.CheckCode(code) != nil {
			return None, 0, false, nil
		}
		if st.layout.Depth == 0 {
			// A depth-0 tree has no branches to own: everything is the root
			// tier.
			return None, 0, false, nil
		}
		s := st.shardOf(code)
		s.mu.Lock()
		if e.state.Load() != st {
			s.mu.Unlock()
			continue
		}
		id, lvl, popped := s.index.PopNearestWithin(code, st.ownLimit())
		if popped {
			s.assigns++
		} else {
			s.fallbacks++
		}
		s.mu.Unlock()
		if popped {
			return id, lvl, true, nil
		}
		id, lvl, popped, swapped := e.assignSubtreeAcross(st, code)
		if swapped {
			continue
		}
		return id, lvl, popped, nil
	}
}

// assignSubtreeAcross is assignAcross without the root tier.
func (e *Engine) assignSubtreeAcross(st *epochState, code hst.Code) (id, lcaLevel int, ok, swapped bool) {
	st.lockAll()
	defer st.unlockAll()
	if e.state.Load() != st {
		return None, 0, false, true
	}
	id, lcaLevel, ok = st.popSubtree(code)
	return id, lcaLevel, ok, false
}

// MinAvailableID returns the smallest available worker id on this engine,
// for the coordinator's root-tier min-of-mins.
func (e *Engine) MinAvailableID(epoch int64) (id int, ok bool, err error) {
	id = None
	err = e.lockedEpoch("min-id", epoch, func(st *epochState) {
		var si int
		si, id = st.minShardOf(0, 1, len(st.shards))
		ok = si >= 0
	})
	return id, ok, err
}

// PopMinID pops the smallest available worker id on this engine — the
// root-tier commit, after MinAvailableID elected this node. The match
// level is the tree depth: every worker reachable only through the root
// tier is at the maximal LCA level.
func (e *Engine) PopMinID(epoch int64) (id, lcaLevel int, ok bool, err error) {
	id = None
	err = e.lockedEpoch("pop-min", epoch, func(st *epochState) {
		id, ok = st.popMinOf(0, 1, len(st.shards))
		lcaLevel = st.layout.Depth
	})
	return id, lcaLevel, ok, err
}

// ConsumeUnit takes one capacity unit from the worker id at the given leaf
// code: the code-addressed commit for a candidate mined on this engine by
// MineWindowCandidates. It fails when the worker is no longer at that leaf
// with a unit to give — the coordinator undoes the window's earlier
// consumptions (AddCapacityEpoch) and re-mines.
func (e *Engine) ConsumeUnit(code hst.Code, id int, epoch int64) error {
	for {
		st := e.state.Load()
		if epoch != 0 && st.epoch != epoch {
			return fmt.Errorf("%w (consume for epoch %d, serving %d)", ErrStaleEpoch, epoch, st.epoch)
		}
		if err := st.tree.CheckCode(code); err != nil {
			return err
		}
		s := st.shardOf(code)
		s.mu.Lock()
		if e.state.Load() != st {
			s.mu.Unlock()
			continue
		}
		ok := s.index.Consume(code, id)
		if ok {
			s.assigns++
		}
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("engine: consume: worker %d not available at reported leaf", id)
		}
		return nil
	}
}

// WindowMine is one engine's contribution to a cluster batch window: the
// node-local pool size, each requested task's own-branch top-k candidates,
// and per-shard smallest-k pad lists. Everything is gathered under every
// shard lock in one hold, so the snapshot is internally consistent — and,
// with the coordinator serialising windows against every other mutation,
// consistent until the window's commits.
type WindowMine struct {
	// Epoch stamps the snapshot.
	Epoch int64
	// Pool is the number of available workers on this engine.
	Pool int
	// Own[i] holds the own-shard nearest-k candidates for the i-th requested
	// code, exactly the region the single-process mineWindow would mine.
	Own [][]hst.Candidate
	// Pads[s] holds shard s's smallest-k list stamped at level depth (the
	// coordinator restamps sibling-tier pads), nil for empty shards. Shard
	// indices are global: every node shares the layout, so its local shard
	// s holds exactly the population of single-process shard s routed here.
	Pads [][]hst.Candidate
}

// MineWindowCandidates mines this engine's share of a batch window for the
// coordinator's scatter-gather solve, with the enumerators the in-process
// window uses (NearestKRef, SmallestKRef), each ref resolved to its leaf
// code before the locks drop. codes are the window tasks routed to this
// node (their own shards live here); k is the policy's per-task pool.
func (e *Engine) MineWindowCandidates(codes []hst.Code, k int, epoch int64) (*WindowMine, error) {
	var wm *WindowMine
	err := e.lockedEpoch("mine", epoch, func(st *epochState) {
		var refs []hst.CandidateRef // mining scratch, reused list to list
		resolved := func(idx *hst.LeafIndex) []hst.Candidate {
			if len(refs) == 0 {
				return nil
			}
			out := make([]hst.Candidate, len(refs))
			for i, r := range refs {
				out[i], _ = idx.ResolveRef(r) // mined under the locks still held
			}
			return out
		}
		wm = &WindowMine{
			Epoch: st.epoch,
			Own:   make([][]hst.Candidate, len(codes)),
			Pads:  make([][]hst.Candidate, len(st.shards)),
		}
		for i, code := range codes {
			if st.tree.CheckCode(code) == nil {
				idx := st.shardOf(code).index
				refs = idx.NearestKRef(code, k, refs[:0])
				wm.Own[i] = resolved(idx)
			}
		}
		for s := range st.shards {
			idx := st.shards[s].index
			wm.Pool += idx.Len()
			refs = idx.SmallestKRef(k, st.layout.Depth, refs[:0])
			wm.Pads[s] = resolved(idx)
		}
	})
	return wm, err
}
