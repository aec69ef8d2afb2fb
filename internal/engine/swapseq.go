package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"github.com/pombm/pombm/internal/hst"
)

// SwapEpochSeq is SwapEpoch fed by a re-iterable insert sequence instead of
// a materialized slice, for populations too large to hold twice. It is
// invoked twice here, one pass after the other, so seq must be replayable:
// the same inserts every time (the platform's rotation path derives them
// deterministically from the rotation plan; TestSwapEpochSeqPeak replays
// them from worker ids and code generations). A seq handed to a
// platform.Core must additionally be safe to invoke from several goroutines
// at once — the cluster core runs one filtered iteration per node
// concurrently; platform.Rotate's populate qualifies because it only reads
// tables frozen under the server's mu.
//
// Of the two swap entries this is the one that freezes and rebuilds:
// SwapEpoch builds the full next-epoch population beside the live one,
// doubling peak memory exactly when a deployment is largest. SwapEpochSeq
// instead validates every insert in a first pass while the old epoch keeps
// serving, then freezes serving under the engine's lock, releases the old
// epoch's trie arenas, and builds the new population in their place —
// peak extra memory is the build in progress, not a second copy of the
// population (TestSwapEpochSeqPeak holds it under 1× the arenas on every
// push). The trade is a serving pause for the length of the build; callers
// that need the old epoch serving throughout (the cluster's two-phase
// prepare) use PrepareSwapSeq + CommitSwap. The shard count is ignored, as
// New's is.
//
// Failures every materialized swap can report — stale epoch, nil tree,
// malformed codes, out-of-range ids or capacities — are caught in the
// validation pass and returned with the old epoch untouched, and so is a
// population the index could not hold (hst.ErrIndexFull): the pass counts
// the inserts and asks the index whether that many items fit whatever their
// codes. A second-pass insert failure is therefore a bug with the old
// population torn down: it panics rather than serve half an epoch.
func (e *Engine) SwapEpochSeq(epoch int64, tree *hst.Tree, _ int, seq func(yield func(EpochInsert) bool)) error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	if tree == nil {
		return errors.New("engine: nil tree")
	}
	old := e.state.Load()
	if epoch <= old.epoch {
		return fmt.Errorf("engine: swap to epoch %d, already serving %d", epoch, old.epoch)
	}
	var verr error
	n := 0
	seq(func(in EpochInsert) bool {
		if verr = checkEpochInsert(tree, in, e.effCap(in.Cap)); verr == nil {
			n++
		}
		return verr == nil
	})
	if verr != nil {
		return verr
	}
	if err := hst.NewLeafIndexDegree(tree.Depth(), tree.Degree()).Fits(n); err != nil {
		return fmt.Errorf("engine: swap to epoch %d: %w", epoch, err)
	}
	// Freeze the old epoch and return its arenas to the allocator before
	// the new population grows. Every reader of the index loads the state
	// under the lock, so none sees the old state again once the new one is
	// stored below.
	e.mu.Lock()
	defer e.mu.Unlock()
	// The old arena's entry counts size the new slabs (items need none: they
	// go on pages, never copied). Across a rotation the population is the
	// same workers re-obfuscated, so the sizes are stationary and the old
	// counts (plus slack for drift) let the build fill each slab in one
	// allocation instead of climbing the append doubling ladder, whose dead
	// half-size slabs would themselves peak at a population's worth of
	// garbage.
	nodes, buckets, chunks := old.index.ArenaLens()
	old.index = nil
	// Collect the released arenas before the build starts. Without this the
	// pacer is free to let the old population sit as garbage while the new
	// one allocates beside it — exactly the doubled peak this path exists
	// to avoid. The mark phase scans live objects only, which no longer
	// includes the old population, so the collection is cheap relative to
	// the build it precedes.
	runtime.GC()
	st := newEpochState(epoch, tree)
	slack := func(n int) int { return n + n/8 }
	st.index.Reserve(slack(nodes), slack(buckets), slack(chunks))
	seq(func(in EpochInsert) bool {
		if err := st.index.InsertCap(in.Code, in.ID, e.effCap(in.Cap)); err != nil {
			panic(fmt.Sprintf("engine: swap epoch %d insert %d failed after validation: %v", epoch, in.ID, err))
		}
		return true
	})
	e.state.Store(st)
	return nil
}

// checkEpochInsert pre-validates one next-epoch insert against everything
// the trie's InsertCap would refuse, so a streaming swap can fail before
// tearing anything down.
func checkEpochInsert(tree *hst.Tree, in EpochInsert, capacity int) error {
	if err := tree.CheckCode(in.Code); err != nil {
		return fmt.Errorf("engine: swap insert %d: %w", in.ID, err)
	}
	if in.ID < 0 || in.ID > math.MaxInt32 {
		return fmt.Errorf("engine: swap insert %d: id outside int32 range", in.ID)
	}
	if capacity > math.MaxInt32 {
		return fmt.Errorf("engine: swap insert %d: capacity %d outside int32 range", in.ID, capacity)
	}
	return nil
}

// ArenaBytes returns the bytes the serving epoch's trie arenas currently
// reserve — the engine's structural contribution to a bytes-per-worker
// accounting (slot tables, scratch, and allocator overhead excluded).
func (e *Engine) ArenaBytes() int64 {
	st := e.locked()
	defer e.mu.Unlock()
	return st.index.ArenaBytes()
}
