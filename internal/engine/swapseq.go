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
// serving, then freezes serving under every old shard lock, releases the
// old epoch's trie arenas, and builds the new population in their place —
// peak extra memory is one shard's build-in-progress, not a second copy of
// the population (TestSwapEpochSeqPeak holds it under 1× the arenas on
// every push). The trade is a serving pause for the length of the build;
// callers that need the old epoch serving throughout (the cluster's
// two-phase prepare) use PrepareSwapSeq + CommitSwap.
//
// Failures every materialized swap can report — stale epoch, nil tree,
// malformed codes, out-of-range ids or capacities — are caught in the
// validation pass and returned with the old epoch untouched, and so is a
// population no shard's index could hold (hst.ErrIndexFull): the pass counts
// the run shard by shard and asks the index whether that many items fit
// whatever their codes. A second-pass insert failure is therefore a bug with
// the old population torn down: it panics rather than serve half an epoch.
//
// Readers racing the swap (Len, Occupancy, Walk — monitoring surfaces
// documented as needing quiesced writers) that loaded the old state before
// the freeze may observe it empty afterwards; mutators re-check the state
// pointer under their shard lock and retry on the new epoch, exactly as
// with SwapEpoch.
func (e *Engine) SwapEpochSeq(epoch int64, tree *hst.Tree, shards int, seq func(yield func(EpochInsert) bool)) error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	if tree == nil {
		return errors.New("engine: nil tree")
	}
	old := e.state.Load()
	if epoch <= old.epoch {
		return fmt.Errorf("engine: swap to epoch %d, already serving %d", epoch, old.epoch)
	}
	if shards <= 0 {
		shards = len(old.shards)
	}
	var verr error
	layout := LayoutFor(tree, shards)
	run := make([]int, layout.Shards)
	seq(func(in EpochInsert) bool {
		if verr = checkEpochInsert(tree, in, e.effCap(in.Cap)); verr == nil {
			run[layout.ShardIdx(in.Code)]++
		}
		return verr == nil
	})
	if verr != nil {
		return verr
	}
	probe := hst.NewLeafIndexDegree(layout.Depth, layout.Degree)
	for i, n := range run {
		if err := probe.Fits(n); err != nil {
			return fmt.Errorf("engine: swap to epoch %d, shard %d: %w", epoch, i, err)
		}
	}
	// Freeze the old epoch and return its arenas to the allocator before
	// the new population grows: each old shard keeps a well-formed (empty)
	// index so a stale monitoring read stays safe, while the slabs behind
	// it become garbage.
	old.lockAll()
	// The old arenas' entry counts size the new slabs (items need none: they
	// go on pages, never copied). Across a rotation the population is the
	// same workers re-obfuscated, so per-shard sizes are stationary and the
	// old shard's counts (plus slack for drift) let the build fill each slab
	// in one allocation instead of climbing the append doubling ladder,
	// whose dead half-size slabs would themselves peak at a population's
	// worth of garbage. A changed shard count redistributes the population,
	// so only the per-shard average remains as a hint.
	type arenaHint struct{ nodes, buckets, chunks int }
	hints := make([]arenaHint, len(old.shards))
	var total arenaHint
	for i := range old.shards {
		n, b, c := old.shards[i].index.ArenaLens()
		hints[i] = arenaHint{n, b, c}
		total.nodes += n
		total.buckets += b
		total.chunks += c
		old.shards[i].index = hst.NewLeafIndexDegree(old.layout.Depth, old.layout.Degree)
	}
	// Collect the released arenas before the build starts. Without this the
	// pacer is free to let the old population sit as garbage while the new
	// one allocates beside it — exactly the doubled peak this path exists
	// to avoid. The mark phase scans live objects only, which no longer
	// includes the old population, so the collection is cheap relative to
	// the build it precedes.
	runtime.GC()
	st := newEpochState(epoch, tree, shards)
	slack := func(n int) int { return n + n/8 }
	for i := range st.shards {
		h := arenaHint{total.nodes / len(st.shards), total.buckets / len(st.shards), total.chunks / len(st.shards)}
		if len(st.shards) == len(old.shards) {
			h = hints[i]
		}
		st.shards[i].index.Reserve(slack(h.nodes), slack(h.buckets), slack(h.chunks))
	}
	seq(func(in EpochInsert) bool {
		if err := st.shardOf(in.Code).index.InsertCap(in.Code, in.ID, e.effCap(in.Cap)); err != nil {
			panic(fmt.Sprintf("engine: swap epoch %d insert %d failed after validation: %v", epoch, in.ID, err))
		}
		return true
	})
	e.state.Store(st)
	old.unlockAll()
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
// reserve across all shards — the engine's structural contribution to a
// bytes-per-worker accounting (slot tables, scratch, and allocator overhead
// excluded). Taken shard by shard under each shard lock; like every
// monitoring surface it is exact only with writers quiesced.
func (e *Engine) ArenaBytes() int64 {
	st := e.state.Load()
	var b int64
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		b += s.index.ArenaBytes()
		s.mu.Unlock()
	}
	return b
}
