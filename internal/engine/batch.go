package engine

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/pombm/pombm/internal/hst"
)

// This file is the greedy policies' routed batch path: instead of walking
// the batch task by task (locking shards as the walk crosses them), the
// batch is grouped by destination shard and every shard's group is served
// in task order under a single lock acquisition — one goroutine per
// non-empty shard when more than one core is available. The pops taken in
// that pass are speculative: a task whose own shard cannot resolve it
// needs the cross-shard decision, and that decision must see the pool *as
// it was at the task's position in the batch*, not as the speculative
// pass left it. The resolution pass therefore runs under all shard locks
// and, for each fallback in batch order, reconstructs the task-time pool
// view from the speculative pops still outstanding after it: the winning
// worker is the smallest id over every shard's current minimum and every
// later speculative pop, and if the winner is buried under later pops the
// winner's shard is rolled back past them, the winner popped, and the
// rolled-back tasks replayed in order (a replayed task may lose its
// worker to the fallback — exactly as it would have sequentially).
//
// The invariant this buys: with writers quiesced, AssignBatch through the
// routed path returns bit-identical results to assigning the codes one by
// one — independent of how many goroutines served the speculative pass —
// because per-shard serving is order-preserving, shards are disjoint, and
// the resolution replay reconstructs exact sequential pool states. Under
// concurrent writers the per-answer guarantee is the same as Assign's:
// each pop is tree-nearest among the workers available at that instant.
//
// An epoch swap observed by a shard group refuses the whole group; its
// tasks re-route against the new state in a fresh round, matching the
// sequential path's retry-on-swap semantics.

// batchRouteMin is the batch size below which AssignBatch keeps the
// sequential amortised path: grouping, a scratch checkout, and (on
// multi-core hosts) goroutine fan-out only pay for themselves once a
// batch carries enough tasks to spread over the shards.
const batchRouteMin = 16

// batchRouteThreshold is batchRouteMin behind a test seam (see
// export_test.go); serving code treats it as a constant.
var batchRouteThreshold = batchRouteMin

// Entry lifecycle in one routed round. Entries are the round's
// well-formed tasks, indexed in batch order, so comparing entry indexes
// compares batch positions.
const (
	batchPending  uint8 = iota // grouped, not yet served
	batchPopped                // holds a speculative pop (undoable)
	batchFailed                // own-shard probe missed; awaiting resolution
	batchResolved              // final answer written; never revisited
	batchReroute               // epoch swap won; redo on the new state
)

// batchScratch is the pooled workspace of one routed AssignBatch: the
// grouping arrays, the per-entry lifecycle state, and the undo log (the
// popped worker and the leaf code it was popped from, which is exactly
// what AddCap needs to put the unit back). Slices grow to the caller's
// batch envelope once and are reused.
type batchScratch struct {
	cur, nxt   []int32 // this round's positions / next round's re-routes
	entryPos   []int32 // batch position per entry
	taskShard  []int32 // destination shard per entry
	shardOff   []int32 // per-shard offsets into shardTasks (len S+1)
	shardTasks []int32 // entries grouped by shard, batch order within
	status     []uint8
	undoID     []int32 // speculative pop's worker, valid when batchPopped
	slab       []byte  // depth bytes per entry: the popped worker's leaf
	wg         sync.WaitGroup
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

// routedAssignWindow serves one greedy batch through the shard-routed
// path. Rounds retry only the positions an epoch swap refused.
func (e *Engine) routedAssignWindow(codes []hst.Code) (ids, lcaLevels []int) {
	ids = make([]int, len(codes))
	lvls := make([]int, len(codes))
	bs := batchScratchPool.Get().(*batchScratch)
	cur := growI32(bs.cur, len(codes))
	for i := range cur {
		cur[i] = int32(i)
	}
	nxt := bs.nxt[:0]
	for len(cur) > 0 {
		st := e.state.Load()
		if st.layout.Depth == 0 || len(st.shards) == 1 {
			// A swap shrank the engine under the batch (or the gate raced a
			// shrink): no routing structure to exploit; serve the remainder
			// through the one-task path, which handles further swaps itself.
			for _, p := range cur {
				id, lvl, _, ok := e.greedyAssignOne(codes[p])
				if !ok {
					id, lvl = None, 0
				}
				ids[p], lvls[p] = id, lvl
			}
			break
		}
		nxt = e.serveBatchRound(bs, st, codes, cur, ids, lvls, nxt)
		cur, nxt = nxt, cur[:0]
	}
	bs.cur, bs.nxt = cur[:0], nxt[:0]
	batchScratchPool.Put(bs)
	return ids, lvls
}

// serveBatchRound runs one speculative pass plus (if needed) one
// resolution pass against st, appending any swap-refused positions to nxt.
func (e *Engine) serveBatchRound(bs *batchScratch, st *epochState, codes []hst.Code, cur []int32, ids, lvls []int, nxt []int32) []int32 {
	depth, S := st.layout.Depth, len(st.shards)

	// Admit well-formed tasks as entries; malformed codes answer None
	// without touching state, exactly like the sequential path.
	bs.entryPos = bs.entryPos[:0]
	for _, p := range cur {
		ids[p], lvls[p] = None, 0
		if st.tree.CheckCode(codes[p]) == nil {
			bs.entryPos = append(bs.entryPos, p)
		}
	}
	ne := len(bs.entryPos)
	if ne == 0 {
		return nxt
	}
	bs.taskShard = growI32(bs.taskShard, ne)
	bs.shardOff = growI32(bs.shardOff, S+1)
	bs.shardTasks = growI32(bs.shardTasks, ne)
	bs.status = growBytes(bs.status, ne)
	bs.undoID = growI32(bs.undoID, ne)
	bs.slab = growBytes(bs.slab, ne*depth)
	for i := range bs.shardOff {
		bs.shardOff[i] = 0
	}
	for j, p := range bs.entryPos {
		s := int32(st.layout.ShardIdx(codes[p]))
		bs.taskShard[j] = s
		bs.status[j] = batchPending
		bs.shardOff[s+1]++
	}
	for s := 0; s < S; s++ {
		bs.shardOff[s+1] += bs.shardOff[s]
	}
	fill := bs.shardOff // reuse as cursors; restored below
	for j := range bs.taskShard {
		s := bs.taskShard[j]
		bs.shardTasks[fill[s]] = int32(j)
		fill[s]++
	}
	for s := S; s > 0; s-- {
		bs.shardOff[s] = bs.shardOff[s-1]
	}
	bs.shardOff[0] = 0

	// Speculative pass: each shard serves its group in batch order under
	// one lock hold. Groups touch disjoint entries and disjoint tries, so
	// they fan out across goroutines when a second core exists to run them.
	limit := st.ownLimit()
	serve := func(s int) {
		sh := &st.shards[s]
		grp := bs.shardTasks[bs.shardOff[s]:bs.shardOff[s+1]]
		sh.mu.Lock()
		if e.state.Load() != st {
			sh.mu.Unlock()
			for _, j := range grp {
				bs.status[j] = batchReroute
			}
			return
		}
		for _, j := range grp {
			p := bs.entryPos[j]
			id, lvl, ok := sh.index.PopNearestWithinCode(codes[p], limit, bs.slab[int(j)*depth:(int(j)+1)*depth])
			if ok {
				sh.assigns++
				ids[p], lvls[p] = id, lvl
				bs.undoID[j] = int32(id)
				bs.status[j] = batchPopped
			} else {
				sh.fallbacks++
				bs.status[j] = batchFailed
			}
		}
		sh.mu.Unlock()
	}
	nonEmpty := 0
	for s := 0; s < S; s++ {
		if bs.shardOff[s] != bs.shardOff[s+1] {
			nonEmpty++
		}
	}
	if nonEmpty > 1 && runtime.GOMAXPROCS(0) > 1 {
		for s := 0; s < S; s++ {
			if bs.shardOff[s] == bs.shardOff[s+1] {
				continue
			}
			bs.wg.Add(1)
			go func(s int) {
				defer bs.wg.Done()
				serve(s)
			}(s)
		}
		bs.wg.Wait()
	} else {
		for s := 0; s < S; s++ {
			if bs.shardOff[s] != bs.shardOff[s+1] {
				serve(s)
			}
		}
	}

	anyFailed := false
	for j := 0; j < ne; j++ {
		if bs.status[j] == batchFailed {
			anyFailed = true
			break
		}
	}
	if anyFailed {
		e.resolveBatchFallbacks(bs, st, codes, ids, lvls)
	}
	for j := 0; j < ne; j++ {
		if bs.status[j] == batchReroute {
			nxt = append(nxt, bs.entryPos[j])
		}
	}
	return nxt
}

// resolveBatchFallbacks serves every batchFailed entry under all shard
// locks, in batch order, each against the exact pool its batch position
// would have seen sequentially (speculative pops after it are treated as
// not-yet-taken: counted as candidates, rolled back and replayed when the
// fallback claims a worker buried under them).
func (e *Engine) resolveBatchFallbacks(bs *batchScratch, st *epochState, codes []hst.Code, ids, lvls []int) {
	st.lockAll()
	defer st.unlockAll()
	if e.state.Load() != st {
		// A swap landed between the speculative pass and these locks. The
		// speculative pops stand (old-epoch answers, same as a sequential
		// pop racing the swap); unresolved tasks redo on the new state.
		for j := range bs.status[:len(bs.entryPos)] {
			if bs.status[j] == batchFailed {
				bs.status[j] = batchReroute
			}
		}
		return
	}
	depth, limit, S := st.layout.Depth, st.ownLimit(), len(st.shards)
	ne := len(bs.entryPos)
	maxInt := int(^uint(0) >> 1)

	grpOf := func(s int) []int32 {
		return bs.shardTasks[bs.shardOff[s]:bs.shardOff[s+1]]
	}
	// shardBest is shard s's smallest worker id as seen from entry j's
	// batch position: its current minimum, or a later entry's speculative
	// pop — a worker j would have reached first sequentially.
	shardBest := func(s int, j int32) int {
		best := maxInt
		if m, ok := st.shards[s].index.MinID(); ok {
			best = m
		}
		for _, j2 := range grpOf(s) {
			if j2 > j && bs.status[j2] == batchPopped && int(bs.undoID[j2]) < best {
				best = int(bs.undoID[j2])
			}
		}
		return best
	}
	// steal hands shard s's position-j minimum (want) to entry j: roll the
	// shard back past every speculative pop after j (reverse order), pop
	// the winner — now necessarily the shard's minimum — and replay the
	// rolled-back entries in order. A replayed entry may pop a different
	// worker than before, or none at all; a new miss surfaces as
	// batchFailed at a later index, which the ascending scan resolves.
	steal := func(j int32, s, want, level int) {
		sh := &st.shards[s]
		grp := grpOf(s)
		for t := len(grp) - 1; t >= 0; t-- {
			j2 := grp[t]
			if j2 <= j || bs.status[j2] != batchPopped {
				continue
			}
			c := hst.Code(bs.slab[int(j2)*depth : (int(j2)+1)*depth])
			id2 := int(bs.undoID[j2])
			if err := returnUnit(sh.index, c, id2); err != nil {
				// Unreachable: the code and the unit were read off this
				// shard's own pop.
				panic(fmt.Sprintf("engine: batch rollback of worker %d: %v", id2, err))
			}
			sh.assigns--
		}
		id, ok := sh.index.PopMin()
		if !ok || id != want {
			// Unreachable: want is the minimum over this shard's remaining
			// workers and its rolled-back pops, all of which the rollback
			// just restored. Surfacing beats silently mis-assigning.
			panic(fmt.Sprintf("engine: batch steal wanted worker %d from shard %d, popped %d (ok=%v)", want, s, id, ok))
		}
		sh.assigns++
		p := bs.entryPos[j]
		ids[p], lvls[p] = id, level
		bs.status[j] = batchResolved
		for _, j2 := range grp {
			if j2 <= j || bs.status[j2] == batchResolved {
				continue
			}
			p2 := bs.entryPos[j2]
			id2, lvl2, ok2 := sh.index.PopNearestWithinCode(codes[p2], limit, bs.slab[int(j2)*depth:(int(j2)+1)*depth])
			if ok2 {
				sh.assigns++
				ids[p2], lvls[p2] = id2, lvl2
				bs.undoID[j2] = int32(id2)
				bs.status[j2] = batchPopped
			} else {
				ids[p2], lvls[p2] = None, 0
				bs.status[j2] = batchFailed
			}
		}
	}

	for j := int32(0); int(j) < ne; j++ {
		if bs.status[j] != batchFailed {
			continue
		}
		p := bs.entryPos[j]
		code := codes[p]
		// The own shard may have gained a closer worker between the
		// speculative pass and these locks (concurrent writers only; with
		// writers quiesced this probe fails exactly as it did then).
		own := &st.shards[bs.taskShard[j]]
		if id, lvl, ok := own.index.PopNearestWithin(code, limit); ok {
			own.assigns++
			ids[p], lvls[p] = id, lvl
			bs.status[j] = batchResolved
			continue
		}
		if st.layout.Sub > 1 {
			// Top-digit tier: the sibling sub-shards of the task's top branch
			// hold exactly the workers sharing its first digit, every one at
			// level depth−1 from this task (see popSubtree).
			d0 := int(code[0])
			bestS, bestID := -1, maxInt
			for t := 0; t < st.layout.Sub; t++ {
				si := d0 + st.layout.Degree*t
				if m := shardBest(si, j); m < bestID {
					bestS, bestID = si, m
				}
			}
			if bestS >= 0 {
				steal(j, bestS, bestID, depth-1)
				continue
			}
		}
		bestS, bestID := -1, maxInt
		for s := 0; s < S; s++ {
			if m := shardBest(s, j); m < bestID {
				bestS, bestID = s, m
			}
		}
		if bestS < 0 {
			// Nothing available anywhere at this entry's batch position and
			// no speculative pop outstanding after it: the pool is truly
			// empty from here on, so every later fallback is None too.
			for j2 := j; int(j2) < ne; j2++ {
				if bs.status[j2] == batchFailed {
					bs.status[j2] = batchResolved // ids already None
				}
			}
			return
		}
		steal(j, bestS, bestID, depth)
	}
}
