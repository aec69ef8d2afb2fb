package engine

import (
	"sync"

	"github.com/pombm/pombm/internal/hst"
)

// This file pipelines the batch-optimal policy over long batches. A batch
// longer than batchWindowSize splits into consecutive windows, each
// solved as its own restricted matching — exactly the outcome of
// submitting the chunks as separate batches back to back. The win is how
// the windows overlap: the matching solve touches nothing but refs mined
// into the window's scratch, so while window i's solver runs on its own
// goroutine the serving thread mines window i+1's candidates from the
// tries. That mining is speculative — window i's commit has not consumed
// its matched units yet — so between commit i and solve i+1 a repair pass
// re-verifies the mined refs against the post-commit tries: refs whose
// worker lost units are re-capped in place, tasks that lost a candidate
// entirely are re-mined, and both checks are skipped wholesale for shards
// the commit never touched. The repair leaves the mined state exactly as
// a fresh post-commit mine would have, so the pipeline's answers are
// bit-identical to the unpipelined window sequence.
//
// Every shard lock is held across the whole pipeline (a window is a
// global decision, and the epoch cannot rotate mid-batch while the locks
// are held — rotation itself takes them all). The per-shard insert
// generation snapshotted at mine time proves the only mutations between
// mine and repair were our own commits: consumption can strand a ref
// (caught by RefUnits) but never redirect one — only inserts can, and an
// insert would bump the generation, which the repair pass treats as a
// full re-mine of that shard's speculation.

// batchWindowSize is the pipelined batch-optimal window length: batches
// up to this size solve as a single matching; longer batches split into
// windows of this size. Larger windows buy a wider matching scope at
// quadratically growing solve cost — 256 tasks keeps a window's solve
// comfortably inside the time the next window's mine needs, so neither
// pipeline stage starves the other.
const batchWindowSize = 256

// solvePipelined serves a long batch as a pipeline of windows under one
// all-shards lock session. It reports false when an epoch swap won the
// lock race, in which case the caller retries against the new state.
func (p *batchOptimalPolicy) solvePipelined(e *Engine, st *epochState, codes []hst.Code, ids, lvls []int) bool {
	st.lockAll()
	defer st.unlockAll()
	if e.state.Load() != st {
		return false
	}

	// Two scratches alternate: cur is solving while nxt is mining. The
	// warm potentials live on the policy — every read and write of them is
	// ordered (a window's solve, which banks its duals as it finishes, is
	// waited for before the next window's starts), so the pipeline
	// warm-starts exactly like the sequential window loop.
	cur := p.pool.Get().(*windowScratch)
	nxt := p.pool.Get().(*windowScratch)
	defer p.pool.Put(cur)
	defer p.pool.Put(nxt)

	n := len(codes)
	nw := (n + batchWindowSize - 1) / batchWindowSize
	window := func(w int) (lo, hi int) {
		lo = w * batchWindowSize
		hi = lo + batchWindowSize
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	dirty := make([]bool, len(st.shards))

	lo, hi := window(0)
	ntCur := p.mineWindow(cur, st, codes[lo:hi], ids[lo:hi], lvls[lo:hi])
	var solveWG sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo, hi := window(w)
		if ntCur > 0 {
			// The window was mined speculatively; the commit since then may
			// have drained the pool entirely, leaving nothing to match (a
			// partially drained pool is fine — repair re-mined against it,
			// and pads cover tasks whose own shard emptied).
			pool := 0
			for i := range st.shards {
				pool += st.shards[i].index.Len()
			}
			if pool == 0 {
				ntCur = 0 // answers stay None; later windows early-out in mineWindow
			}
		}
		if ntCur > 0 {
			p.padWindow(cur, st.layout, codes[lo:hi], st.smallestK)
			solveWG.Add(1)
			go func(ws *windowScratch) {
				defer solveWG.Done()
				p.buildAndSolve(ws, st)
			}(cur)
		}
		ntNxt := 0
		if w+1 < nw {
			nlo, nhi := window(w + 1)
			ntNxt = p.mineWindow(nxt, st, codes[nlo:nhi], ids[nlo:nhi], lvls[nlo:nhi])
		}
		if ntCur > 0 {
			solveWG.Wait()
			for i := range dirty {
				dirty[i] = false
			}
			p.commitWindow(cur, st, ids[lo:hi], lvls[lo:hi], dirty)
			if ntNxt > 0 {
				nlo, nhi := window(w + 1)
				p.repairWindow(nxt, st, codes[nlo:nhi], dirty)
			}
		}
		cur, nxt = nxt, cur
		ntCur = ntNxt
	}
	e.windows.n.Add(int64(nw))
	return true
}

// repairWindow re-verifies a window's speculatively mined own-shard
// candidates after the previous window's commit: for tasks homed on a
// shard the commit consumed from, every ref is probed — still-live refs
// are re-capped to their remaining units (membership in the top-k is
// unaffected: consumption elsewhere only removes competitors), and a task
// whose candidate was fully consumed is re-mined from the live trie. A
// shard whose insert generation moved since the mine invalidates ref
// identity itself, so its tasks re-mine unconditionally. Caller holds
// every shard lock; pads have not been built yet (padWindow runs after).
func (p *batchOptimalPolicy) repairWindow(ws *windowScratch, st *epochState, codes []hst.Code, dirty []bool) {
	k := p.k
	for ti := range ws.valid {
		s := ws.taskShard[ti]
		idx := st.shards[s].index
		stale := idx.InsertGen() != ws.genSnap[s]
		if !stale {
			if !dirty[s] {
				continue
			}
			for j := 0; j < int(ws.candCnt[ti]); j++ {
				c := &ws.cands[ti*k+j]
				units, ok := idx.RefUnits(*c)
				if !ok || units == 0 {
					stale = true
					break
				}
				c.Cap = int32(units)
			}
		}
		if stale {
			region := ws.cands[ti*k : ti*k : (ti+1)*k]
			got := idx.NearestKRef(codes[ws.valid[ti]], k, region)
			ws.candCnt[ti] = int32(len(got))
			for j := range got {
				ws.candSh[ti*k+j] = s
			}
		}
	}
}
