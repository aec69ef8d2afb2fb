package engine

import (
	"math"
	"testing"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// dedupWindow plays one window's keys through the table and a Go map — the
// structure the table replaced — and requires the same column and the same
// first-seen verdict for every key.
func dedupWindow(t *testing.T, tb *dedupTable, keys []refKey) {
	t.Helper()
	tb.reset(len(keys))
	if size := int(tb.mask) + 1; size&(size-1) != 0 || size < 2*len(keys) || size > len(tb.slots) {
		t.Fatalf("window of %d keys probes %d of %d slots", len(keys), size, len(tb.slots))
	}
	ref := map[refKey]int32{}
	for i, key := range keys {
		want, seen := ref[key]
		if !seen {
			want = int32(len(ref))
			ref[key] = want
		}
		offered := want
		if seen {
			offered = -7 // a repeat must not record the column it is offered
		}
		got, fresh := tb.column(key, offered)
		if got != want || fresh == seen {
			t.Fatalf("key %d %+v: column (%d, fresh=%v), map says (%d, fresh=%v)", i, key, got, fresh, want, !seen)
		}
	}
}

func TestDedupTable(t *testing.T) {
	var tb dedupTable
	a := refKey{node: 2, id: 3}
	tb.reset(4)
	if col, fresh := tb.column(a, 0); col != 0 || !fresh {
		t.Fatalf("first sight = (%d,%v)", col, fresh)
	}
	if col, fresh := tb.column(a, 9); col != 0 || fresh {
		t.Fatalf("second sight = (%d,%v), want the recorded column", col, fresh)
	}
	// Every field is part of the identity.
	for i, k := range []refKey{{3, 3}, {2, 4}} {
		if col, fresh := tb.column(k, int32(i+1)); col != int32(i+1) || !fresh {
			t.Fatalf("%+v collapsed into another key's column %d", k, col)
		}
	}
	// A new window forgets the last one without clearing a slot.
	tb.reset(4)
	if col, fresh := tb.column(a, 5); col != 5 || !fresh {
		t.Fatalf("after reset = (%d,%v), want a fresh column", col, fresh)
	}

	// Colliding keys: eight keys whose home slot is the same in a 16-slot
	// window must all resolve through the probe chain, wrap-around included.
	var clash []refKey
	for id := int32(0); len(clash) < 8; id++ {
		if k := (refKey{node: 40, id: id}); k.hash()&15 == 13 {
			clash = append(clash, k)
		}
	}
	dedupWindow(t, &tb, append(clash, clash...))
}

// TestDedupTableDifferential drives randomized windows — sizes climbing and
// falling so the slab grows between windows and small windows reuse a large
// slab's prefix, key spaces from heavy repeats to all-distinct — against
// the map, then forces the generation stamp across its wrap.
func TestDedupTableDifferential(t *testing.T) {
	src := rng.New(77)
	var tb dedupTable
	window := func(n, space int) []refKey {
		keys := make([]refKey, n)
		for i := range keys {
			keys[i] = refKey{node: int32(src.Intn(8 * space)), id: int32(src.Intn(space))}
		}
		return keys
	}
	grown := 0
	for w := 0; w < 400; w++ {
		n := src.Intn(1 << (1 + w%12)) // 0 … 4095, cycling
		before := len(tb.slots)
		dedupWindow(t, &tb, window(n, 1+src.Intn(1<<(2+w%10))))
		if len(tb.slots) != before {
			grown++
		}
	}
	if grown < 3 {
		t.Fatalf("slab grew %d times; the tape was meant to grow it between windows", grown)
	}

	// Plant the state 2³² windows would reach: live-looking slots from
	// generation 1, the counter one step from wrapping.
	keys := window(64, 16)
	tb.reset(len(keys))
	tb.gen = 1
	for i, k := range keys {
		tb.column(k, int32(i))
	}
	tb.gen = math.MaxUint32
	dedupWindow(t, &tb, keys) // reset wraps to 0 → must clear, not resurrect gen-1 slots
	if tb.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", tb.gen)
	}
	dedupWindow(t, &tb, keys)
}

// FuzzDedupTable decodes windows from the tape — a length byte, a key-space
// byte, then three bytes per key — and holds the table to the map's answers
// across them, the generation counter started next to its wrap.
func FuzzDedupTable(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 0, 1, 2, 1, 1, 2})
	f.Add([]byte{200, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tape []byte) {
		tb := dedupTable{gen: math.MaxUint32 - 2, slots: make([]dedupSlot, 16)}
		for len(tape) >= 2 {
			n, space := int(tape[0]), int32(tape[1])+1
			tape = tape[2:]
			keys := make([]refKey, 0, n)
			for ; n > 0 && len(tape) >= 3; n-- {
				keys = append(keys, refKey{node: (int32(tape[0])%4<<8 | int32(tape[1])) % space, id: int32(tape[2]) % space})
				tape = tape[3:]
			}
			dedupWindow(t, &tb, keys)
		}
	})
}

func TestWarmSlab(t *testing.T) {
	var w warmSlab
	ids := []int32{0, warmPageLen - 1, warmPageLen, 3*warmPageLen + 17, math.MaxInt32 - 5, math.MaxInt32}
	for _, id := range ids {
		if got := w.get(id); got != 0 {
			t.Fatalf("unbanked id %d reads %v", id, got)
		}
	}
	for i, id := range ids {
		w.set(id, -1.5*float64(i+1))
	}
	for i, id := range ids {
		if got := w.get(id); got != -1.5*float64(i+1) {
			t.Fatalf("id %d reads %v, banked %v", id, got, -1.5*float64(i+1))
		}
	}
	// Neighbours inside a banked page, and whole pages never banked, read 0.
	for _, id := range []int32{1, warmPageLen - 2, warmPageLen + 1, 2 * warmPageLen, math.MaxInt32 - 6} {
		if got := w.get(id); got != 0 {
			t.Fatalf("never-banked id %d reads %v", id, got)
		}
	}
	pages := 0
	for _, pg := range w.pages {
		if pg != nil {
			pages++
		}
	}
	if pages != 4 {
		t.Fatalf("%d pages allocated for ids on 4 pages: memory must follow the ids touched", pages)
	}
	w.drop()
	for _, id := range ids {
		if got := w.get(id); got != 0 {
			t.Fatalf("id %d reads %v after drop", id, got)
		}
	}
}

// loadWindow fills a scratch the way a miner would: task ti's candidates
// are lists[ti].
func loadWindow(p *batchOptimalPolicy, ws *windowScratch, lists [][]hst.CandidateRef) {
	ws.valid = ws.valid[:0]
	ws.sizeFor(len(lists), p.k)
	for ti, l := range lists {
		ws.valid = append(ws.valid, int32(ti))
		ws.candCnt[ti] = int32(copy(ws.cands[ti*p.k:(ti+1)*p.k], l))
	}
}

// TestWarmPotentialsPerState pins the warm-start seam on the slab: a window
// banks every column's closing potential under its state token — at page
// boundaries and at a sparse id near MaxInt32 exactly as anywhere else —
// the next window under the same token is seeded with them, and a window
// under any other token finds every potential at 0 and every page gone.
func TestWarmPotentialsPerState(t *testing.T) {
	p := BatchOptimal(4).(*batchOptimalPolicy)
	ws := p.pool.Get().(*windowScratch)
	ids := []int32{0, warmPageLen - 1, warmPageLen, math.MaxInt32 - 1}
	// Four tasks rank four one-unit workers identically (worker j at level
	// j), so each task after the first finds its favourites full and the
	// solve has to move their prices.
	var lists [][]hst.CandidateRef
	for range ids {
		var l []hst.CandidateRef
		for j, id := range ids {
			l = append(l, hst.CandidateRef{ID: id, Node: int32(100 + j), Level: int32(j), Cap: 1})
		}
		lists = append(lists, l)
	}
	stateA, stateB := new(int), new(int)
	loadWindow(p, ws, lists)
	p.buildAndSolve(ws, stateA)
	moved := false
	banked := map[int32]float64{}
	for w, c := range ws.workers {
		pot := ws.solver.WorkerPot(w)
		banked[c.ID] = pot
		moved = moved || pot != 0
		if got := p.warm.get(c.ID); got != pot {
			t.Fatalf("worker %d banked %v, solver closed at %v", c.ID, got, pot)
		}
	}
	if len(banked) != len(ids) || !moved {
		t.Fatalf("window banked %v: want all %d workers, some potential off zero", banked, len(ids))
	}
	// Same state: potentials survive a solve that does not touch them.
	loadWindow(p, ws, [][]hst.CandidateRef{{{ID: 7, Node: 1, Level: 2, Cap: 1}}})
	p.buildAndSolve(ws, stateA)
	for id, pot := range banked {
		if got := p.warm.get(id); got != pot {
			t.Fatalf("worker %d reads %v under the same state, banked %v", id, got, pot)
		}
	}
	// Another state: every earlier potential reads 0, no page outlives it
	// except the one the new window banked into.
	p.buildAndSolve(ws, stateB)
	for id := range banked {
		if got := p.warm.get(id); got != 0 {
			t.Fatalf("worker %d reads %v under a new state, want 0", id, got)
		}
	}
	for pg, page := range p.warm.pages {
		if page != nil && pg != 0 {
			t.Fatalf("page %d survived the state change", pg)
		}
	}
}
