package hst

import (
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

// checkShape audits the whole arena against the per-node child form: a node
// with at most narrowKids live children (any number, where the index cannot
// promote) is a sibling list exactly that long, one with more is a dense
// block whose occupied slots match the children's digits, every freelisted
// block is all-nilIdx, and every count and minID agrees with a
// recomputation from the items up. The differential and fuzz tapes run it
// after every operation, so a promote or demote that leaves the arena in a
// state a later operation merely happens not to trip over still fails.
func checkShape(t testing.TB, x *LeafIndex) {
	t.Helper()
	if len(x.digits) != len(x.nodes) || len(x.sibs) != len(x.nodes) {
		t.Fatalf("side slabs out of step: %d nodes, %d digits, %d sibs", len(x.nodes), len(x.digits), len(x.sibs))
	}
	if x.degree == 0 && (len(x.kids) != 0 || len(x.freeBlock) != 0) {
		t.Fatalf("an index that cannot promote holds %d child slots, %d free blocks", len(x.kids), len(x.freeBlock))
	}
	blockOwner := map[int32]int32{} // block offset → owning node, -1 for freelisted
	for _, off := range x.freeBlock {
		if _, dup := blockOwner[off]; dup {
			t.Fatalf("block %d is on the freelist twice", off)
		}
		blockOwner[off] = -1
		for d, c := range x.kids[off : off+int32(x.degree)] {
			if c != nilIdx {
				t.Fatalf("freelisted block %d holds node %d at digit %d", off, c, d)
			}
		}
	}
	live, units := 0, 0
	var visit func(ni int32, level int) (count, min int32)
	visit = func(ni int32, level int) (count, min int32) {
		live++
		n := x.nodes[ni]
		min = noItem32
		for si := n.items; si != nilIdx; si = x.items[si].next {
			if level != x.depth {
				t.Fatalf("node %d at level %d of %d holds items", ni, level, x.depth)
			}
			count++
			units += int(x.itemCap(si))
			if x.items[si].id < min {
				min = x.items[si].id
			}
		}
		var kids []int32
		if n.kids <= blkTag {
			off := blkTag - n.kids
			if x.degree == 0 || off%int32(x.degree) != 0 || int(off)+x.degree > len(x.kids) {
				t.Fatalf("node %d names block %d in a %d-slot arena of degree %d", ni, off, len(x.kids), x.degree)
			}
			if owner, taken := blockOwner[off]; taken {
				t.Fatalf("node %d's block %d already belongs to %d (-1 = freelist)", ni, off, owner)
			}
			blockOwner[off] = ni
			for d, c := range x.block(n.kids) {
				if c == nilIdx {
					continue
				}
				if int(x.digits[c]) != d || x.sibs[c] != nilIdx {
					t.Fatalf("node %d slot %d holds child %d with digit %d, sibling %d", ni, d, c, x.digits[c], x.sibs[c])
				}
				kids = append(kids, c)
			}
			if len(kids) <= narrowKids {
				t.Fatalf("node %d keeps a block for %d children (narrowKids %d)", ni, len(kids), narrowKids)
			}
		} else {
			var seen [256]bool
			for c := n.kids; c != nilIdx; c = x.sibs[c] {
				if seen[x.digits[c]] {
					t.Fatalf("node %d lists digit %d twice", ni, x.digits[c])
				}
				seen[x.digits[c]] = true
				kids = append(kids, c)
			}
			if x.degree > 0 && len(kids) > narrowKids {
				t.Fatalf("node %d lists %d children, past narrowKids %d", ni, len(kids), narrowKids)
			}
		}
		if len(kids) > 0 && level == x.depth {
			t.Fatalf("leaf node %d has children", ni)
		}
		for _, c := range kids {
			if x.nodes[c].parent != ni {
				t.Fatalf("child %d of %d records parent %d", c, ni, x.nodes[c].parent)
			}
			cc, cm := visit(c, level+1)
			count += cc
			if cm < min {
				min = cm
			}
		}
		if n.count != count || n.minID != min || (ni != 0 && count == 0) {
			t.Fatalf("node %d holds count %d minID %d, recomputed %d / %d", ni, n.count, n.minID, count, min)
		}
		return count, min
	}
	if count, _ := visit(0, 0); int(count) != x.size || units != x.units {
		t.Fatalf("Len %d Units %d, arena holds %d items with %d units", x.size, x.units, count, units)
	}
	free := 0
	for ni := x.freeNode; ni != nilIdx; ni = x.nodes[ni].kids {
		if x.nodes[ni].items != nilIdx {
			t.Fatalf("freed node %d still lists items", ni)
		}
		free++
	}
	if free != x.freeNodes || live+free != len(x.nodes) {
		t.Fatalf("%d live + %d freed nodes (freeNodes %d) in a %d-node arena", live, free, x.freeNodes, len(x.nodes))
	}
	if x.degree > 0 && len(blockOwner)*x.degree != len(x.kids) {
		t.Fatalf("%d blocks owned or freelisted, child arena holds %d slots of degree %d", len(blockOwner), len(x.kids), x.degree)
	}
}

// liveBlocks is the number of dense child blocks nodes currently hold.
func liveBlocks(x *LeafIndex) int {
	if x.degree == 0 {
		return 0
	}
	return len(x.kids)/x.degree - len(x.freeBlock)
}

// The promote/demote boundary, step by step: the third child takes a block,
// the removal back to two hands it over all-nilIdx, the next promotion (at
// another node) reuses it, and a demoted node that then empties frees
// without a block to return.
func TestPromoteDemoteBoundary(t *testing.T) {
	x := NewLeafIndexDegree(2, 5)
	step := func(want int, what string) {
		t.Helper()
		checkShape(t, x)
		if got := liveBlocks(x); got != want {
			t.Fatalf("%s: %d live blocks, want %d", what, got, want)
		}
	}
	ins := func(id int, digits ...byte) {
		t.Helper()
		if err := x.Insert(mk(digits...), id); err != nil {
			t.Fatal(err)
		}
	}
	ins(0, 1, 0)
	ins(1, 1, 1)
	step(0, "two leaves under node 1")
	ins(2, 1, 2)
	step(1, "third leaf promotes node 1")
	for round := 0; round < 3; round++ { // oscillate 3 → 2 → 3 on one node
		if !x.Remove(mk(1, 2), 2) {
			t.Fatal("remove failed")
		}
		step(0, "back to two leaves demotes")
		ins(2, 1, 2)
		step(1, "promotion off the freelist")
		if len(x.kids) != 5 {
			t.Fatalf("round %d: child arena grew to %d slots", round, len(x.kids))
		}
	}
	if id, _, ok := x.PopNearest(mk(1, 1)); !ok || id != 1 {
		t.Fatalf("pop = (%d,%v)", id, ok)
	}
	step(0, "a pop demotes like a removal")
	ins(3, 2, 0)
	ins(4, 3, 0)
	step(1, "third child promotes the root onto node 1's old block")
	if len(x.kids) != 5 {
		t.Fatalf("root's promotion grew the child arena to %d slots", len(x.kids))
	}
	// Demote then free: node 1 is a two-leaf list again; emptying it unlinks
	// it from the root, which demotes in turn.
	x.Remove(mk(1, 0), 0)
	x.Remove(mk(1, 2), 2)
	step(0, "node 1 freed, root back to two children")
	if x.CountPrefix(mk(1)) != 0 || x.Len() != 2 {
		t.Fatalf("CountPrefix(1) = %d, Len = %d after draining node 1", x.CountPrefix(mk(1)), x.Len())
	}
}

// An index that cannot promote — unknown degree, or one past
// denseDegreeLimit — never allocates a child slot however wide its nodes get.
func TestNeverPromotingIndexAllocatesNoKids(t *testing.T) {
	for _, degree := range []int{0, denseDegreeLimit + 1} {
		x := NewLeafIndexDegree(2, degree)
		for id := 0; id < 40; id++ {
			if err := x.Insert(mk(byte(id%8), byte(id%5)), id); err != nil {
				t.Fatal(err)
			}
		}
		checkShape(t, x)
		if _, kids, _ := x.ArenaLens(); kids != 0 || cap(x.kids) != 0 {
			t.Fatalf("degree %d: %d child slots (cap %d) on an index that never promotes", degree, kids, cap(x.kids))
		}
		x.Reserve(64, 64, 64)
		if cap(x.kids) != 0 {
			t.Fatalf("degree %d: Reserve gave %d child slots to an index that never promotes", degree, cap(x.kids))
		}
	}
}

// The arena an index holds live is a function of the live set, not of its
// history: load, drain half, reload the same items, and the nodes and blocks
// in use equal a fresh load's — and in between, the half-drained index
// equals a fresh load of the surviving half. A promote-only index would
// pass neither.
func TestFootprintFollowsLiveSet(t *testing.T) {
	for _, l := range []struct {
		name          string
		degree, units int
	}{{"dense", 6, 1}, {"degree-0", 0, 1}, {"capacitated", 6, 4}} {
		const depth, n = 4, 900
		src := rng.New(uint64(41 + l.degree + l.units))
		type item struct {
			code Code
			cap  int
		}
		items := make([]item, n)
		for i := range items {
			b := make([]byte, depth)
			for j := range b {
				b[j] = byte(src.Intn(6))
			}
			items[i] = item{Code(b), 1 + src.Intn(l.units)}
		}
		load := func(x *LeafIndex, keep func(id int) bool) *LeafIndex {
			for id, it := range items {
				if keep(id) {
					if err := x.InsertCap(it.code, id, it.cap); err != nil {
						t.Fatal(err)
					}
				}
			}
			return x
		}
		footprint := func(x *LeafIndex) [2]int {
			checkShape(t, x)
			return [2]int{len(x.nodes) - x.freeNodes, liveBlocks(x)}
		}
		all := func(int) bool { return true }
		drained := func(id int) bool { return id%2 == 1 }
		fresh := footprint(load(NewLeafIndexDegree(depth, l.degree), all))
		if l.degree > 0 && fresh[1] == 0 {
			t.Fatalf("%s: the population promotes nothing", l.name)
		}

		x := load(NewLeafIndexDegree(depth, l.degree), all)
		for id, it := range items {
			if !drained(id) {
				continue
			}
			if id%4 == 1 { // pops and withdrawals both drain
				for u := 0; u < it.cap; u++ {
					if !x.Consume(it.code, id) {
						t.Fatalf("%s: consume %d failed", l.name, id)
					}
				}
			} else if !x.Remove(it.code, id) {
				t.Fatalf("%s: remove %d failed", l.name, id)
			}
		}
		half := footprint(load(NewLeafIndexDegree(depth, l.degree), func(id int) bool { return !drained(id) }))
		if got := footprint(x); got != half {
			t.Fatalf("%s: half-drained index holds %v live nodes/blocks, a fresh load of the survivors %v", l.name, got, half)
		}
		if got := footprint(load(x, drained)); got != fresh {
			t.Fatalf("%s: reloaded index holds %v live nodes/blocks, a fresh load %v", l.name, got, fresh)
		}
		if got, want := len(x.kids), fresh[1]*l.degree; got != want {
			t.Fatalf("%s: child arena is %d slots after drain and reload, a fresh load's %d", l.name, got, want)
		}
	}
}

// A steady-state insert/remove pair that promotes a node and demotes it
// again moves one block between the node and the freelist: no allocation.
func TestPromoteDemoteZeroAllocSteadyState(t *testing.T) {
	x := NewLeafIndexDegree(2, 6)
	for id, c := range []Code{mk(0, 0), mk(0, 1), mk(1, 0), mk(2, 0), mk(3, 0)} {
		if err := x.Insert(c, id); err != nil {
			t.Fatal(err)
		}
	}
	third := mk(0, 2) // node 0 sits at narrowKids children
	cycle := func() {
		before := liveBlocks(x)
		if err := x.Insert(third, 9); err != nil {
			t.Fatal(err)
		}
		if liveBlocks(x) != before+1 {
			t.Fatal("insert did not promote")
		}
		if !x.Remove(third, 9) {
			t.Fatal("remove failed")
		}
		if liveBlocks(x) != before {
			t.Fatal("remove did not demote")
		}
	}
	cycle() // warm the freelists
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("promote+demote steady state allocates %.1f/op, want 0", allocs)
	}
	checkShape(t, x)
}
