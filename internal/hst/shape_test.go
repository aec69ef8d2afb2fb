package hst

import (
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

// checkShape audits the whole arena against the two node shapes. Every inner
// node and bucket is named by the slot its up link says, every count and
// minID agrees with a recomputation from the items up, no inner node a
// bucket could replace sits at or under foldMin, no bucket is past burstMax
// unless its items share their next digit (or have none left), every item's
// suffix is the code its path and WalkCap report, and every node, bucket and
// chunk of the slabs is owned exactly once or on exactly one freelist. The
// differential and fuzz tapes run it after every operation, so a burst or
// fold that leaves the arena in a state a later operation merely happens not
// to trip over still fails.
func checkShape(t testing.TB, x *LeafIndex) {
	t.Helper()
	if len(x.kids) != len(x.nodes)*x.width || len(x.pages) != (len(x.next)+pageLen-1)/pageLen {
		t.Fatalf("arenas out of step: %d nodes × %d, %d child slots; %d chunks on %d pages of %d",
			len(x.nodes), x.width, len(x.kids), len(x.next), len(x.pages), pageLen)
	}
	if x.caps != nil && len(x.caps) != len(x.pages) {
		t.Fatalf("%d capacity pages beside %d item pages", len(x.caps), len(x.pages))
	}
	const free = -1
	nodeOwner := map[int32]int32{} // node → the slot naming it, free for the freelist
	bucketOwner := map[int32]int32{}
	chunkOwner := map[int32]int32{} // chunk → owning bucket
	for ni := x.freeNode; ni != nilIdx; ni = x.nodes[ni].up {
		if _, dup := nodeOwner[ni]; dup {
			t.Fatalf("node %d is on the freelist twice", ni)
		}
		nodeOwner[ni] = free
		for d, c := range x.block(ni) {
			if c != nilIdx {
				t.Fatalf("freed node %d still holds ref %d at digit %d", ni, c, d)
			}
		}
	}
	for bi := x.freeBucket; bi != nilIdx; bi = x.buckets[bi].head {
		if _, dup := bucketOwner[bi]; dup || x.buckets[bi].count != 0 {
			t.Fatalf("bucket %d is on the freelist twice, or there with count %d", bi, x.buckets[bi].count)
		}
		bucketOwner[bi] = free
	}
	for c := x.freeChunk; c != nilIdx; c = x.next[c] {
		if _, dup := chunkOwner[c]; dup {
			t.Fatalf("chunk %d is on the freelist twice", c)
		}
		chunkOwner[c] = free
	}
	if len(nodeOwner) != x.freeNodes || len(chunkOwner) != x.freeChunks {
		t.Fatalf("freelists hold %d/%d nodes/chunks, counters say %d/%d", len(nodeOwner), len(chunkOwner), x.freeNodes, x.freeChunks)
	}

	type held struct {
		code Code
		id   int32
	}
	items := map[held]int{}
	units := 0
	path, code := make([]byte, x.depth), make([]byte, x.depth)
	var visit func(r, up int32, d int) (count, min int32)
	visit = func(r, up int32, d int) (count, min int32) {
		min = noItem32
		if r >= 0 {
			n := x.nodes[r]
			if _, taken := nodeOwner[r]; taken || n.up != up || d >= x.depth {
				t.Fatalf("node %d at depth %d: taken %v, up %d, named by slot %d", r, d, taken, n.up, up)
			}
			nodeOwner[r] = up
			for digit := 0; digit < x.width; digit++ {
				slot := r*int32(x.width) + int32(digit)
				if c := x.kids[slot]; c != nilIdx {
					path[d] = byte(digit)
					cc, cm := visit(c, slot, d+1)
					count += cc
					if cm < min {
						min = cm
					}
				}
			}
			if n.count != count || n.minID != min || (up >= 0 && count == 0) {
				t.Fatalf("node %d holds count %d minID %d, recomputed %d / %d", r, n.count, n.minID, count, min)
			}
			if d >= x.bdepth && count <= foldMin {
				t.Fatalf("node %d at depth %d (bdepth %d) holds %d items, foldMin is %d", r, d, x.bdepth, count, foldMin)
			}
			return count, min
		}
		bi := bucketRef(r)
		b := x.buckets[bi]
		if _, taken := bucketOwner[bi]; taken || b.up != up || d < x.bdepth || (up >= 0 && b.count == 0) {
			t.Fatalf("bucket %d at depth %d (bdepth %d): taken %v, up %d, named by slot %d, count %d", bi, d, x.bdepth, taken, b.up, up, b.count)
		}
		bucketOwner[bi] = up
		fill, sharesNext := b.fill(), true
		for c := b.head; c >= 0; c, fill = x.next[c], chunkLen {
			if owner, taken := chunkOwner[c]; taken {
				t.Fatalf("bucket %d chains chunk %d, already with %d (-1 = freelist)", bi, c, owner)
			}
			chunkOwner[c] = bi
			for s := c * chunkLen; s < c*chunkLen+fill; s++ {
				it := *x.item(s)
				copy(code, path[:d])
				x.unpack(it.sfx, code)
				if sfx, force := x.pack(Code(code)); sfx != it.sfx || force != 0 || string(code[:d]) != string(path[:d]) {
					t.Fatalf("bucket %d slot %d: suffix %#x does not carry the path %v", bi, s, it.sfx, path[:d])
				}
				if d < x.depth && x.digit(it.sfx, d) != x.digit(x.chunk(b.head)[0].sfx, d) {
					sharesNext = false
				}
				items[held{Code(code), it.id}]++
				count++
				units += int(x.itemCap(s))
				if it.id < min {
					min = it.id
				}
			}
		}
		if b.count != count || b.minID != min {
			t.Fatalf("bucket %d holds count %d minID %d, its chain %d / %d", bi, b.count, b.minID, count, min)
		}
		if count > burstMax && !sharesNext {
			t.Fatalf("bucket %d at depth %d holds %d items a burst would split", bi, d, count)
		}
		return count, min
	}
	if count, _ := visit(x.root, nilIdx, 0); int(count) != x.size || units != x.units {
		t.Fatalf("Len %d Units %d, arena holds %d items with %d units", x.size, x.units, count, units)
	}
	if len(nodeOwner) != len(x.nodes) || len(bucketOwner) != len(x.buckets) || len(chunkOwner) != len(x.next) {
		t.Fatalf("%d/%d/%d nodes/buckets/chunks owned or freelisted, the slabs hold %d/%d/%d",
			len(nodeOwner), len(bucketOwner), len(chunkOwner), len(x.nodes), len(x.buckets), len(x.next))
	}
	x.WalkCap(func(c Code, id, _ int) { items[held{c, int32(id)}]-- })
	for h, n := range items {
		if n != 0 {
			t.Fatalf("item %d at %v: the arena and WalkCap disagree by %d", h.id, []byte(h.code), n)
		}
	}
}

// liveShape is the inner nodes, buckets and chunks an index has in use.
func liveShape(x *LeafIndex) [3]int {
	freeBuckets := 0
	for bi := x.freeBucket; bi != nilIdx; bi = x.buckets[bi].head {
		freeBuckets++
	}
	return [3]int{len(x.nodes) - x.freeNodes, len(x.buckets) - freeBuckets, len(x.next) - x.freeChunks}
}

// fan returns n distinct depth-4 codes over degree 6 that spread over their
// first digit, so a root bucket of them splits six ways.
func fan(n int) []Code {
	codes := make([]Code, n)
	for i := range codes {
		codes[i] = mk(byte(i%6), byte(i/6%6), byte(i/36%6), 0)
	}
	return codes
}

// The burst/fold boundary, step by step: a bucket holds burstMax items, the
// next one bursts it, removals leave the inner node alone all the way down
// the hysteresis gap, the removal to foldMin folds it, and what the fold
// freed serves the next burst without growing a slab.
func TestBurstFoldBoundary(t *testing.T) {
	x := NewLeafIndexDegree(4, 6)
	codes := fan(burstMax + 1)
	step := func(want [3]int, what string) {
		t.Helper()
		checkShape(t, x)
		if got := liveShape(x); got != want {
			t.Fatalf("%s: %v live nodes/buckets/chunks, want %v", what, got, want)
		}
	}
	for id, c := range codes[:burstMax] {
		if err := x.Insert(c, id); err != nil {
			t.Fatal(err)
		}
	}
	step([3]int{0, 1, (burstMax + chunkLen - 1) / chunkLen}, "burstMax items are one bucket")
	if err := x.Insert(codes[burstMax], burstMax); err != nil {
		t.Fatal(err)
	}
	burst := [3]int{1, 6, 0}
	for digit := 0; digit < 6; digit++ { // fan deals the first digits round robin
		burst[2] += ((burstMax+1-digit+5)/6 + chunkLen - 1) / chunkLen
	}
	step(burst, "the item past burstMax bursts the bucket six ways")
	slabs := [2]int{len(x.nodes), len(x.buckets)}
	for round := 0; round < 3; round++ {
		for id := burstMax; id > foldMin; id-- { // down to foldMin+1 items: still the node
			if !x.Remove(codes[id], id) {
				t.Fatalf("remove %d failed", id)
			}
			if got := liveShape(x); got[0] != 1 {
				t.Fatalf("round %d: node folded at %d items, foldMin is %d", round, x.Len(), foldMin)
			}
		}
		checkShape(t, x)
		if id, _, ok := x.PopNearest(codes[foldMin]); !ok || id != foldMin {
			t.Fatalf("pop = (%d,%v)", id, ok)
		}
		step([3]int{0, 1, (foldMin + chunkLen - 1) / chunkLen}, "a pop to foldMin folds like a removal")
		for id := foldMin; id <= burstMax; id++ {
			if err := x.Insert(codes[id], id); err != nil {
				t.Fatal(err)
			}
		}
		step(burst, "the same items burst into the same shape")
		// A burst hands chunks over as it reads them out, so it peaks at most
		// a partly filled chunk per child over what the bucket held.
		if got := [2]int{len(x.nodes), len(x.buckets)}; got != slabs || len(x.next) > (burstMax+chunkLen)/chunkLen+6 {
			t.Fatalf("round %d: slabs grew from %v to %v nodes/buckets, %d chunks", round, slabs, got, len(x.next))
		}
	}
}

// One leaf can hold any number of items: its bucket cannot split, stays a
// bucket at whatever depth it hangs, and bursts the moment an item that
// differs arrives — into the big one-leaf bucket and a bucket for the
// newcomer, not a chain of one-child nodes.
func TestOneLeafBucketGrowsPastBurstMax(t *testing.T) {
	x := NewLeafIndexDegree(4, 6)
	leaf := mk(1, 2, 3, 4)
	const n = 3*burstMax + 5
	for id := 0; id < n; id++ {
		if err := x.Insert(leaf, id); err != nil {
			t.Fatal(err)
		}
	}
	checkShape(t, x)
	if got := liveShape(x); got[0] != 0 || got[1] != 1 {
		t.Fatalf("%d items on one leaf take %v nodes/buckets/chunks, want one bucket", n, got)
	}
	if err := x.Insert(mk(1, 2, 5, 0), n); err != nil { // shares the bucket's next digit: nothing to split
		t.Fatal(err)
	}
	if got := liveShape(x); got[0] != 0 || got[1] != 1 {
		t.Fatalf("a leaf sharing the next digit left %v nodes/buckets/chunks, want one bucket still", got)
	}
	if err := x.Insert(mk(0, 2, 3, 4), n+1); err != nil {
		t.Fatal(err)
	}
	checkShape(t, x)
	if got := liveShape(x); got[0] != 1 || got[1] != 2 {
		t.Fatalf("a leaf under another first digit left %v nodes/buckets/chunks, want one node over two buckets", got)
	}
	for q, want := range map[Code][2]int{leaf: {0, 0}, mk(1, 2, 5, 1): {n, 1}, mk(1, 2, 3, 0): {0, 1}, mk(0, 2, 3, 5): {n + 1, 1}, mk(2, 0, 0, 0): {0, 4}} {
		if id, lvl, ok := x.Nearest(q); !ok || id != want[0] || lvl != want[1] {
			t.Fatalf("Nearest(%v) = (%d,%d,%v), want %v", []byte(q), id, lvl, ok, want)
		}
	}
	for id := 0; id < n; id++ { // drain the big leaf: ids come out in order
		if got, lvl, ok := x.PopNearest(leaf); !ok || got != id || lvl != 0 {
			t.Fatalf("pop %d = (%d,%d,%v)", id, got, lvl, ok)
		}
	}
	checkShape(t, x)
	if got := liveShape(x); got != [3]int{0, 1, 1} {
		t.Fatalf("after the drain %v nodes/buckets/chunks are live, want the two newcomers folded into one bucket", got)
	}
}

// What an index holds live follows the live set up to the burst/fold
// hysteresis: load, drain half, reload the same items, and the nodes, buckets
// and chunks in use equal a fresh load's with no slab grown — and in
// between, the half-drained index holds no more than the full one did
// (checkShape holds every surviving inner node to more than foldMin items).
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
		footprint := func(x *LeafIndex) [3]int {
			checkShape(t, x)
			return liveShape(x)
		}
		all := func(int) bool { return true }
		drained := func(id int) bool { return id%2 == 1 }
		fresh := footprint(load(NewLeafIndexDegree(depth, l.degree), all))
		if fresh[0] == 0 {
			t.Fatalf("%s: the population bursts nothing", l.name)
		}

		x := load(NewLeafIndexDegree(depth, l.degree), all)
		slabs := [3]int{len(x.nodes), len(x.buckets), len(x.next)}
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
		if got := footprint(x); got[0] > fresh[0] || got[1] > fresh[1] || got[2] > fresh[2] {
			t.Fatalf("%s: half-drained index holds %v live nodes/buckets/chunks, the full one %v", l.name, got, fresh)
		}
		if got := footprint(load(x, drained)); got != fresh {
			t.Fatalf("%s: reloaded index holds %v live nodes/buckets/chunks, a fresh load %v", l.name, got, fresh)
		}
		if got := [3]int{len(x.nodes), len(x.buckets), len(x.next)}; got != slabs {
			t.Fatalf("%s: slabs are %v nodes/buckets/chunks after drain and reload, %v before", l.name, got, slabs)
		}
	}
}

// A steady-state insert/remove pair that bursts a bucket and folds the node
// again moves nodes, buckets and chunks between the trie and the freelists:
// no allocation.
func TestBurstFoldZeroAllocSteadyState(t *testing.T) {
	x := NewLeafIndexDegree(4, 6)
	x.Reserve(2, 16, 64) // a burst's chunk peak depends on the order it reads the items in
	codes := fan(burstMax + 1)
	for id, c := range codes[:foldMin] {
		if err := x.Insert(c, id); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		for id := foldMin; id <= burstMax; id++ {
			if err := x.Insert(codes[id], id); err != nil {
				t.Fatal(err)
			}
		}
		if liveShape(x)[0] != 1 {
			t.Fatal("insert past burstMax did not burst")
		}
		for id := burstMax; id >= foldMin; id-- {
			if !x.Remove(codes[id], id) {
				t.Fatal("remove failed")
			}
		}
		if liveShape(x)[0] != 0 {
			t.Fatal("removal to foldMin did not fold")
		}
	}
	cycle() // warm the freelists
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("burst+fold steady state allocates %.1f/cycle, want 0", allocs)
	}
	checkShape(t, x)
}

// One population walked up past burstMax and down past foldMin ten times,
// held against the map reference after every operation: inserts on the way
// up, withdrawals, pops and consumes on the way down, a nearest probe and a
// full audit of the arena each step. Half the codes share a first digit, so
// the bursts cascade and the folds meet buckets at two depths.
func TestBurstFoldModel(t *testing.T) {
	const depth, degree = 4, 6
	src := rng.New(97)
	p := newDiffPair(depth, degree)
	randCode := func() Code {
		b := make([]byte, depth)
		for i := range b {
			b[i] = byte(src.Intn(degree))
		}
		if src.Intn(2) == 0 {
			b[0] = 3
		}
		return Code(b)
	}
	var live []int
	codes := map[int]Code{}
	step, nextID := 0, 0
	probe := func() {
		t.Helper()
		q := randCode()
		fid, flvl, fok := p.flat.Nearest(q)
		rid, rlvl, rok := p.ref.Nearest(q)
		if fid != rid || flvl != rlvl || fok != rok {
			t.Fatalf("step %d: Nearest(%v) = (%d,%d,%v), reference (%d,%d,%v)", step, []byte(q), fid, flvl, fok, rid, rlvl, rok)
		}
		p.check(t, step)
		step++
	}
	for round := 0; round < 10; round++ {
		for len(live) < 2*burstMax+burstMax/2 {
			c := randCode()
			if p.flat.Insert(c, nextID) != nil || p.ref.InsertCap(c, nextID, 1) != nil {
				t.Fatalf("step %d: insert %d failed", step, nextID)
			}
			live, codes[nextID] = append(live, nextID), c
			nextID++
			probe()
		}
		for len(live) > foldMin/2 {
			switch at := src.Intn(len(live)); src.Intn(3) {
			case 0: // withdraw
				id := live[at]
				if gf, gr := p.flat.Remove(codes[id], id), p.ref.Remove(codes[id], id); !gf || !gr {
					t.Fatalf("step %d: Remove(%d) %v / %v", step, id, gf, gr)
				}
				live[at] = live[len(live)-1]
				live = live[:len(live)-1]
			case 1: // consume by code
				id := live[at]
				if gf, gr := p.flat.Consume(codes[id], id), p.ref.Consume(codes[id], id); !gf || !gr {
					t.Fatalf("step %d: Consume(%d) %v / %v", step, id, gf, gr)
				}
				live[at] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // pop
				q := randCode()
				fid, flvl, fok := p.flat.PopNearest(q)
				rid, rlvl, rok := p.ref.PopNearest(q)
				if fid != rid || flvl != rlvl || !fok || !rok {
					t.Fatalf("step %d: PopNearest(%v) = (%d,%d,%v), reference (%d,%d,%v)", step, []byte(q), fid, flvl, fok, rid, rlvl, rok)
				}
				for i, id := range live {
					if id == fid {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
			}
			probe()
		}
	}
	if nodes, _, _ := p.flat.ArenaLens(); nodes < 2 {
		t.Fatalf("the walk never held two inner nodes at once (%d in the arena): no cascade", nodes)
	}
}

// One id on several leaves — no engine population holds it — mines in leaf-
// code order whichever buckets the leaves fall into, whole or cut off at k.
func TestDuplicateIDsMineInLeafOrder(t *testing.T) {
	x := NewLeafIndexDegree(4, 6)
	for id, c := range fan(burstMax + 1) { // enough to burst: the twins land in different buckets
		if err := x.Insert(c, id+10); err != nil {
			t.Fatal(err)
		}
	}
	twins := []Code{mk(5, 5, 5, 5), mk(0, 5, 5, 5), mk(5, 5, 5, 1), mk(0, 5, 5, 4), mk(5, 5, 5, 1)}
	for _, c := range twins {
		if err := x.InsertCap(c, 7, 2); err != nil {
			t.Fatal(err)
		}
	}
	checkShape(t, x)
	want := []Code{mk(0, 5, 5, 4), mk(0, 5, 5, 5), mk(5, 5, 5, 1), mk(5, 5, 5, 1), mk(5, 5, 5, 5)}
	// From a leaf under first digit 3 every twin sits at the root level, past
	// the items that share the 3, and id 7 is the root level's smallest.
	q, near := mk(3, 3, 3, 3), 0
	for _, c := range fan(burstMax + 1) {
		if c[0] == 3 {
			near++
		}
	}
	for k := 1; k <= len(want)+1; k++ {
		refs := x.NearestKRef(q, near+k, nil)[near:]
		for i, r := range refs[:min(k, len(want))] {
			c, ok := x.ResolveRef(r)
			if !ok || r.ID != 7 || c.Code != want[i] || r.Cap != 2 || r.Level != 4 {
				t.Fatalf("k=%d: ref %d = %+v at %v (%v), want id 7 at %v", k, i, r, []byte(c.Code), ok, []byte(want[i]))
			}
		}
	}
	// Nearest to a twin's leaf: the twin there first, then the rest of its
	// bucket's twins by level, then leaf code.
	refs := x.NearestKRef(mk(5, 5, 5, 1), 4, nil)
	for i, w := range []struct {
		code Code
		lvl  int32
	}{{mk(5, 5, 5, 1), 0}, {mk(5, 5, 5, 1), 0}, {mk(5, 5, 5, 5), 1}} {
		if c, _ := x.ResolveRef(refs[i]); refs[i].ID != 7 || c.Code != w.code || refs[i].Level != w.lvl {
			t.Fatalf("NearestKRef[%d] = %+v at %v, want id 7 at %v level %d", i, refs[i], []byte(c.Code), []byte(w.code), w.lvl)
		}
	}
}
