package hst

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// The arena structs are the per-worker memory bill at 10M-worker scale:
// any field added back (or padding reintroduced) is a deliberate decision,
// not an accident. An item is its id and packed suffix (capacities live on
// the lazily allocated capacity pages), an inner node two counters and the
// slot naming it (its child block is found by its own index), a bucket the
// same and the head of its chunk chain. An item page is 4 KiB and a
// capacity page 2 KiB, both allocator size classes: a page pays no rounding.
func TestArenaStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 8 {
		t.Errorf("item is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(inner{}); got != 12 {
		t.Errorf("inner is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(bucket{}); got != 16 {
		t.Errorf("bucket is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof([pageLen]chunk{}); got != 4096 {
		t.Errorf("an item page is %d bytes, want 4096", got)
	}
	if got := unsafe.Sizeof([pageLen][chunkLen]int32{}); got != 2048 {
		t.Errorf("a capacity page is %d bytes, want 2048", got)
	}
}

// withArenaCap lowers the arena ceiling so overflow is reachable in a test.
func withArenaCap(t *testing.T, n int64) {
	t.Helper()
	old := MaxArenaLen
	MaxArenaLen = n
	t.Cleanup(func() { MaxArenaLen = old })
}

// deepCode is a depth-40 code: a byte-wide suffix word reaches four digits
// up, so the 36 above are inner nodes however thin the population.
func deepCode(first byte) Code {
	b := make([]byte, 40)
	b[0] = first
	return Code(b)
}

// An index whose codes run deeper than a suffix word hits the child-slot
// arena first (every prefix above bdepth is an inner node with a degree-wide
// block). The refusal must be typed, must not corrupt the population already
// indexed, and the nodes a removal frees must make room again.
func TestInsertFullDenseKidsArena(t *testing.T) {
	const degree = 200
	withArenaCap(t, (1+2*35+40)*degree) // the root, two 35-node paths, and one node short of the preflight's 41
	x := NewLeafIndexDegree(40, degree)
	for id := 0; id < 2; id++ {
		if err := x.Insert(deepCode(byte(id)), id); err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
	}
	if nodes, _, _ := x.ArenaLens(); nodes != 1+2*35 {
		t.Fatalf("setup holds %d inner nodes, want the root and two 35-node paths", nodes)
	}
	c := deepCode(2)
	err := x.Insert(c, 2)
	if !errors.Is(err, ErrIndexFull) {
		t.Fatalf("insert of a third path at the ceiling: got %v, want ErrIndexFull", err)
	}
	// The refused insert must have mutated nothing.
	if x.Len() != 2 || x.Units() != 2 || x.CountPrefix(c[:1]) != 0 {
		t.Fatalf("after refusal: Len=%d Units=%d, %d items under the refused branch", x.Len(), x.Units(), x.CountPrefix(c[:1]))
	}
	if id, lvl, ok := x.Nearest(c); !ok || id != 0 || lvl != 40 {
		t.Fatalf("index damaged by refused insert: id=%d lvl=%d ok=%v", id, lvl, ok)
	}
	checkShape(t, x)
	// Removal at the ceiling still works; it frees a path of nodes, and the
	// refused insert takes them without growing any slab.
	if !x.Remove(deepCode(1), 1) {
		t.Fatal("remove at ceiling failed")
	}
	if err := x.Insert(c, 2); err != nil {
		t.Fatalf("insert after a removal freed a path: %v", err)
	}
	if nodes, _, _ := x.ArenaLens(); nodes != 1+2*35 {
		t.Fatalf("node arena grew to %d past the ceiling", nodes)
	}
	if id, lvl, ok := x.Nearest(c); !ok || id != 2 || lvl != 0 {
		t.Fatalf("worker 2 not indexed after node reuse: id=%d lvl=%d ok=%v", id, lvl, ok)
	}
	checkShape(t, x)
}

// An index of unknown degree pays 256 child slots a node, so it hits the
// same arena sooner.
func TestInsertFullSparseNodeArena(t *testing.T) {
	withArenaCap(t, (36+40)*256) // one path, and one node short of the preflight's 41
	x := NewLeafIndex(40)
	if err := x.Insert(deepCode(0), 1); err != nil {
		t.Fatalf("first insert: %v", err)
	}
	err := x.Insert(deepCode(1), 2)
	if !errors.Is(err, ErrIndexFull) {
		t.Fatalf("insert at ceiling: got %v, want ErrIndexFull", err)
	}
	if x.Len() != 1 {
		t.Fatalf("after refusal: Len=%d, want 1", x.Len())
	}
	checkShape(t, x)
}

// A depth-0 index allocates no inner nodes, so the item arena is the binding
// ceiling: the preflight keeps two chunks in hand, and the chunk a drained
// head gives back is room again.
func TestInsertFullItemArena(t *testing.T) {
	withArenaCap(t, 4*chunkLen)
	x := NewLeafIndexDegree(0, 1)
	n := 0
	for ; n < 5*chunkLen; n++ {
		if err := x.Insert(Code(""), n); err != nil {
			if !errors.Is(err, ErrIndexFull) {
				t.Fatalf("insert %d at ceiling: got %v, want ErrIndexFull", n, err)
			}
			break
		}
	}
	if _, _, chunks := x.ArenaLens(); n != 2*chunkLen+1 || chunks != 3 || x.Len() != n {
		t.Fatalf("refused at %d items in %d chunks (Len %d), want %d in 3", n, chunks, x.Len(), 2*chunkLen+1)
	}
	for id := 0; id < chunkLen; id++ {
		if !x.Remove(Code(""), id) {
			t.Fatal("remove at ceiling failed")
		}
	}
	if err := x.Insert(Code(""), n); err != nil {
		t.Fatalf("insert after freeing a chunk: %v", err)
	}
	if _, _, chunks := x.ArenaLens(); chunks != 3 {
		t.Fatalf("item arena grew to %d chunks past the ceiling", chunks)
	}
	checkShape(t, x)
}

// Fits is the bulk loader's question before it tears anything down: if n
// items fit whatever their codes, loading n items never meets ErrIndexFull —
// here on the population that takes the most chunks, one bucket an item.
func TestFitsBoundsTheLoad(t *testing.T) {
	const depth, degree, n = 3, 40, 600
	withArenaCap(t, 12000)
	x := NewLeafIndexDegree(depth, degree)
	if err := x.Fits(n); err != nil {
		t.Fatalf("Fits(%d): %v", n, err)
	}
	if err := x.Fits(2 * n); !errors.Is(err, ErrIndexFull) {
		t.Fatalf("Fits(%d): got %v, want ErrIndexFull", 2*n, err)
	}
	for id := 0; id < n; id++ {
		if err := x.Insert(mk(byte(id%degree), byte(id/degree), 0), id); err != nil {
			t.Fatalf("insert %d of a load Fits accepted: %v", id, err)
		}
	}
	checkShape(t, x)
}

// The default ceiling is the full int32 range: normal populations must
// never see a refusal.
func TestArenaCapDefaultIsInt32Range(t *testing.T) {
	if MaxArenaLen != int64(math.MaxInt32) {
		t.Fatalf("MaxArenaLen = %d, want MaxInt32", MaxArenaLen)
	}
}

// Capacities live in a side slab parallel to the item arena: capacity-1
// populations never allocate it (and report the ArenaBytes they always
// did), it appears with the first multi-unit item at exactly 4 bytes per
// reserved item slot, a 3 → 1 decay keeps serving the last unit, and a
// freed slot can never leak units to the slot's next tenant.
func TestCapacityPooling(t *testing.T) {
	x := NewLeafIndexDegree(3, 2)
	leaf := Code([]byte{1, 0, 1})
	if err := x.Insert(leaf, 7); err != nil {
		t.Fatal(err)
	}
	if x.caps != nil {
		t.Fatalf("capacity-1 insert allocated the capacity slab: %v", x.caps)
	}
	multi := Code([]byte{0, 1, 0})
	if err := x.InsertCap(multi, 8, 3); err != nil {
		t.Fatal(err)
	}
	if len(x.caps) != len(x.pages) {
		t.Fatalf("%d capacity pages beside %d item pages: the side arena must shadow the item arena",
			len(x.caps), len(x.pages))
	}
	slab := x.caps
	x.caps = nil
	without := x.ArenaBytes()
	x.caps = slab
	if got, want := x.ArenaBytes(), without+int64(len(slab))*pageLen*chunkLen*4; got != want {
		t.Fatalf("ArenaBytes = %d with the slab, want %d (4 B per reserved slot, counted exactly)", got, want)
	}
	// Two pops decay 3 → 1: the item must still serve its last unit, then go.
	for i := 0; i < 2; i++ {
		if !x.Consume(multi, 8) {
			t.Fatalf("consume %d failed", i)
		}
	}
	if x.Units() != 2 || x.Len() != 2 {
		t.Fatalf("Units=%d Len=%d after the decay, want 2/2", x.Units(), x.Len())
	}
	if refs := x.NearestKRef(multi, 1, nil); len(refs) != 1 || refs[0].ID != 8 || refs[0].Cap != 1 {
		t.Fatalf("decayed item mines as %+v, want id 8 with one unit", refs)
	}
	// Withdraw a multi-unit item and reuse its slot: the tenant must not
	// inherit units, whether it arrives with one unit or several.
	if err := x.AddCap(multi, 8, 4); err != nil {
		t.Fatalf("addcap: %v", err)
	}
	if units, ok := x.RemoveUnits(multi, 8); !ok || units != 5 {
		t.Fatalf("removed units=%d ok=%v, want 5/true", units, ok)
	}
	if err := x.Insert(Code([]byte{0, 1, 1}), 9); err != nil { // reuses the freed slot
		t.Fatal(err)
	}
	if x.Units() != 2 {
		t.Fatalf("slot reuse leaked capacity: Units=%d, want 2", x.Units())
	}
	if units, ok := x.RemoveUnits(Code([]byte{0, 1, 1}), 9); !ok || units != 1 {
		t.Fatalf("tenant of a freed 5-unit slot carries %d units (ok=%v), want 1", units, ok)
	}
	// Growth keeps the slab in lockstep, through append doubling and Reserve.
	for id := 10; id < 200; id++ {
		if err := x.InsertCap(Code([]byte{byte(id & 1), byte(id >> 1 & 1), byte(id >> 2 & 1)}), id, 1+id%5); err != nil {
			t.Fatal(err)
		}
		if id == 100 {
			x.Reserve(0, 0, 4096)
		}
		if len(x.caps) != len(x.pages) {
			t.Fatalf("id %d: %d capacity pages, %d item pages", id, len(x.caps), len(x.pages))
		}
	}
	x.WalkCap(func(_ Code, id, capacity int) {
		if id >= 10 && capacity != 1+id%5 {
			t.Fatalf("item %d walks with %d units, want %d", id, capacity, 1+id%5)
		}
	})

	// A capacity-1 index pre-sized by Reserve allocates capacity pages on
	// demand for the item pages it has: Reserve sizes no item storage.
	y := NewLeafIndexDegree(3, 2)
	y.Reserve(0, 0, 512)
	if y.caps != nil {
		t.Fatal("Reserve allocated the capacity slab on a capacity-1 index")
	}
	if err := y.InsertCap(leaf, 1, 2); err != nil {
		t.Fatal(err)
	}
	if len(y.caps) != 1 || len(y.pages) != 1 {
		t.Fatalf("first multi-unit item took %d capacity pages beside %d item pages, want 1 and 1", len(y.caps), len(y.pages))
	}
}

// AddCap must hold the int32 ceiling InsertCap enforces: a delta or a sum
// past MaxInt32 is refused with nothing mutated, instead of wrapping the
// item's counter negative while Units keeps growing.
func TestAddCapRefusesOverflow(t *testing.T) {
	x := NewLeafIndexDegree(2, 3)
	leaf := mk(1, 2)
	if err := x.InsertCap(leaf, 4, math.MaxInt32-1); err != nil {
		t.Fatal(err)
	}
	if err := x.AddCap(leaf, 4, 1); err != nil {
		t.Fatalf("AddCap up to MaxInt32: %v", err)
	}
	for _, delta := range []int{1, 2, math.MaxInt32, math.MaxInt32 + 1, 1 << 40} {
		// Saturated, not gone: a caller that read this as a missing item
		// would insert a second item under the same id.
		if err := x.AddCap(leaf, 4, delta); err != ErrUnitsOverflow {
			t.Fatalf("AddCap(%d) on a MaxInt32-unit item: %v, want ErrUnitsOverflow", delta, err)
		}
		if x.Units() != math.MaxInt32 {
			t.Fatalf("refused AddCap(%d) moved Units to %d", delta, x.Units())
		}
	}
	if refs := x.NearestKRef(leaf, 1, nil); len(refs) != 1 || refs[0].Cap != math.MaxInt32 {
		t.Fatalf("item mines as %+v, want one ref of MaxInt32 units", refs)
	}
	// The item still serves: one pop takes one unit and AddCap fits again.
	if id, _, ok := x.PopNearest(leaf); !ok || id != 4 {
		t.Fatalf("pop = (%d,%v)", id, ok)
	}
	if x.AddCap(leaf, 4, 1) != nil || x.Units() != math.MaxInt32 {
		t.Fatalf("AddCap after a pop failed or miscounted: Units=%d", x.Units())
	}
	if units, ok := x.RemoveUnits(leaf, 4); !ok || units != math.MaxInt32 {
		t.Fatalf("RemoveUnits = (%d,%v), want MaxInt32", units, ok)
	}
}

// ArenaBytes accounts the slabs the index actually reserves; it must grow
// with the population and shrink back when a fresh index replaces it (the
// figure the soak lane divides by the worker count).
func TestArenaBytes(t *testing.T) {
	x := NewLeafIndexDegree(6, 4)
	empty := x.ArenaBytes()
	if empty <= 0 {
		t.Fatalf("empty ArenaBytes = %d", empty)
	}
	for id := 0; id < 1000; id++ {
		code := make([]byte, 6)
		for j := range code {
			code[j] = byte((id >> (2 * j)) & 3)
		}
		if err := x.Insert(Code(code), id); err != nil {
			t.Fatal(err)
		}
	}
	if full := x.ArenaBytes(); full <= empty {
		t.Fatalf("ArenaBytes did not grow: %d -> %d", empty, full)
	}
}

// Reserve sized from a loaded index's ArenaLens must let an identical bulk
// load fill the slabs without a single reallocation — the epoch swap's
// defence against append-ladder garbage — while answering exactly like an
// unreserved build.
func TestReservePreventsRegrowth(t *testing.T) {
	codeAt := func(id int) Code {
		code := make([]byte, 6)
		for j := range code {
			code[j] = byte((id >> (2 * j)) & 3)
		}
		return Code(code)
	}
	a := NewLeafIndexDegree(6, 4)
	for id := 0; id < 1000; id++ {
		if err := a.Insert(codeAt(id), id); err != nil {
			t.Fatal(err)
		}
	}
	nodes, buckets, chunks := a.ArenaLens()
	if nodes <= 1 || buckets <= nodes || chunks < 1000/chunkLen {
		t.Fatalf("ArenaLens = %d/%d/%d, want a burst population: inner nodes, more buckets than nodes, chunks for 1000 items", nodes, buckets, chunks)
	}
	b := NewLeafIndexDegree(6, 4)
	b.Reserve(nodes, buckets, chunks)
	reserved := b.ArenaBytes()
	codes := make([]Code, 1000)
	for id := range codes {
		codes[id] = codeAt(id)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for id, c := range codes {
		if err := b.Insert(c, id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	// The item pages are the load's only growth: exactly the pages its
	// chunks fill, each allocated once, and no other allocation.
	pages := int64(len(b.pages)) * pageLen * int64(unsafe.Sizeof(chunk{}))
	if got := b.ArenaBytes(); got != reserved+pages || len(b.pages) != (chunks+pageLen-1)/pageLen {
		t.Fatalf("reserved slabs regrew during the load: %d -> %d bytes, %d of them on %d item pages", reserved, got, pages, len(b.pages))
	}
	if n := m1.Mallocs - m0.Mallocs; n != uint64(len(b.pages)) {
		t.Fatalf("the reserved load made %d allocations, want its %d item pages", n, len(b.pages))
	}
	for _, id := range []int{0, 1, 499, 999} {
		gotID, gotLvl, gotOK := b.Nearest(codeAt(id))
		wantID, wantLvl, wantOK := a.Nearest(codeAt(id))
		if gotID != wantID || gotLvl != wantLvl || gotOK != wantOK {
			t.Fatalf("probe %d: reserved index answers (%d,%d,%v), unreserved (%d,%d,%v)",
				id, gotID, gotLvl, gotOK, wantID, wantLvl, wantOK)
		}
	}
	// Reserving past the arena ceiling clamps instead of pre-allocating an
	// un-indexable slab; reserving below current capacity does nothing.
	withArenaCap(t, 64)
	c := NewLeafIndexDegree(2, 2)
	c.Reserve(1<<20, 1<<20, 1<<20)
	if got := c.ArenaBytes(); got > 64*(12/2+4+16+4/chunkLen)+64 { // nodes (32 of them), kids, buckets, next
		t.Fatalf("clamped Reserve still allocated %d bytes", got)
	}
	before := b.ArenaBytes()
	b.Reserve(1, 1, 1)
	if got := b.ArenaBytes(); got != before {
		t.Fatalf("no-op Reserve changed ArenaBytes: %d -> %d", before, got)
	}
}
