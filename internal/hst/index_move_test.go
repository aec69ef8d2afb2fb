package hst

import (
	"errors"
	"math"
	"testing"
)

// slotOf is the arena slot of the live item id at code, -1 when there is none.
func slotOf(x *LeafIndex, code Code, id int) int32 {
	if _, _, s, ok := x.find(code, id); ok {
		return s
	}
	return -1
}

// moveCase moves item id of the pair from its code to to, checks the answer
// and the whole arena against the reference, and reports whether the item
// kept its slot (an in-place move) and the live shape before and after.
func moveCase(t *testing.T, p *diffPair, id int, to Code, extra int) (inPlace bool, before, after [3]int) {
	t.Helper()
	from := p.ref.codes[id]
	s, before := slotOf(p.flat, from, id), liveShape(p.flat)
	if !p.move(t, 0, from, to, id, extra) {
		t.Fatalf("move of live item %d refused", id)
	}
	p.check(t, 0)
	if id2, lvl, ok := p.flat.Nearest(to); !ok || lvl != 0 || p.ref.codes[id2] != to {
		t.Fatalf("Nearest(to) = (%d,%d,%v): the moved item is not on its new leaf", id2, lvl, ok)
	}
	return slotOf(p.flat, to, id) == s, before, liveShape(p.flat)
}

// A bucket at exactly burstMax takes a move in place wherever in it the new
// code lands: counts do not change, so nothing bursts.
func TestMoveCapInPlaceAtBurstMax(t *testing.T) {
	p := newDiffPair(4, 6)
	for id, c := range fan(burstMax) {
		if err := p.flat.Insert(c, id); err != nil {
			t.Fatal(err)
		}
		p.ref.InsertCap(c, id, 1)
	}
	for i, to := range []Code{mk(5, 5, 5, 5), mk(0, 0, 0, 1), mk(3, 1, 4, 1)} {
		inPlace, before, after := moveCase(t, p, 7+i, to, i)
		if !inPlace || before != after || after != [3]int{0, 1, (burstMax + chunkLen - 1) / chunkLen} {
			t.Fatalf("move %d: in place %v, shape %v → %v", i, inPlace, before, after)
		}
	}
}

// A bucket past burstMax holds items that share their next digit: a move
// that keeps the digit stays in place; one that changes it is a removal and
// an insert, and the insert bursts the bucket.
func TestMoveCapPastBurstMax(t *testing.T) {
	p := newDiffPair(4, 6)
	const n = burstMax + 10
	for id := 0; id < n; id++ {
		c := mk(1, byte(id%6), byte(id/6%6), 0)
		if err := p.flat.InsertCap(c, id, 2); err != nil {
			t.Fatal(err)
		}
		p.ref.InsertCap(c, id, 2)
	}
	if got := liveShape(p.flat); got[0] != 0 || got[1] != 1 {
		t.Fatalf("%d items sharing a first digit are %v nodes/buckets/chunks, want one bucket", n, got)
	}
	inPlace, before, after := moveCase(t, p, 4, mk(1, 5, 5, 5), 3)
	if !inPlace || before != after {
		t.Fatalf("a move keeping the shared digit: in place %v, shape %v → %v", inPlace, before, after)
	}
	// The burst cascades: under the shared digit the items differ at once.
	inPlace, _, after = moveCase(t, p, 5, mk(2, 0, 0, 0), 1)
	if inPlace || after[0] != 2 || after[1] != 7 {
		t.Fatalf("a move changing the shared digit: in place %v, shape %v, want a burst into two nodes over seven buckets", inPlace, after)
	}
	// Back under the bursted node: each child is a small bucket again.
	if inPlace, _, _ = moveCase(t, p, 5, mk(2, 3, 0, 0), 0); !inPlace {
		t.Fatal("a move within the newcomer's bucket left its slot")
	}
}

// A bucket hanging at leaf depth holds one leaf: only a move to the same leaf
// (a fresh report that lands where the last one did) stays in it.
func TestMoveCapLeafDepthBucket(t *testing.T) {
	p := newDiffPair(4, 6)
	leaf := mk(1, 2, 3, 4)
	id := 0
	add := func(c Code) {
		t.Helper()
		if err := p.flat.InsertCap(c, id, 3); err != nil {
			t.Fatal(err)
		}
		p.ref.InsertCap(c, id, 3)
		id++
	}
	for id < burstMax+1 {
		add(leaf)
	}
	// One neighbour at every depth bursts the leaf's bucket down to the leaf.
	for _, c := range []Code{mk(0, 0, 0, 0), mk(1, 0, 0, 0), mk(1, 2, 0, 0), mk(1, 2, 3, 0)} {
		add(c)
	}
	if path, _, _, _ := p.flat.find(leaf, 0); len(path) != 4 {
		t.Fatalf("the leaf's bucket hangs at depth %d, want 4", len(path))
	}
	if inPlace, before, after := moveCase(t, p, 3, leaf, 2); !inPlace || before != after {
		t.Fatalf("a same-leaf move: in place %v, shape %v → %v", inPlace, before, after)
	}
	if inPlace, _, _ := moveCase(t, p, 4, mk(1, 2, 3, 5), 0); inPlace {
		t.Fatal("a move to a sibling leaf stayed in the leaf's bucket")
	}
}

// A refused move changes nothing: not Len, not Units, not the item's slot,
// code or units — and a refusal leaves the index serving as before.
func TestMoveCapRefusals(t *testing.T) {
	x := NewLeafIndexDegree(4, 6)
	leaf, far := mk(1, 2, 3, 4), mk(5, 0, 0, 0)
	if err := x.InsertCap(leaf, 4, math.MaxInt32-1); err != nil {
		t.Fatal(err)
	}
	for id := 5; id < 105; id++ { // past burstMax: a bucket for each first digit
		if err := x.InsertCap(mk(byte(id%6), 1, 1, 1), id, 2); err != nil {
			t.Fatal(err)
		}
	}
	unchanged := func(what string) {
		t.Helper()
		if x.Len() != 101 || x.Units() != math.MaxInt32-1+100*2 {
			t.Fatalf("%s: Len %d Units %d", what, x.Len(), x.Units())
		}
		if s := slotOf(x, leaf, 4); s < 0 || x.itemCap(s) != math.MaxInt32-1 {
			t.Fatalf("%s: item 4 is not on its leaf with its units", what)
		}
		checkShape(t, x)
	}
	for _, tc := range []struct {
		what     string
		from, to Code
		id       int
		extra    int
		want     error
	}{
		{"units past MaxInt32 in place", leaf, leaf, 4, 2, ErrUnitsOverflow},
		{"units past MaxInt32 far", leaf, far, 4, math.MaxInt32, ErrUnitsOverflow},
		{"a missing item", leaf, far, 5, 0, ErrNoItem},
		{"a wrong from", far, leaf, 4, 0, ErrNoItem},
		{"a digit past the degree", leaf, mk(1, 2, 3, 6), 4, 0, nil},
		{"a short code", leaf, mk(1, 2, 3), 4, 0, nil},
		{"negative extra", leaf, far, 4, -1, nil},
	} {
		units, err := x.MoveCap(tc.from, tc.to, tc.id, tc.extra)
		if err == nil || units != 0 || tc.want != nil && err != tc.want {
			t.Fatalf("%s: (%d, %v), want a refusal %v", tc.what, units, err, tc.want)
		}
		unchanged(tc.what)
	}
	// At the arena ceiling a move that must leave its bucket is refused like
	// an insert; one that stays in place needs no room and goes through.
	_, _, chunks := x.ArenaLens()
	withArenaCap(t, int64(chunks)*chunkLen)
	if units, err := x.MoveCap(leaf, far, 4, 0); !errors.Is(err, ErrIndexFull) || units != 0 {
		t.Fatalf("a far move at the ceiling: (%d, %v), want ErrIndexFull", units, err)
	}
	unchanged("a far move at the ceiling")
	if units, err := x.MoveCap(leaf, mk(1, 2, 3, 5), 4, 1); err != nil || units != math.MaxInt32-1 {
		t.Fatalf("an in-place move at the ceiling: (%d, %v)", units, err)
	}
	if id, lvl, ok := x.Nearest(mk(1, 2, 3, 5)); !ok || id != 4 || lvl != 0 || x.Units() != math.MaxInt32+100*2 {
		t.Fatalf("after the in-place move Nearest = (%d,%d,%v), Units %d", id, lvl, ok, x.Units())
	}
	checkShape(t, x)
}

// A steady-state move — a worker re-reporting near its last leaf or far from
// it, in place or by removal and insert — allocates nothing.
func TestMoveCapZeroAllocSteadyState(t *testing.T) {
	x, codes := allocFixture(t, 8, 6, 512)
	// Each item alternates between its code and an other: the last digit
	// redrawn for even ids (in place), a far code for odd ones.
	other := make([]Code, len(codes))
	for i, c := range codes {
		b := []byte(c)
		if i%2 == 0 {
			b[7] = (b[7] + 1) % 6
		} else {
			b = []byte(codes[(i*37+11)%len(codes)])
		}
		other[i] = Code(b)
	}
	at := append([]Code(nil), codes...)
	i := 0
	move := func() {
		id := i % len(codes)
		i++
		to := other[id]
		if at[id] == other[id] {
			to = codes[id]
		}
		if _, err := x.MoveCap(at[id], to, id, 0); err != nil {
			t.Fatal(err)
		}
		at[id] = to
	}
	for range 2 * len(codes) { // warm the freelists through two full rounds
		move()
	}
	if allocs := testing.AllocsPerRun(1000, move); allocs != 0 {
		t.Errorf("MoveCap steady state allocates %.1f/op, want 0", allocs)
	}
	checkShape(t, x)
}
