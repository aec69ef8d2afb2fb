package hst

import (
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

func mkCode(digits ...byte) Code { return Code(digits) }

func TestLeafIndexBasics(t *testing.T) {
	x := NewLeafIndex(3)
	if x.Len() != 0 {
		t.Fatalf("Len = %d", x.Len())
	}
	if _, _, ok := x.Nearest(mkCode(0, 0, 0)); ok {
		t.Error("Nearest on empty index returned ok")
	}
	if err := x.Insert(mkCode(0, 1), 7); err == nil {
		t.Error("short code accepted")
	}
	if err := x.Insert(mkCode(0, 1, 2), 7); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d", x.Len())
	}
	id, lvl, ok := x.Nearest(mkCode(0, 1, 2))
	if !ok || id != 7 || lvl != 0 {
		t.Errorf("exact Nearest = (%d,%d,%v)", id, lvl, ok)
	}
	// Diverge at the last digit: LCA level 1.
	_, lvl, _ = x.Nearest(mkCode(0, 1, 0))
	if lvl != 1 {
		t.Errorf("lvl = %d, want 1", lvl)
	}
	// Diverge at the first digit: LCA level 3.
	_, lvl, _ = x.Nearest(mkCode(2, 1, 2))
	if lvl != 3 {
		t.Errorf("lvl = %d, want 3", lvl)
	}
}

func TestLeafIndexRemove(t *testing.T) {
	x := NewLeafIndex(2)
	x.Insert(mkCode(0, 0), 1)
	x.Insert(mkCode(0, 0), 2) // same leaf, second item
	x.Insert(mkCode(1, 1), 3)
	if !x.Remove(mkCode(0, 0), 1) {
		t.Error("Remove existing failed")
	}
	if x.Remove(mkCode(0, 0), 1) {
		t.Error("Remove twice succeeded")
	}
	if x.Remove(mkCode(0, 1), 2) {
		t.Error("Remove at wrong code succeeded")
	}
	if x.Len() != 2 {
		t.Errorf("Len = %d", x.Len())
	}
	id, lvl, ok := x.Nearest(mkCode(0, 0))
	if !ok || id != 2 || lvl != 0 {
		t.Errorf("Nearest after removal = (%d,%d,%v)", id, lvl, ok)
	}
	x.Remove(mkCode(0, 0), 2)
	id, lvl, ok = x.Nearest(mkCode(0, 0))
	if !ok || id != 3 || lvl != 2 {
		t.Errorf("Nearest after clearing leaf = (%d,%d,%v)", id, lvl, ok)
	}
}

func TestLeafIndexNearestMatchesBruteForce(t *testing.T) {
	// The trie must return an item at the minimal LCA level; compare the
	// level (not the id: ties are arbitrary) with a linear scan.
	src := rng.New(42)
	const depth = 6
	const degree = 4
	randCode := func(s *rng.Source) Code {
		b := make([]byte, depth)
		for i := range b {
			b[i] = byte(s.Intn(degree))
		}
		return Code(b)
	}
	for trial := 0; trial < 30; trial++ {
		s := src.DeriveN("trial", trial)
		x := NewLeafIndex(depth)
		type item struct {
			code Code
			id   int
		}
		var items []item
		n := 1 + s.Intn(200)
		for i := 0; i < n; i++ {
			c := randCode(s)
			items = append(items, item{c, i})
			x.Insert(c, i)
		}
		lca := func(a, b Code) int {
			for j := 0; j < depth; j++ {
				if a[j] != b[j] {
					return depth - j
				}
			}
			return 0
		}
		for q := 0; q < 100; q++ {
			query := randCode(s)
			id, lvl, ok := x.Nearest(query)
			if !ok {
				t.Fatal("Nearest returned !ok on non-empty index")
			}
			best := depth + 1
			bestID := -1
			for _, it := range items {
				l := lca(query, it.code)
				if l < best || (l == best && it.id < bestID) {
					best = l
					bestID = it.id
				}
			}
			if lvl != best {
				t.Fatalf("trial %d: Nearest level %d, brute %d", trial, lvl, best)
			}
			// Ties resolve deterministically to the lowest id.
			if id != bestID {
				t.Fatalf("returned id %d, brute lowest-id %d at level %d", id, bestID, lvl)
			}
		}
	}
}

func TestLeafIndexPopNearestMatchesNearest(t *testing.T) {
	// PopNearest must return exactly what Nearest would, and remove it.
	src := rng.New(99)
	const depth = 6
	const degree = 4
	randCode := func(s *rng.Source) Code {
		b := make([]byte, depth)
		for i := range b {
			b[i] = byte(s.Intn(degree))
		}
		return Code(b)
	}
	for trial := 0; trial < 20; trial++ {
		s := src.DeriveN("trial", trial)
		x := NewLeafIndex(depth)
		y := NewLeafIndex(depth)
		codes := map[int]Code{}
		n := 1 + s.Intn(150)
		for i := 0; i < n; i++ {
			c := randCode(s)
			codes[i] = c
			x.Insert(c, i)
			y.Insert(c, i)
		}
		for x.Len() > 0 {
			query := randCode(s)
			wantID, wantLvl, _ := y.Nearest(query)
			id, lvl, ok := x.PopNearest(query)
			if !ok || id != wantID || lvl != wantLvl {
				t.Fatalf("trial %d: PopNearest = (%d,%d,%v), Nearest = (%d,%d)",
					trial, id, lvl, ok, wantID, wantLvl)
			}
			if !y.Remove(codes[id], id) {
				t.Fatalf("trial %d: mirror removal of %d failed", trial, id)
			}
			if x.Len() != y.Len() {
				t.Fatalf("trial %d: Len diverged %d vs %d", trial, x.Len(), y.Len())
			}
		}
		if _, _, ok := x.PopNearest(randCode(s)); ok {
			t.Fatal("PopNearest on empty index returned ok")
		}
	}
}

func TestLeafIndexPopNearestWithin(t *testing.T) {
	x := NewLeafIndex(3)
	x.Insert(mkCode(2, 1, 0), 5)
	// The only item is at LCA level 3 from this query; a cap of 2 must
	// refuse to pop but still report the level.
	if id, lvl, ok := x.PopNearestWithin(mkCode(0, 1, 0), 2); ok {
		t.Errorf("capped pop succeeded: (%d,%d)", id, lvl)
	} else if lvl != 3 {
		t.Errorf("capped pop reported level %d, want 3", lvl)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d after refused pop", x.Len())
	}
	if id, lvl, ok := x.PopNearestWithin(mkCode(2, 1, 1), 1); !ok || id != 5 || lvl != 1 {
		t.Errorf("pop within cap = (%d,%d,%v)", id, lvl, ok)
	}
	if x.Len() != 0 {
		t.Fatalf("Len = %d after pop", x.Len())
	}
}

// From a leaf under no item's first digit every item sits at the root level:
// Nearest answers the smallest id there, a pop within one level less takes
// nothing, and pops within the depth drain the index in id order.
func TestLeafIndexRootLevelPopsInIDOrder(t *testing.T) {
	x := NewLeafIndex(2)
	q := mkCode(2, 0)
	if _, _, ok := x.Nearest(q); ok {
		t.Error("Nearest on empty index returned ok")
	}
	if _, _, ok := x.PopNearestWithin(q, 2); ok {
		t.Error("PopNearestWithin on empty index returned ok")
	}
	x.Insert(mkCode(1, 1), 9)
	x.Insert(mkCode(0, 0), 4)
	x.Insert(mkCode(0, 1), 6)
	if id, lvl, ok := x.Nearest(q); !ok || id != 4 || lvl != 2 {
		t.Errorf("Nearest = (%d,%d,%v), want (4,2,true)", id, lvl, ok)
	}
	if _, lvl, ok := x.PopNearestWithin(q, 1); ok || lvl != 2 || x.Len() != 3 {
		t.Errorf("PopNearestWithin(q, 1) = (_,%d,%v) with %d left, want a refusal at level 2 and 3 left", lvl, ok, x.Len())
	}
	for _, want := range []int{4, 6, 9} {
		id, lvl, ok := x.PopNearestWithin(q, 2)
		if !ok || id != want || lvl != 2 {
			t.Fatalf("PopNearestWithin(q, 2) = (%d,%d,%v), want (%d,2,true)", id, lvl, ok, want)
		}
	}
	if x.Len() != 0 {
		t.Errorf("Len = %d after draining", x.Len())
	}
}

func TestLeafIndexCountPrefix(t *testing.T) {
	x := NewLeafIndex(3)
	x.Insert(mkCode(0, 1, 2), 1)
	x.Insert(mkCode(0, 1, 1), 2)
	x.Insert(mkCode(0, 2, 0), 3)
	x.Insert(mkCode(1, 0, 0), 4)
	cases := []struct {
		prefix Code
		want   int
	}{
		{Code(""), 4},
		{mkCode(0), 3},
		{mkCode(0, 1), 2},
		{mkCode(0, 1, 2), 1},
		{mkCode(1), 1},
		{mkCode(2), 0},
		{mkCode(0, 1, 2, 0), 0}, // longer than depth
	}
	for _, c := range cases {
		if got := x.CountPrefix(c.prefix); got != c.want {
			t.Errorf("CountPrefix(%v) = %d, want %d", []byte(c.prefix), got, c.want)
		}
	}
	x.Remove(mkCode(0, 1, 1), 2)
	if got := x.CountPrefix(mkCode(0, 1)); got != 1 {
		t.Errorf("CountPrefix after removal = %d, want 1", got)
	}
}

func TestLeafIndexInterleavedInsertRemove(t *testing.T) {
	src := rng.New(17)
	const depth = 5
	x := NewLeafIndex(depth)
	live := map[int]Code{}
	nextID := 0
	randCode := func() Code {
		b := make([]byte, depth)
		for i := range b {
			b[i] = byte(src.Intn(3))
		}
		return Code(b)
	}
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || src.Float64() < 0.55 {
			c := randCode()
			x.Insert(c, nextID)
			live[nextID] = c
			nextID++
		} else {
			// Remove an arbitrary live item.
			for id, c := range live {
				if !x.Remove(c, id) {
					t.Fatalf("failed to remove live item %d", id)
				}
				delete(live, id)
				break
			}
		}
		if x.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", x.Len(), len(live))
		}
	}
	// Every remaining item is reachable via Walk.
	found := map[int]Code{}
	x.Walk(func(c Code, id int) { found[id] = c })
	if len(found) != len(live) {
		t.Fatalf("Walk found %d items, want %d", len(found), len(live))
	}
	for id, c := range live {
		if found[id] != c {
			t.Fatalf("item %d at %v, want %v", id, found[id], c)
		}
	}
}
