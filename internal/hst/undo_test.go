package hst

import (
	"sort"
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

// snapshot flattens an index into a sorted (code, id, cap) list for
// whole-state equality checks.
func snapshot(x *LeafIndex) []struct {
	code string
	id   int
	cap  int
} {
	var out []struct {
		code string
		id   int
		cap  int
	}
	x.WalkCap(func(code Code, id, capacity int) {
		out = append(out, struct {
			code string
			id   int
			cap  int
		}{string(code), id, capacity})
	})
	sort.Slice(out, func(a, b int) bool {
		if out[a].id != out[b].id {
			return out[a].id < out[b].id
		}
		return out[a].code < out[b].code
	})
	return out
}

func sameSnapshot(t *testing.T, step int, a, b *LeafIndex) {
	t.Helper()
	sa, sb := snapshot(a), snapshot(b)
	if len(sa) != len(sb) {
		t.Fatalf("step %d: %d items ≠ %d items", step, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("step %d: item %d: %+v ≠ %+v", step, i, sa[i], sb[i])
		}
	}
}

// TestPopNearestWithinCodeMatchesPop drives PopNearestWithinCode and
// PopNearestWithin over mirrored indexes with one randomized tape: every
// return value must agree, and the code written into dst must be a real
// leaf of the popped item — proven by using it to undo the pop
// (AddCap/InsertCap) and checking the whole index state round-trips.
func TestPopNearestWithinCodeMatchesPop(t *testing.T) {
	for _, degree := range []int{4, 0} { // dense and sparse layouts
		const depth = 5
		src := rng.New(uint64(71 + degree))
		a := NewLeafIndexDegree(depth, degree)
		b := NewLeafIndexDegree(depth, degree)
		randCode := func() Code {
			buf := make([]byte, depth)
			for i := range buf {
				buf[i] = byte(src.Intn(4))
			}
			return Code(buf)
		}
		nextID := 0
		dst := make([]byte, depth)
		for step := 0; step < 800; step++ {
			switch op := src.Intn(10); {
			case op < 4:
				c := randCode()
				capacity := 1 + src.Intn(2)
				if err := a.InsertCap(c, nextID, capacity); err != nil {
					t.Fatal(err)
				}
				if err := b.InsertCap(c, nextID, capacity); err != nil {
					t.Fatal(err)
				}
				nextID++
			case op < 8: // pop, and verify dst against the reference pop
				q := randCode()
				max := src.Intn(depth + 1)
				id, lvl, ok := a.PopNearestWithinCode(q, max, dst)
				wid, wlvl, wok := b.PopNearestWithin(q, max)
				if id != wid || lvl != wlvl || ok != wok {
					t.Fatalf("step %d: PopNearestWithinCode (%d,%d,%v) ≠ PopNearestWithin (%d,%d,%v)",
						step, id, lvl, ok, wid, wlvl, wok)
				}
				if !ok {
					continue
				}
				// The recorded code must address the popped item exactly:
				// returning the unit through it must round-trip the state.
				if a.AddCap(Code(dst), id, 1) != nil {
					if err := a.InsertCap(Code(dst), id, 1); err != nil {
						t.Fatalf("step %d: undo insert: %v", step, err)
					}
				}
				if b.AddCap(Code(dst), id, 1) != nil {
					if err := b.InsertCap(Code(dst), id, 1); err != nil {
						t.Fatalf("step %d: reference undo: %v", step, err)
					}
				}
				// Redo on both so the tape keeps making progress.
				a.PopNearestWithinCode(q, max, dst)
				b.PopNearestWithin(q, max)
			default: // withdraw someone so freelists churn
				if a.Len() == 0 {
					continue
				}
				id, _ := a.MinID()
				var code Code
				a.Walk(func(c Code, i int) {
					if i == id && code == "" {
						code = c
					}
				})
				a.Remove(code, id)
				b.Remove(code, id)
			}
			checkShape(t, a)
			checkShape(t, b)
			if step%50 == 0 {
				sameSnapshot(t, step, a, b)
			}
		}
		sameSnapshot(t, -1, a, b)
	}
}

// TestPopNearestWithinCodeUndoRestoresState: a burst of speculative pops
// undone in reverse order must restore the exact index state — the
// invariant the shard-parallel batch path's rewind leans on.
func TestPopNearestWithinCodeUndoRestoresState(t *testing.T) {
	const depth, degree = 4, 4
	src := rng.New(99)
	x := NewLeafIndexDegree(depth, degree)
	ref := NewLeafIndexDegree(depth, degree)
	for id := 0; id < 60; id++ {
		buf := make([]byte, depth)
		for i := range buf {
			buf[i] = byte(src.Intn(degree))
		}
		capacity := 1 + id%2
		if err := x.InsertCap(Code(buf), id, capacity); err != nil {
			t.Fatal(err)
		}
		if err := ref.InsertCap(Code(buf), id, capacity); err != nil {
			t.Fatal(err)
		}
	}
	type undo struct {
		code []byte
		id   int
	}
	var log []undo
	dst := make([]byte, depth)
	for i := 0; i < 25; i++ {
		q := make([]byte, depth)
		for j := range q {
			q[j] = byte(src.Intn(degree))
		}
		if id, _, ok := x.PopNearestWithinCode(Code(q), depth, dst); ok {
			log = append(log, undo{code: append([]byte(nil), dst...), id: id})
		}
		checkShape(t, x)
	}
	if len(log) == 0 {
		t.Fatal("no pops recorded")
	}
	for i := len(log) - 1; i >= 0; i-- {
		u := log[i]
		if x.AddCap(Code(u.code), u.id, 1) != nil {
			if err := x.InsertCap(Code(u.code), u.id, 1); err != nil {
				t.Fatalf("undo %d: %v", i, err)
			}
		}
		checkShape(t, x)
	}
	sameSnapshot(t, -1, x, ref)
}

// TestResolveRefRoundTrip pins the ref → code resolver: every mined ref
// resolves to the candidate the reference holds (leaf code included), and
// committing through the resolved code on a mirror index leaves it in
// exactly the state ConsumeRef leaves the original.
func TestResolveRefRoundTrip(t *testing.T) {
	for li, l := range refLayouts {
		src := rng.New(uint64(77 + li))
		a := NewLeafIndexDegree(l.depth, l.degree)
		b := NewLeafIndexDegree(l.depth, l.degree)
		randCode := func() Code {
			buf := make([]byte, l.depth)
			for i := range buf {
				buf[i] = byte(src.Intn(l.digits))
			}
			return Code(buf)
		}
		for id := 0; id < 150; id++ {
			c, capacity := randCode(), 1+src.Intn(3)
			if err := a.InsertCap(c, id, capacity); err != nil {
				t.Fatal(err)
			}
			if err := b.InsertCap(c, id, capacity); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; a.Len() > 0; step++ {
			q, k := randCode(), 1+src.Intn(8)
			refs := a.NearestKRef(q, k, nil)
			want := bruteItems(a, func(c Code) int { return lcaLevel(q, c, l.depth) })
			for i, r := range refs {
				c, ok := a.ResolveRef(r)
				if !ok || c.ID != want[i].id || c.Code != want[i].code || c.Level != want[i].level || c.Cap != want[i].cap {
					t.Fatalf("%s step %d: ResolveRef(%+v) = (%+v,%v), reference %+v", l.name, step, r, c, ok, want[i])
				}
			}
			pick := refs[src.Intn(len(refs))]
			c, _ := a.ResolveRef(pick)
			if !a.ConsumeRef(pick) || !b.Consume(c.Code, c.ID) {
				t.Fatalf("%s step %d: commit of %+v failed", l.name, step, c)
			}
			checkShape(t, a)
			checkShape(t, b)
			sameSnapshot(t, step, a, b)
		}
		if _, ok := a.ResolveRef(CandidateRef{Node: int32(len(a.buckets))}); ok {
			t.Errorf("%s: ResolveRef accepted a bucket outside the arena", l.name)
		}
		if _, ok := a.ResolveRef(CandidateRef{Node: 0}); ok {
			t.Errorf("%s: ResolveRef found an item in a drained index", l.name)
		}
	}
}
