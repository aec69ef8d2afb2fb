package hst

import (
	"sort"
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

// The ref enumerators (NearestKRef, SmallestKRef) are the production
// candidate miner and the only enumerators the index has, so they are
// refereed directly: against a brute-force reference rebuilt from WalkCap
// on every query — each live item's LCA level with the query, sorted by
// (level, id, leaf code), truncated to k. Ids are unique on these tapes, as
// in every engine population; TestDuplicateIDsMineInLeafOrder holds the
// third key.

// refLayouts are the index shapes the differential covers: a narrow degree
// (two bits a digit, the root a bucket until it bursts), an unknown one
// (256-slot blocks, digits up to 40) and a depth-0 tree whose root is its
// only leaf.
var refLayouts = []struct {
	name                  string
	depth, degree, digits int
}{
	{"dense", 4, 3, 3},
	{"sparse", 3, 0, 40},
	{"depth0", 0, 0, 1},
}

type refItem struct {
	code           Code
	id, level, cap int
}

// bruteItems lists the live population in (level, id) order, each item
// stamped with the level the given rule assigns its leaf.
func bruteItems(x *LeafIndex, level func(Code) int) []refItem {
	var all []refItem
	x.WalkCap(func(code Code, id, capacity int) {
		all = append(all, refItem{code: code, id: id, level: level(code), cap: capacity})
	})
	sort.Slice(all, func(a, b int) bool {
		if all[a].level != all[b].level {
			return all[a].level < all[b].level
		}
		if all[a].id != all[b].id {
			return all[a].id < all[b].id
		}
		return all[a].code < all[b].code
	})
	return all
}

func checkRefs(t *testing.T, what string, got []CandidateRef, want []refItem, k int) {
	t.Helper()
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d refs, reference has %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if int(g.ID) != w.id || int(g.Level) != w.level || int(g.Cap) != w.cap {
			t.Fatalf("%s[%d] = %+v, reference %+v", what, i, g, w)
		}
	}
}

// refTape replays one op tape — capacitated inserts, whole-item removals,
// unit pops, and mining queries checked against the reference — over the
// layout the first argument selects.
func refTape(t *testing.T, layout uint8, tape []byte) {
	l := refLayouts[int(layout)%len(refLayouts)]
	x := NewLeafIndexDegree(l.depth, l.degree)
	type live struct {
		code Code
		id   int
	}
	var pool []live
	nextID := 0
	stride := l.depth + 2
	for pos := 0; pos+stride <= len(tape); pos += stride {
		op, arg := tape[pos], int(tape[pos+1])
		buf := make([]byte, l.depth)
		for i := range buf {
			buf[i] = tape[pos+2+i] % byte(l.digits)
		}
		code := Code(buf)
		switch op % 8 {
		case 0, 1, 2: // insert, capacity 1..3
			if err := x.InsertCap(code, nextID, 1+arg%3); err != nil {
				t.Fatalf("insert: %v", err)
			}
			pool = append(pool, live{code, nextID})
			nextID++
		case 3: // withdraw a live item whole
			if len(pool) > 0 {
				j := arg % len(pool)
				x.Remove(pool[j].code, pool[j].id) // false when pops already consumed it away
				pool = append(pool[:j], pool[j+1:]...)
			}
		case 4: // consume one unit of the nearest item
			x.PopNearest(code)
		default: // mine
			k := 1 + arg%9
			checkRefs(t, "NearestKRef", x.NearestKRef(code, k, nil),
				bruteItems(x, func(c Code) int { return lcaLevel(code, c, l.depth) }), k)
			checkRefs(t, "SmallestKRef", x.SmallestKRef(k, l.depth, nil),
				bruteItems(x, func(Code) int { return l.depth }), k)
		}
	}
}

// FuzzRefEnumeration runs refTape on fuzzer-chosen tapes; its seed corpus
// (one long generated tape per layout) is the differential `go test` runs.
func FuzzRefEnumeration(f *testing.F) {
	for layout := range refLayouts {
		src := rng.New(uint64(4100 + layout))
		tape := make([]byte, 6*700)
		for i := range tape {
			tape[i] = byte(src.Intn(256))
		}
		f.Add(uint8(layout), tape)
	}
	f.Add(uint8(0), []byte{})
	// Both thresholds crossed both ways, then one leaf past burstMax, with a
	// mine after every tenth record (refTape reads six bytes a record).
	var tape []byte
	for i, rec := 0, thresholdTape(3, 0, 3); i+5 <= len(rec); i += 5 {
		tape = append(tape, rec[i], byte(i), rec[i+1], rec[i+2], rec[i+3], rec[i+4])
		if i%50 == 0 {
			tape = append(tape, 5, byte(i/5), rec[i+1], rec[i+2], rec[i+3], rec[i+4])
		}
	}
	f.Add(uint8(0), tape)
	f.Fuzz(refTape)
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
