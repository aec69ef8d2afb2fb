package hst

import (
	"testing"
)

// mk builds a code from digits.
func mk(digits ...byte) Code { return Code(digits) }

func TestInsertCapPopsConsumeUnits(t *testing.T) {
	x := NewLeafIndexDegree(2, 3)
	if err := x.InsertCap(mk(0, 0), 7, 3); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(mk(1, 2), 9); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 2 || x.Units() != 4 {
		t.Fatalf("Len=%d Units=%d, want 2/4", x.Len(), x.Units())
	}
	// Three pops at the item's own leaf drain worker 7 one unit at a time.
	for i := 0; i < 3; i++ {
		id, lvl, ok := x.PopNearest(mk(0, 0))
		if !ok || id != 7 || lvl != 0 {
			t.Fatalf("pop %d = (%d,%d,%v)", i, id, lvl, ok)
		}
	}
	if x.Len() != 1 || x.Units() != 1 {
		t.Fatalf("after draining: Len=%d Units=%d, want 1/1", x.Len(), x.Units())
	}
	// The exhausted item is gone: the next pop crosses to worker 9.
	if id, lvl, ok := x.PopNearest(mk(0, 0)); !ok || id != 9 || lvl != 2 {
		t.Fatalf("cross pop = (%d,%d,%v)", id, lvl, ok)
	}
	if x.Len() != 0 || x.Units() != 0 {
		t.Fatalf("emptied: Len=%d Units=%d", x.Len(), x.Units())
	}
}

func TestInsertCapValidation(t *testing.T) {
	x := NewLeafIndexDegree(1, 2)
	if err := x.InsertCap(mk(0), 1, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := x.InsertCap(mk(0), 1, -2); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestRemoveTakesWholeItem(t *testing.T) {
	x := NewLeafIndexDegree(2, 3)
	if err := x.InsertCap(mk(1, 1), 4, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := x.PopNearest(mk(1, 1)); !ok {
		t.Fatal("pop failed")
	}
	if !x.Remove(mk(1, 1), 4) {
		t.Fatal("Remove failed")
	}
	if x.Len() != 0 || x.Units() != 0 {
		t.Fatalf("Len=%d Units=%d after Remove, want 0/0", x.Len(), x.Units())
	}
}

func TestAddCapAndConsume(t *testing.T) {
	x := NewLeafIndexDegree(2, 3)
	if err := x.InsertCap(mk(2, 0), 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := x.AddCap(mk(2, 0), 3, 2); err != nil {
		t.Fatalf("AddCap on a live item: %v", err)
	}
	if x.Units() != 3 || x.Len() != 1 {
		t.Fatalf("Units=%d Len=%d after AddCap, want 3/1", x.Units(), x.Len())
	}
	if err := x.AddCap(mk(2, 1), 3, 1); err != ErrNoItem {
		t.Errorf("AddCap at the wrong leaf: %v, want ErrNoItem", err)
	}
	if err := x.AddCap(mk(2, 0), 8, 1); err != ErrNoItem {
		t.Errorf("AddCap on an absent id: %v, want ErrNoItem", err)
	}
	if err := x.AddCap(mk(2, 0), 3, 0); err == nil || err == ErrNoItem {
		t.Errorf("AddCap with zero delta: %v, want a refusal that does not read as a missing item", err)
	}
	for i := 0; i < 3; i++ {
		if !x.Consume(mk(2, 0), 3) {
			t.Fatalf("Consume %d failed", i)
		}
	}
	if x.Consume(mk(2, 0), 3) {
		t.Error("Consume on an exhausted item succeeded")
	}
	if x.Len() != 0 || x.Units() != 0 {
		t.Fatalf("Len=%d Units=%d after draining, want 0/0", x.Len(), x.Units())
	}
}

func TestWalkCapReportsCapacity(t *testing.T) {
	x := NewLeafIndexDegree(2, 3)
	if err := x.InsertCap(mk(0, 1), 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(mk(2, 2), 2); err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	x.WalkCap(func(_ Code, id, capacity int) { got[id] = capacity })
	if got[1] != 2 || got[2] != 1 || len(got) != 2 {
		t.Fatalf("WalkCap = %v", got)
	}
}

// nearestK mines through the surviving entry points: NearestKRef, each ref
// resolved to its code-addressed candidate.
func nearestK(t *testing.T, x *LeafIndex, q Code, k int) []Candidate {
	t.Helper()
	var out []Candidate
	for _, r := range x.NearestKRef(q, k, nil) {
		c, ok := x.ResolveRef(r)
		if !ok {
			t.Fatalf("ResolveRef(%+v) failed on a freshly mined ref", r)
		}
		out = append(out, c)
	}
	return out
}

func TestNearestKOrderAndTruncation(t *testing.T) {
	x := NewLeafIndexDegree(3, 3)
	// Query 0,0,0. Levels: id 5 at level 0 (exact leaf), ids 2 and 7 at
	// level 1 (share first two digits), id 1 at level 3 (different root
	// branch).
	ins := []struct {
		code Code
		id   int
	}{
		{mk(0, 0, 0), 5},
		{mk(0, 0, 1), 7},
		{mk(0, 0, 2), 2},
		{mk(1, 2, 0), 1},
	}
	for _, in := range ins {
		if err := x.Insert(in.code, in.id); err != nil {
			t.Fatal(err)
		}
	}
	all := nearestK(t, x, mk(0, 0, 0), 10)
	want := []Candidate{
		{ID: 5, Code: mk(0, 0, 0), Level: 0, Cap: 1},
		{ID: 2, Code: mk(0, 0, 2), Level: 1, Cap: 1},
		{ID: 7, Code: mk(0, 0, 1), Level: 1, Cap: 1},
		{ID: 1, Code: mk(1, 2, 0), Level: 3, Cap: 1},
	}
	if len(all) != len(want) {
		t.Fatalf("NearestK = %+v, want %+v", all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("NearestK[%d] = %+v, want %+v", i, all[i], want[i])
		}
	}
	// Truncation keeps the nearest k, smallest ids first within a level.
	top2 := nearestK(t, x, mk(0, 0, 0), 2)
	if len(top2) != 2 || top2[0].ID != 5 || top2[1].ID != 2 {
		t.Fatalf("NearestK(2) = %+v", top2)
	}
	// Non-destructive: everything still present.
	if x.Len() != 4 {
		t.Fatalf("Len = %d after NearestK, want 4", x.Len())
	}
	// Appends to the caller's slice.
	out := make([]CandidateRef, 1, 8)
	out[0] = CandidateRef{ID: -1}
	got := x.NearestKRef(mk(0, 0, 0), 1, out)
	if len(got) != 2 || got[0].ID != -1 || got[1].ID != 5 {
		t.Fatalf("NearestKRef(append) = %+v", got)
	}
}

// TestRemoveUnitsReportsRemainingCapacity pins the relocation contract.
func TestRemoveUnitsReportsRemainingCapacity(t *testing.T) {
	x := NewLeafIndexDegree(2, 3)
	if err := x.InsertCap(mk(1, 0), 5, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := x.PopNearest(mk(1, 0)); !ok {
		t.Fatal("pop failed")
	}
	units, ok := x.RemoveUnits(mk(1, 0), 5)
	if !ok || units != 3 {
		t.Fatalf("RemoveUnits = (%d,%v), want 3 after one pop", units, ok)
	}
	if _, ok := x.RemoveUnits(mk(1, 0), 5); ok {
		t.Error("second RemoveUnits succeeded")
	}
}

// TestNearestKMatchesSequentialPops cross-checks the non-destructive
// enumeration against the destructive pops on a random population: popping
// k times must yield exactly NearestK's ids in order.
func TestNearestKMatchesSequentialPops(t *testing.T) {
	const depth, degree = 4, 4
	x := NewLeafIndexDegree(depth, degree)
	seed := uint64(12345)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	randCode := func() Code {
		b := make([]byte, depth)
		for i := range b {
			b[i] = byte(next(degree))
		}
		return Code(b)
	}
	for id := 0; id < 200; id++ {
		if err := x.InsertCap(randCode(), id, 1+next(3)); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 50; trial++ {
		q := randCode()
		k := 1 + next(8)
		cands := nearestK(t, x, q, k)
		// The pops drain each candidate's capacity before moving on (minID
		// keeps returning the same id until its item is exhausted), so the
		// pop sequence is the candidate list with each entry repeated Cap
		// times.
		for _, c := range cands {
			for u := 0; u < c.Cap; u++ {
				id, lvl, ok := x.PopNearest(q)
				if !ok || id != c.ID || lvl != c.Level {
					t.Fatalf("trial %d: pop unit %d of %+v = (%d,%d,%v)",
						trial, u, c, id, lvl, ok)
				}
			}
		}
		// Restore what the pops consumed so trials stay independent.
		for _, c := range cands {
			if err := x.InsertCap(c.Code, c.ID, c.Cap); err != nil {
				t.Fatal(err)
			}
		}
	}
}
