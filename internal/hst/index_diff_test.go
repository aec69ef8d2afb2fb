package hst

import (
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

// The burst trie must be answer-for-answer identical to the original map
// trie on every operation. These tests drive both with the same randomized
// operation tapes — narrow and wide degrees, populations that cross burstMax
// and foldMin both ways — and compare every return value.

// capRef lifts the capacity-1 map reference to capacitated items: the map
// trie holds one entry per live item, a side table its remaining units, and
// a pop takes the entry out only with the item's last unit. Ids are unique,
// which every tape here guarantees.
type capRef struct {
	*mapLeafIndex
	units map[int]int
	codes map[int]Code
	total int
}

func newCapRef(depth int) *capRef {
	return &capRef{mapLeafIndex: newMapLeafIndex(depth), units: map[int]int{}, codes: map[int]Code{}}
}

func (r *capRef) InsertCap(code Code, id, capacity int) error {
	if err := r.mapLeafIndex.Insert(code, id); err != nil {
		return err
	}
	r.units[id], r.codes[id] = capacity, code
	r.total += capacity
	return nil
}

// take consumes one unit of a live item, removing it with its last.
func (r *capRef) take(id int) {
	r.total--
	if r.units[id]--; r.units[id] == 0 {
		r.mapLeafIndex.Remove(r.codes[id], id)
		delete(r.units, id)
		delete(r.codes, id)
	}
}

func (r *capRef) PopNearest(code Code) (int, int, bool) {
	return r.PopNearestWithin(code, r.depth)
}

func (r *capRef) PopNearestWithin(code Code, maxLevel int) (int, int, bool) {
	id, lvl, ok := r.Nearest(code)
	if !ok || lvl > maxLevel {
		return 0, lvl, false
	}
	r.take(id)
	return id, lvl, true
}

func (r *capRef) PopMin() (int, bool) {
	id, ok := r.MinID()
	if ok {
		r.take(id)
	}
	return id, ok
}

func (r *capRef) has(code Code, id int) bool {
	c, ok := r.codes[id]
	return ok && c == code
}

func (r *capRef) Consume(code Code, id int) bool {
	if !r.has(code, id) {
		return false
	}
	r.take(id)
	return true
}

func (r *capRef) AddCap(code Code, id, delta int) bool {
	if !r.has(code, id) || delta < 1 {
		return false
	}
	r.units[id] += delta
	r.total += delta
	return true
}

func (r *capRef) RemoveUnits(code Code, id int) (int, bool) {
	if !r.has(code, id) {
		return 0, false
	}
	u := r.units[id]
	r.mapLeafIndex.Remove(code, id)
	delete(r.units, id)
	delete(r.codes, id)
	r.total -= u
	return u, true
}

func (r *capRef) Remove(code Code, id int) bool {
	_, ok := r.RemoveUnits(code, id)
	return ok
}

// diffPair couples a flat index with the map reference.
type diffPair struct {
	flat *LeafIndex
	ref  *capRef
}

func newDiffPair(depth, degree int) *diffPair {
	return &diffPair{flat: NewLeafIndexDegree(depth, degree), ref: newCapRef(depth)}
}

func (p *diffPair) check(t *testing.T, step int) {
	t.Helper()
	if p.flat.Len() != p.ref.Len() {
		t.Fatalf("step %d: Len %d ≠ %d", step, p.flat.Len(), p.ref.Len())
	}
	if p.flat.Units() != p.ref.total {
		t.Fatalf("step %d: Units %d ≠ %d", step, p.flat.Units(), p.ref.total)
	}
	fm, fok := p.flat.MinID()
	rm, rok := p.ref.MinID()
	if fok != rok || (fok && fm != rm) {
		t.Fatalf("step %d: MinID (%d,%v) ≠ (%d,%v)", step, fm, fok, rm, rok)
	}
	checkShape(t, p.flat)
}

// driveDifferential runs a randomized Insert/Remove/PopNearest/PopMin/
// Nearest/CountPrefix tape over both implementations. maxCap 1 is the
// capacity-1 tape (the capacity slab must never appear); above 1, inserts
// carry 1..maxCap units and the tape adds AddCap, Consume, RemoveUnits and
// mid-tape Reserve calls, so freed slots are reused by tenants of every
// capacity on both sides of a slab regrowth.
func driveDifferential(t *testing.T, depth, degree int, steps int, seed uint64, maxCap int) {
	t.Helper()
	src := rng.New(seed)
	p := newDiffPair(depth, degree)
	live := map[int]Code{}
	nextID := 0
	ops := 10
	if maxCap > 1 {
		ops = 15
	}
	randCode := func() Code {
		b := make([]byte, depth)
		for i := range b {
			b[i] = byte(src.Intn(degree))
		}
		return Code(b)
	}
	// anyLive picks a live item, or — one time in ten, and always on an
	// empty pool — a (code, id) pair that is not there.
	anyLive := func() (Code, int) {
		if len(live) > 0 && src.Float64() >= 0.1 {
			for id, c := range live {
				return c, id
			}
		}
		return randCode(), nextID + 1000
	}
	for step := 0; step < steps; step++ {
		switch op := src.Intn(ops); {
		case op < 4: // insert
			c := randCode()
			units := 1 + src.Intn(maxCap)
			errF := p.flat.InsertCap(c, nextID, units)
			errR := p.ref.InsertCap(c, nextID, units)
			if (errF == nil) != (errR == nil) {
				t.Fatalf("step %d: Insert err %v ≠ %v", step, errF, errR)
			}
			live[nextID] = c
			nextID++
		case op < 6: // remove an arbitrary live item (or a missing one)
			if len(live) == 0 || src.Float64() < 0.1 {
				c := randCode()
				if gf, gr := p.flat.Remove(c, nextID+1000), p.ref.Remove(c, nextID+1000); gf != gr {
					t.Fatalf("step %d: Remove(missing) %v ≠ %v", step, gf, gr)
				}
				break
			}
			for id, c := range live {
				if gf, gr := p.flat.Remove(c, id), p.ref.Remove(c, id); gf != gr {
					t.Fatalf("step %d: Remove(%d) %v ≠ %v", step, id, gf, gr)
				}
				delete(live, id)
				break
			}
		case op < 8: // pop nearest (optionally level-capped)
			q := randCode()
			max := depth
			if src.Float64() < 0.5 {
				max = src.Intn(depth + 1)
			}
			fid, flvl, fok := p.flat.PopNearestWithin(q, max)
			rid, rlvl, rok := p.ref.PopNearestWithin(q, max)
			if fid != rid || flvl != rlvl || fok != rok {
				t.Fatalf("step %d: PopNearestWithin(%v,%d) = (%d,%d,%v) ≠ (%d,%d,%v)",
					step, []byte(q), max, fid, flvl, fok, rid, rlvl, rok)
			}
			if fok && !p.ref.has(live[fid], fid) {
				delete(live, fid)
			}
		case op < 9: // pop the global minimum
			fid, fok := p.flat.PopMin()
			rid, rok := p.ref.PopMin()
			if fid != rid || fok != rok {
				t.Fatalf("step %d: PopMin (%d,%v) ≠ (%d,%v)", step, fid, fok, rid, rok)
			}
			if fok && !p.ref.has(live[fid], fid) {
				delete(live, fid)
			}
		case op == 10: // hand units back to a live (or missing) item
			c, id := anyLive()
			delta := 1 + src.Intn(maxCap)
			if gf, gr := p.flat.AddCap(c, id, delta) == nil, p.ref.AddCap(c, id, delta); gf != gr {
				t.Fatalf("step %d: AddCap(%d,+%d) %v ≠ %v", step, id, delta, gf, gr)
			}
		case op == 11 || op == 12: // code-addressed single-unit commit
			c, id := anyLive()
			if gf, gr := p.flat.Consume(c, id), p.ref.Consume(c, id); gf != gr {
				t.Fatalf("step %d: Consume(%d) %v ≠ %v", step, id, gf, gr)
			}
			if !p.ref.has(c, id) {
				delete(live, id)
			}
		case op == 13: // withdrawal reporting the units it took
			c, id := anyLive()
			uf, gf := p.flat.RemoveUnits(c, id)
			ur, gr := p.ref.RemoveUnits(c, id)
			if uf != ur || gf != gr {
				t.Fatalf("step %d: RemoveUnits(%d) (%d,%v) ≠ (%d,%v)", step, id, uf, gf, ur, gr)
			}
			delete(live, id)
		case op == 14: // regrow the slabs under a population with freed slots
			n, k, i := p.flat.ArenaLens()
			p.flat.Reserve(n+src.Intn(64), k+src.Intn(64), i+src.Intn(256))
		default: // read-only probes
			q := randCode()
			fid, flvl, fok := p.flat.Nearest(q)
			rid, rlvl, rok := p.ref.Nearest(q)
			if fid != rid || flvl != rlvl || fok != rok {
				t.Fatalf("step %d: Nearest = (%d,%d,%v) ≠ (%d,%d,%v)", step, fid, flvl, fok, rid, rlvl, rok)
			}
			pl := src.Intn(depth + 1)
			if cf, cr := p.flat.CountPrefix(q[:pl]), p.ref.CountPrefix(q[:pl]); cf != cr {
				t.Fatalf("step %d: CountPrefix %d ≠ %d", step, cf, cr)
			}
		}
		p.check(t, step)
	}
	// Both must hold exactly the same (code, id, units) multiset at the end.
	type held struct {
		code  Code
		units int
	}
	gotF := map[int]held{}
	p.flat.WalkCap(func(c Code, id, units int) { gotF[id] = held{c, units} })
	gotR := map[int]held{}
	p.ref.Walk(func(c Code, id int) { gotR[id] = held{c, p.ref.units[id]} })
	if len(gotF) != len(gotR) {
		t.Fatalf("Walk: %d items ≠ %d", len(gotF), len(gotR))
	}
	for id, h := range gotR {
		if gotF[id] != h {
			t.Fatalf("Walk: item %d is %v ≠ %v", id, gotF[id], h)
		}
	}
	if maxCap == 1 && p.flat.caps != nil {
		t.Fatal("a capacity-1 tape allocated the capacity slab")
	}
}

func TestLeafIndexDifferentialDense(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		driveDifferential(t, 6, 4, 4000, uint64(1000+trial), 1)
	}
}

func TestLeafIndexDifferentialSparse(t *testing.T) {
	// A wide degree: six bits a digit, 40-slot child blocks, and a population
	// thin enough that most buckets hold one leaf's items.
	for trial := 0; trial < 4; trial++ {
		driveDifferential(t, 4, wideDegree, 3000, uint64(2000+trial), 1)
	}
}

// wideDegree is a degree past a power of two, so a suffix field has values
// no digit takes.
const wideDegree = 40

// The capacitated tapes: units 1–5 per item, AddCap, Consume, RemoveUnits
// and slot reuse across Reserve, at both degrees.
func TestLeafIndexDifferentialCapacities(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		driveDifferential(t, 6, 4, 4000, uint64(3000+trial), 5)
	}
	for trial := 0; trial < 3; trial++ {
		driveDifferential(t, 4, wideDegree, 3000, uint64(4000+trial), 5)
	}
}

func TestLeafIndexDifferentialUnknownDegree(t *testing.T) {
	// NewLeafIndex (no degree hint) must behave identically too.
	src := rng.New(7)
	flat := NewLeafIndex(5)
	ref := newMapLeafIndex(5)
	for step := 0; step < 2000; step++ {
		b := make([]byte, 5)
		for i := range b {
			b[i] = byte(src.Intn(3))
		}
		c := Code(b)
		if src.Float64() < 0.6 {
			if err := flat.Insert(c, step); err != nil {
				t.Fatal(err)
			}
			if err := ref.Insert(c, step); err != nil {
				t.Fatal(err)
			}
		} else {
			fid, flvl, fok := flat.PopNearest(c)
			rid, rlvl, rok := ref.PopNearest(c)
			if fid != rid || flvl != rlvl || fok != rok {
				t.Fatalf("step %d: PopNearest (%d,%d,%v) ≠ (%d,%d,%v)", step, fid, flvl, fok, rid, rlvl, rok)
			}
		}
		checkShape(t, flat)
	}
}

func TestLeafIndexDepthZero(t *testing.T) {
	// Degenerate single-level trees: every item lives on the root.
	x := NewLeafIndexDegree(0, 1)
	if err := x.Insert(Code(""), 3); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(Code(""), 1); err != nil {
		t.Fatal(err)
	}
	if id, lvl, ok := x.Nearest(Code("")); !ok || id != 1 || lvl != 0 {
		t.Fatalf("Nearest = (%d,%d,%v)", id, lvl, ok)
	}
	if id, _, ok := x.PopNearest(Code("")); !ok || id != 1 {
		t.Fatalf("PopNearest = (%d,%v)", id, ok)
	}
	if !x.Remove(Code(""), 3) {
		t.Fatal("Remove failed")
	}
	if x.Len() != 0 {
		t.Fatalf("Len = %d", x.Len())
	}
}

func TestLeafIndexDenseRejectsOutOfRangeDigit(t *testing.T) {
	x := NewLeafIndexDegree(2, 3)
	if err := x.Insert(mkCode(0, 3), 1); err == nil {
		t.Error("digit ≥ degree accepted by dense index")
	}
	if x.Len() != 0 {
		t.Fatalf("failed insert mutated the index: Len = %d", x.Len())
	}
	if err := x.Insert(mkCode(2, 2), 1); err != nil {
		t.Fatal(err)
	}
	// Out-of-range digits in queries are treated as absent branches.
	if x.Remove(mkCode(0, 9), 1) {
		t.Error("Remove with out-of-range digit succeeded")
	}
	if got := x.CountPrefix(mkCode(9)); got != 0 {
		t.Errorf("CountPrefix = %d", got)
	}
	if _, lvl, ok := x.Nearest(mkCode(9, 9)); !ok || lvl != 2 {
		t.Errorf("Nearest diverged at level %d, %v", lvl, ok)
	}
}

// TestLeafIndexArenaReuse checks the freelist contract: a long steady-state
// churn (every insert matched by a removal) must not grow the arenas beyond
// their high-water mark.
func TestLeafIndexArenaReuse(t *testing.T) {
	const depth, degree = 6, 4
	x := NewLeafIndexDegree(depth, degree)
	src := rng.New(11)
	randCode := func() Code {
		b := make([]byte, depth)
		for i := range b {
			b[i] = byte(src.Intn(degree))
		}
		return Code(b)
	}
	codes := make([]Code, 64)
	for i := range codes {
		codes[i] = randCode()
		if err := x.Insert(codes[i], i); err != nil {
			t.Fatal(err)
		}
	}
	warm := len(x.next)
	for round := 0; round < 2000; round++ {
		i := src.Intn(len(codes))
		if !x.Remove(codes[i], i) {
			t.Fatalf("round %d: remove failed", round)
		}
		codes[i] = randCode()
		if err := x.Insert(codes[i], i); err != nil {
			t.Fatal(err)
		}
	}
	// A freed chunk serves the next insert wherever it lands: the arena must
	// stay at its high-water mark — here at most a chunk an item — not grow
	// with churn.
	if len(x.next) > len(codes) || len(x.nodes) > 1 {
		t.Fatalf("item arena grew from %d to %d chunks (%d inner nodes) over steady-state churn", warm, len(x.next), len(x.nodes))
	}
}

// FuzzLeafIndexDifferential drives the flat trie and the capacitated map
// reference with an identical operation tape decoded from fuzz input and
// requires identical answers everywhere. Inserts carry 1–5 units (the op
// byte's high bits), so the tape crosses the capacity slab's allocation,
// its regrowth under Reserve, and slot reuse by tenants of other capacities.
func FuzzLeafIndexDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{255, 0, 255, 0, 1, 2, 250, 9, 9, 9})
	f.Add([]byte{})
	// Capacity 5 and 3 at one leaf, pops, a hand-back, a withdrawal, a
	// Reserve, then capacity-1 and capacity-2 tenants in the freed slots.
	f.Add([]byte{
		32, 0, 0, 0, 0, 16, 0, 0, 0, 0, 3, 0, 0, 0, 0, 3, 0, 0, 0, 0,
		4, 0, 0, 0, 0, 5, 0, 0, 0, 0, 6, 0, 0, 0, 0, 167, 9, 9, 9, 9,
		0, 1, 1, 1, 1, 8, 1, 1, 1, 1, 5, 1, 1, 1, 1, 3, 1, 1, 1, 1,
	})
	// Drain a 4-unit item through Consume, re-insert at capacity 1.
	f.Add([]byte{
		24, 2, 1, 0, 2, 5, 2, 1, 0, 2, 5, 2, 1, 0, 2, 5, 2, 1, 0, 2,
		5, 2, 1, 0, 2, 5, 2, 1, 0, 2, 0, 2, 1, 0, 2, 3, 2, 1, 0, 2,
	})
	// The promote/demote boundary (degree 3: a block means all three
	// children). The root oscillates 2 ↔ 3 children through withdrawal,
	// consume and pop, each promotion after the first taking the freelisted
	// block; then node 0 promotes, demotes and is drained to a free.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, // root promotes
		2, 0, 0, 0, 0, 0, 0, 0, 0, 0, // withdraw → demote, re-insert → promote
		5, 1, 0, 0, 0, 0, 1, 1, 0, 0, // consume → demote, promote again
		3, 2, 0, 0, 0, 0, 2, 2, 2, 2, // pop → demote, promote again
		0, 0, 1, 0, 0, 0, 0, 2, 0, 0, // node 0 promotes (second block)
		5, 0, 0, 0, 0, 5, 0, 1, 0, 0, 5, 0, 2, 0, 0, // node 0 demotes, empties, frees; root demotes
		0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 6, 0, 0, 0, 0, 6, 0, 0, 0, 0,
	})
	// The same boundary under multi-unit items and a mid-tape Reserve.
	f.Add([]byte{
		16, 0, 0, 0, 0, 8, 1, 0, 0, 0, 24, 2, 0, 0, 0, 63, 9, 9, 9, 9,
		3, 2, 0, 0, 0, 3, 2, 0, 0, 0, 3, 2, 0, 0, 0, 3, 2, 0, 0, 0,
		0, 2, 1, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 1, 0,
	})
	// Both thresholds crossed both ways, then one leaf past burstMax: at one
	// unit an item, and at five.
	f.Add(thresholdTape(3, 0, 2))
	f.Add(thresholdTape(3, 32, 2))
	const depth = 4
	const degree = 3
	f.Fuzz(func(t *testing.T, tape []byte) {
		flat := NewLeafIndexDegree(depth, degree)
		ref := newCapRef(depth)
		nextID := 0
		var liveIDs []int // insertion order; may hold ids a pop already drained
		readCode := func(pos int) Code {
			buf := make([]byte, depth)
			for i := range buf {
				if pos+i < len(tape) {
					buf[i] = tape[pos+i] % degree
				}
			}
			return Code(buf)
		}
		// oldest returns the oldest id still live, dropping drained ones.
		oldest := func() (int, bool) {
			for len(liveIDs) > 0 {
				if _, ok := ref.codes[liveIDs[0]]; ok {
					return liveIDs[0], true
				}
				liveIDs = liveIDs[1:]
			}
			return 0, false
		}
		for pos := 0; pos+depth < len(tape); pos += depth + 1 {
			op := tape[pos]
			code := readCode(pos + 1)
			switch op % 8 {
			case 0, 1: // insert with 1–5 units
				units := 1 + int(op>>3)%5
				errF := flat.InsertCap(code, nextID, units)
				errR := ref.InsertCap(code, nextID, units)
				if (errF == nil) != (errR == nil) {
					t.Fatalf("Insert err %v ≠ %v", errF, errR)
				}
				if errF == nil {
					liveIDs = append(liveIDs, nextID)
				}
				nextID++
			case 2: // remove the oldest live item
				victim, ok := oldest()
				if !ok {
					continue
				}
				c := ref.codes[victim]
				uf, gf := flat.RemoveUnits(c, victim)
				ur, gr := ref.RemoveUnits(c, victim)
				if uf != ur || gf != gr || !gf {
					t.Fatalf("RemoveUnits(%d) (%d,%v) ≠ (%d,%v)", victim, uf, gf, ur, gr)
				}
			case 3: // pop nearest
				fid, flvl, fok := flat.PopNearest(code)
				rid, rlvl, rok := ref.PopNearest(code)
				if fid != rid || flvl != rlvl || fok != rok {
					t.Fatalf("PopNearest (%d,%d,%v) ≠ (%d,%d,%v)", fid, flvl, fok, rid, rlvl, rok)
				}
			case 4: // hand units back to the oldest live item
				if id, ok := oldest(); ok {
					delta := 1 + int(op>>3)%5
					if gf, gr := flat.AddCap(ref.codes[id], id, delta) == nil, ref.AddCap(ref.codes[id], id, delta); gf != gr || !gf {
						t.Fatalf("AddCap(%d,+%d) %v ≠ %v", id, delta, gf, gr)
					}
				}
			case 5: // consume at the tape's code: the oldest item there, or a miss
				id := nextID + 1
				for _, cand := range liveIDs {
					if ref.has(code, cand) {
						id = cand
						break
					}
				}
				if gf, gr := flat.Consume(code, id), ref.Consume(code, id); gf != gr {
					t.Fatalf("Consume(%d) %v ≠ %v", id, gf, gr)
				}
			case 6: // pop the global minimum
				fid, fok := flat.PopMin()
				rid, rok := ref.PopMin()
				if fid != rid || fok != rok {
					t.Fatalf("PopMin (%d,%v) ≠ (%d,%v)", fid, fok, rid, rok)
				}
			case 7: // regrow the slabs mid-tape
				n, k, i := flat.ArenaLens()
				flat.Reserve(n+int(op>>3), k, i+int(op>>3)*8)
			}
			if flat.Len() != ref.Len() || flat.Units() != ref.total {
				t.Fatalf("Len/Units %d/%d ≠ %d/%d", flat.Len(), flat.Units(), ref.Len(), ref.total)
			}
			checkShape(t, flat)
			fid, flvl, fok := flat.Nearest(code)
			rid, rlvl, rok := ref.Nearest(code)
			if fid != rid || flvl != rlvl || fok != rok {
				t.Fatalf("Nearest (%d,%d,%v) ≠ (%d,%d,%v)", fid, flvl, fok, rid, rlvl, rok)
			}
			// The mined view must carry the reference's unit counts.
			for _, r := range flat.NearestKRef(code, 3, nil) {
				if want := ref.units[int(r.ID)]; int(r.Cap) != want {
					t.Fatalf("item %d mines with %d units, reference holds %d", r.ID, r.Cap, want)
				}
			}
		}
	})
}
