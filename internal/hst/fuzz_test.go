package hst

import (
	"testing"
)

// FuzzLeafIndex drives the trie with an arbitrary operation tape and checks
// it against a flat model: sizes always agree and Nearest always returns
// the lowest-id item at the minimal LCA level.
func FuzzLeafIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 254, 0, 0, 0, 1, 1, 1})
	f.Add([]byte{})
	// Three children under the root and under node 0, then drained: an index
	// of unknown degree keeps lists at any width.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0,
		2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0,
	})
	// Past burstMax and back under foldMin, twice over, and then past burstMax
	// on one leaf, which no burst can split.
	f.Add(thresholdTape(3, 0, 2))
	f.Add(thresholdTape(3, 0, 2)[:5*(burstMax+40)]) // the same climb left standing
	const depth = 4
	const degree = 3
	f.Fuzz(func(t *testing.T, tape []byte) {
		x := NewLeafIndex(depth)
		type item struct {
			code Code
			id   int
		}
		var model []item
		nextID := 0
		readCode := func(pos int) Code {
			buf := make([]byte, depth)
			for i := range buf {
				if pos+i < len(tape) {
					buf[i] = tape[pos+i] % degree
				}
			}
			return Code(buf)
		}
		for pos := 0; pos+depth < len(tape); pos += depth + 1 {
			op := tape[pos]
			code := readCode(pos + 1)
			switch op % 3 {
			case 0, 1: // insert (weighted towards growth)
				if err := x.Insert(code, nextID); err != nil {
					t.Fatalf("insert: %v", err)
				}
				model = append(model, item{code, nextID})
				nextID++
			case 2: // remove the oldest live item, if any
				if len(model) == 0 {
					continue
				}
				victim := model[0]
				model = model[1:]
				if !x.Remove(victim.code, victim.id) {
					t.Fatalf("remove of live item %d failed", victim.id)
				}
			}
			if x.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", x.Len(), len(model))
			}
			checkShape(t, x)
			// Probe Nearest with the last code seen.
			id, lvl, ok := x.Nearest(code)
			if ok != (len(model) > 0) {
				t.Fatalf("Nearest ok = %v with %d items", ok, len(model))
			}
			if !ok {
				continue
			}
			bestLvl, bestID := depth+1, -1
			for _, it := range model {
				l := lcaLevel(code, it.code, depth)
				if l < bestLvl || (l == bestLvl && it.id < bestID) {
					bestLvl, bestID = l, it.id
				}
			}
			if lvl != bestLvl || id != bestID {
				t.Fatalf("Nearest = (%d,%d), model = (%d,%d)", id, lvl, bestID, bestLvl)
			}
		}
	})
}

func lcaLevel(a, b Code, depth int) int {
	for j := 0; j < depth; j++ {
		if a[j] != b[j] {
			return depth - j
		}
	}
	return 0
}

// thresholdTape writes an op tape of (op, four digits) records that crosses
// both thresholds: burstMax+40 inserts spread over every leaf, withdrawals
// of the oldest down to under foldMin, the same again, and then burstMax+40
// inserts on one leaf. insert and remove are the op bytes a fuzz target reads
// as those operations.
func thresholdTape(degree int, insert, remove byte) []byte {
	var tape []byte
	rec := func(op byte, i int) {
		tape = append(tape, op, byte(i%degree), byte(i/degree%degree), byte(i/degree/degree%degree), byte(i/degree/degree/degree%degree))
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < burstMax+40; i++ {
			rec(insert, i)
		}
		for i := 0; i < burstMax+40-foldMin/2; i++ {
			rec(remove, 0)
		}
	}
	for i := 0; i < burstMax+40; i++ {
		rec(insert, 0)
	}
	return tape
}

// pageTape is a FuzzLeafIndexDifferential seed (depth 4) whose population
// outgrows the first item page: n single-unit inserts cycling over the
// degree³ leaves, then multi-unit inserts (units 2 from op byte 8 on), pops,
// withdrawals, consumes and hand-backs at the same leaves, so the capacity
// pages arrive beside item pages already there and the churn reaches chunks
// on every page.
func pageTape(degree, n int) []byte {
	var tape []byte
	rec := func(op byte, i int) {
		tape = append(tape, op, byte(i%degree), byte(i/degree%degree), byte(i/degree/degree%degree), 0)
	}
	for i := 0; i < n; i++ {
		rec(0, i)
	}
	for i := 0; i < n/4; i++ {
		rec(8, i)                          // insert, 2 units
		rec([...]byte{3, 2, 5, 4}[i%4], i) // pop, withdraw, consume, hand back
	}
	for i := 0; i < n/2; i++ {
		rec(3, i*7) // pops drain across the pages
	}
	return tape
}
