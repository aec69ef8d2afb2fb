package platform

import (
	"hash/maphash"
	"unsafe"

	"github.com/pombm/pombm/internal/hst"
)

// record is everything the server keeps about one slot — one registration
// stint of one worker — on one cache line, so Submit, Release and Withdraw
// touch a single line per worker. The slot number is the engine id.
type record struct {
	id   string   // external worker id
	code hst.Code // reported leaf
	// spent is the id's lifetime ε ledger cell (see epoch.Controller.Charge).
	// It lives on the id's current slot: a re-registration or a rotation
	// moves it along, so Σ spent over the table and the departed ledger is
	// the controller's total.
	spent float64
	epoch int64 // epoch the code was obfuscated under
	// capacity is the declared task capacity and active the outstanding
	// assignments. The engine holds the slot exactly while active <
	// capacity (with capacity−active remaining units), so a pop maps to
	// active++ and a completed task hands one unit back.
	capacity int32
	active   int32
	state    workerState
}

const (
	recordBytes = int(unsafe.Sizeof(record{}))
	// A page is 256 records (16 KiB): a table grows a page at a time, never
	// by copying, and holds at most one page of slack.
	pageBits = 8
	pageLen  = 1 << pageBits
)

// slotTable is the server's registry: slot-addressed records in fixed-size
// pages, plus an id index. Slots are only ever appended; a rotation builds
// the next epoch's table from 0 and drops this one, which is what keeps the
// slot space bounded by live workers plus one epoch's churn.
//
// The index is an open-addressing table (linear probing, load ≤ ½) of
// slot+1 values, 0 for empty. It stores no keys: a probe compares against
// the record's own id. An id maps to its latest slot — add overwrites — and
// nothing is ever deleted from it.
type slotTable struct {
	pages []*[pageLen]record
	n     int // slots in use

	seed  maphash.Seed
	index []int32
	ids   int // distinct ids indexed
}

// newSlotTable returns an empty table whose index is sized for n ids.
func newSlotTable(n int) *slotTable {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return &slotTable{seed: maphash.MakeSeed(), index: make([]int32, size)}
}

func (t *slotTable) len() int { return t.n }

// at returns the slot's record; the pointer stays valid for the table's
// lifetime.
func (t *slotTable) at(slot int) *record {
	return &t.pages[slot>>pageBits][slot&(pageLen-1)]
}

// bytes is the table's own allocation: record pages plus id index. The id
// and code bytes the records point at are not counted.
func (t *slotTable) bytes() int {
	return len(t.pages)*pageLen*recordBytes + 4*len(t.index)
}

// probe walks the id's probe sequence to the position holding its entry,
// or to the empty position where its entry would go.
func (t *slotTable) probe(id string) (pos uint64, found bool) {
	mask := uint64(len(t.index) - 1)
	for i := maphash.String(t.seed, id) & mask; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return i, false
		}
		if t.at(int(e-1)).id == id {
			return i, true
		}
	}
}

// lookup returns the latest slot added under the id.
func (t *slotTable) lookup(id string) (slot int, ok bool) {
	pos, found := t.probe(id)
	if !found {
		return 0, false
	}
	return int(t.index[pos] - 1), true
}

// add appends the record in the next slot and points its id at it.
func (t *slotTable) add(rec record) (slot int) {
	slot = t.n
	if slot>>pageBits == len(t.pages) {
		t.pages = append(t.pages, new([pageLen]record))
	}
	*t.at(slot) = rec
	t.n++
	if 2*(t.ids+1) > len(t.index) {
		t.grow()
	}
	pos, known := t.probe(rec.id)
	t.index[pos] = int32(slot + 1)
	if !known {
		t.ids++
	}
	return slot
}

// grow doubles the index and re-places every entry. Entries name distinct
// ids, so each lands in the first empty probe position.
func (t *slotTable) grow() {
	old := t.index
	t.index = make([]int32, 2*len(old))
	mask := uint64(len(t.index) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := maphash.String(t.seed, t.at(int(e-1)).id) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = e
	}
}
