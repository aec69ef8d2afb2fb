package platform

import (
	"hash/maphash"
	"unsafe"

	"github.com/pombm/pombm/internal/hst"
)

// record is what the server keeps about one slot — one registration stint of
// one worker — besides its leaf code, which lives in the page's code slab.
// The slot number is the engine id.
type record struct {
	id string // external worker id
	// spent is the id's lifetime ε ledger cell (see epoch.Controller.Charge).
	// It lives on the id's current slot: a re-registration or a rotation
	// moves it along, so Σ spent over the table and the departed ledger is
	// the controller's total.
	spent float64
	// capacity is the declared task capacity and active the outstanding
	// assignments. The engine holds the slot exactly while active <
	// capacity (with capacity−active remaining units), so a pop maps to
	// active++ and a completed task hands one unit back.
	capacity int32
	active   int32
	// lag is how many epochs the slot's report is behind the table's: 0 for
	// a report made or rotated under the table's epoch, bumped when a rotation
	// carries a busy stint into the next table. A lagging slot has no code —
	// the old tree's means nothing here — until a Release brings a fresh one.
	lag   uint32
	state workerState
}

const (
	recordBytes = int(unsafe.Sizeof(record{}))
	// A page is 1,024 slots: 40 KiB of records and a slab of 1,024 codes. A
	// table grows a page at a time, never by copying, and holds at most one
	// page of slack. The length keeps a slot at 40 bytes: 40 KiB is past Go's
	// small size classes, so the records take five whole 8 KiB heap pages,
	// where 256 of them (10,240 B, pointers, hence an 8-byte allocator
	// header) would land in the 10,880 class; and the slab is a size class
	// itself at depths 8, 10, 12, 14 and 16.
	pageBits = 10
	pageLen  = 1 << pageBits
)

// slotTable is the server's registry: slot-addressed records and leaf codes
// in fixed-size pages, plus an id index. Slots are only ever appended; a
// rotation builds the next epoch's table from 0 and drops this one, which is
// what keeps the slot space bounded by live workers plus one epoch's churn.
// A table therefore serves one epoch and one tree: codes are all depth bytes
// long and sit back to back in a per-page byte slab, and a record stores its
// report's epoch as the lag behind the table's.
//
// The index is an open-addressing table (linear probing, load ≤ ½) of
// slot+1 values, 0 for empty. It stores no keys: a probe compares against
// the record's own id. An id maps to its latest slot — add overwrites — and
// nothing is ever deleted from it.
type slotTable struct {
	pages []*[pageLen]record
	codes [][]byte // per page: pageLen codes of depth bytes each
	n     int      // slots in use
	depth int      // code length: the depth of the epoch's tree
	epoch int64    // the epoch the table serves

	seed  maphash.Seed
	index []int32
	ids   int // distinct ids indexed
}

// newSlotTable returns an empty table for the given epoch, holding codes of
// the given depth, whose index is sized for n ids.
func newSlotTable(n, depth int, epoch int64) *slotTable {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return &slotTable{depth: depth, epoch: epoch, seed: maphash.MakeSeed(), index: make([]int32, size)}
}

func (t *slotTable) len() int { return t.n }

// at returns the slot's record; the pointer stays valid for the table's
// lifetime.
func (t *slotTable) at(slot int) *record {
	return &t.pages[slot>>pageBits][slot&(pageLen-1)]
}

// codeView reads code bytes as an hst.Code without copying them. The view
// changes when the bytes do: it is for validating, comparing and handing to
// callees that do not retain it, never for storing.
func codeView(b []byte) hst.Code {
	return hst.Code(unsafe.String(unsafe.SliceData(b), len(b)))
}

func (t *slotTable) codeBytes(slot int) []byte {
	off := (slot & (pageLen - 1)) * t.depth
	return t.codes[slot>>pageBits][off : off+t.depth]
}

// code returns a view of the slot's leaf code, valid until setCode
// overwrites it. A carried stint has none; nothing may ask for it.
func (t *slotTable) code(slot int) hst.Code {
	if t.at(slot).lag != 0 {
		panic("platform: code of a stint carried from another epoch read")
	}
	return codeView(t.codeBytes(slot))
}

// setCode stores a report made under the table's epoch in the slot.
func (t *slotTable) setCode(slot int, code hst.Code) {
	if len(code) != t.depth {
		panic("platform: code length differs from the table's depth")
	}
	copy(t.codeBytes(slot), code)
	t.at(slot).lag = 0
}

// reportEpoch is the epoch the slot's report was obfuscated under.
func (t *slotTable) reportEpoch(slot int) int64 {
	return t.epoch - int64(t.at(slot).lag)
}

// bytes is the table's own allocation: record pages, code slabs and id
// index. The id bytes the records point at are not counted.
func (t *slotTable) bytes() int {
	return len(t.pages)*pageLen*(recordBytes+t.depth) + 4*len(t.index)
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

// add appends the record in the next slot, with its code unless the stint is
// carried from another epoch (rec.lag != 0), and points its id at it.
func (t *slotTable) add(rec record, code hst.Code) (slot int) {
	slot = t.n
	if slot>>pageBits == len(t.pages) {
		t.pages = append(t.pages, new([pageLen]record))
		t.codes = append(t.codes, make([]byte, pageLen*t.depth))
	}
	*t.at(slot) = rec
	if rec.lag == 0 {
		t.setCode(slot, code)
	}
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
