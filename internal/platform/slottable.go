package platform

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"unsafe"

	"github.com/pombm/pombm/internal/hst"
)

// record is what the server keeps about one slot — one registration stint of
// one worker — besides its leaf code, which lives in the page's code slab,
// and, on a capacity-aware table, its capacity cell. The slot number is the
// engine id.
//
// A record holds no pointer, so a page of them is a noscan allocation: the
// collector never marks through it and the allocator gives it no type
// header. The id is an offset into the table's id slab, and everything but
// the ledger cell shares one word; the table's accessors are the only
// readers of either.
type record struct {
	id uint32 // offset of the external worker id in the table's id slab
	// word packs, from the top: lag, how many epochs the slot's report is
	// behind the table's (28 bits: 0 for a report made or rotated under the
	// table's epoch, raised when a rotation carries a busy stint into the
	// next table; a lagging slot has no code — the old tree's means nothing
	// here — until a Release brings a fresh one); the workerState (3 bits);
	// and, on a table without a capacity column, the slot's one outstanding
	// assignment (1 bit).
	word uint32
	// spent is the id's lifetime ε ledger cell (see epoch.Controller.Charge).
	// It lives on the id's current slot: a re-registration or a rotation
	// moves it along, so Σ spent over the table and the departed ledger is
	// the controller's total.
	spent float64
}

const (
	activeBit  = 1
	stateShift = 1
	lagShift   = 4
	maxLag     = 1<<(32-lagShift) - 1
)

func (r *record) state() workerState { return workerState(r.word >> stateShift & 7) }

func (r *record) setState(st workerState) {
	r.word = r.word&^(7<<stateShift) | uint32(st)<<stateShift
}

func (r *record) lag() int64 { return int64(r.word >> lagShift) }

// units is a slot's cell in the capacity column: the declared task capacity
// and the outstanding assignments. The engine holds the slot exactly while
// active < capacity (with capacity−active remaining units), so a pop maps to
// active++ and a completed task hands one unit back.
type units struct{ capacity, active int32 }

const (
	recordBytes = int(unsafe.Sizeof(record{}))
	unitsBytes  = int(unsafe.Sizeof(units{}))
	// A page is 1,024 slots: 16 KiB of records, a slab of 1,024 codes and,
	// on a capacity-aware table, 8 KiB of capacity cells. A table grows a
	// page at a time, never by copying, and holds at most one page of slack.
	// Pages without pointers carry no allocator header at any length, so the
	// length is chosen for the slabs: 16 KiB and 8 KiB are size classes, and
	// so is the code slab at depths 8, 10, 12, 14 and 16.
	pageBits = 10
	pageLen  = 1 << pageBits
	// The id slab is 16 KiB chunks, a size class too, filled back to back:
	// each id once, behind its length as a uvarint, so the slack is the last
	// chunk's tail. An id that crosses a chunk end — about one a chunk, one
	// in ~2,600 of the benchmark's six-byte ids — is read as a copy, every
	// other as a view. Bytes once written never change and a chunk never
	// moves, so a view may outlive the table: it keeps its chunk alive.
	idChunkBits = 14
	idChunkLen  = 1 << idChunkBits
	// maxIDBytes bounds the slab, whose offsets are uint32.
	maxIDBytes = 1 << 32
	// An index entry is slot+1 in its low slotBits and 7 bits of the id's
	// hash above them, so a probe passes over an entry of another tag
	// without reading its record or its id — 127 in 128 of them. The tag
	// caps a table at 2^25−1 slots.
	slotBits = 25
	slotMask = 1<<slotBits - 1
)

// slotTable is the server's registry: slot-addressed records, leaf codes and
// capacity cells in fixed-size pages, an id slab, and an id index. Slots are
// only ever appended; a rotation builds the next epoch's table from 0 and
// drops this one, which is what keeps the slot space bounded by live workers
// plus one epoch's churn. A table therefore serves one epoch and one tree:
// codes are all depth bytes long and sit back to back in a per-page byte
// slab, and a record stores its report's epoch as the lag behind the
// table's.
//
// The capacity column is all or nothing, as the engine index's capacity
// slab is: a table has none — capacity 1, the one assignment a bit of the
// record — until the first slot of another capacity arrives, and from then
// on a cell for every slot.
//
// The index is an open-addressing table (linear probing) of tagged slot+1
// values, 0 for empty. It stores no keys: a probe whose tag matches
// compares against the record's own id. An id maps to its latest slot —
// add overwrites — and nothing is ever deleted from it. A hash picks its
// home by fastrange, so the index can be any length, and it stays at most
// 80 % full: a table built for n ids gets the shortest length of the form
// 2^k or 3·2^k that holds them (53–80 % load), and an add that would pass
// 80 % doubles it, from 24 on an empty table — so 2^k ids sit at 67 %, 6 B
// an id, where doubling at ½ cost 8–16 B. Growing by ×1.5 instead would
// rehash about four entries a registration, not one, for ~1 B an id.
type slotTable struct {
	pages []*[pageLen]record
	codes [][]byte            // per page: pageLen codes of depth bytes each
	caps  []*[pageLen]units   // per page, on a capacity-aware table; else nil
	n     int                 // slots in use
	depth int                 // code length: the depth of the epoch's tree
	epoch int64               // the epoch the table serves
	slab  []*[idChunkLen]byte // the id slab's chunks
	used  int                 // id slab bytes written

	seed  maphash.Seed
	index []uint32
	ids   int // distinct ids indexed
}

// newSlotTable returns an empty table for the given epoch, holding codes of
// the given depth, whose index is sized for n ids.
func newSlotTable(n, depth int, epoch int64) *slotTable {
	size := 24
	for 4*size < 5*n {
		if size&(size-1) == 0 {
			size += size / 2
		} else {
			size += size / 3
		}
	}
	return &slotTable{depth: depth, epoch: epoch, seed: maphash.MakeSeed(), index: make([]uint32, size)}
}

func (t *slotTable) len() int { return t.n }

// at returns the slot's record; the pointer stays valid for the table's
// lifetime.
func (t *slotTable) at(slot int) *record {
	return &t.pages[slot>>pageBits][slot&(pageLen-1)]
}

// chunk is the id slab from offset off to the end of its chunk.
func (t *slotTable) chunk(off int) []byte {
	return t.slab[off>>idChunkBits][off&(idChunkLen-1):]
}

// id returns the slot's external worker id: a view of the slab, which never
// changes, or a copy for an id that crosses a chunk end. Either may be kept.
func (t *slotTable) id(slot int) string {
	off, n := t.idSpan(t.at(slot).id)
	if c := t.chunk(off); n <= len(c) {
		return unsafe.String(unsafe.SliceData(c), n)
	}
	b := make([]byte, 0, n)
	for len(b) < n {
		c := t.chunk(off + len(b))
		b = append(b, c[:min(len(c), n-len(b))]...)
	}
	return unsafe.String(unsafe.SliceData(b), n)
}

// idSpan decodes the length in front of the id at ref: the id's bytes are
// the n from slab offset off.
func (t *slotTable) idSpan(ref uint32) (off, n int) {
	off = int(ref)
	for shift := 0; ; shift += 7 {
		b := t.chunk(off)[0]
		off++
		n |= int(b&0x7f) << shift
		if b < 0x80 {
			return off, n
		}
	}
}

// idIs reports whether the id at ref is id, reading the slab in place.
func (t *slotTable) idIs(ref uint32, id string) bool {
	off, n := t.idSpan(ref)
	if n != len(id) {
		return false
	}
	for len(id) > 0 {
		c := t.chunk(off)
		k := min(len(c), len(id))
		if string(c[:k]) != id[:k] {
			return false
		}
		id, off = id[k:], off+k
	}
	return true
}

// fits reports whether the table has room for one more slot and, behind its
// length, an id of n bytes.
func (t *slotTable) fits(n int) bool {
	return t.n < slotMask && uint64(t.used)+uint64(n)+binary.MaxVarintLen64 <= maxIDBytes
}

// putID appends the id, behind its length, to the slab and returns its
// offset.
func (t *slotTable) putID(id string) uint32 {
	ref := uint32(t.used)
	var length [binary.MaxVarintLen64]byte
	for _, s := range [...]string{string(binary.AppendUvarint(length[:0], uint64(len(id)))), id} {
		for len(s) > 0 {
			if t.used&(idChunkLen-1) == 0 {
				t.slab = append(t.slab, new([idChunkLen]byte))
			}
			k := copy(t.chunk(t.used), s)
			s, t.used = s[k:], t.used+k
		}
	}
	return ref
}

// units returns the slot's capacity and outstanding assignments.
func (t *slotTable) units(slot int) units {
	if t.caps != nil {
		return t.caps[slot>>pageBits][slot&(pageLen-1)]
	}
	return units{capacity: 1, active: int32(t.at(slot).word & activeBit)}
}

// addActive moves the slot's outstanding assignments by delta and returns
// the new count.
func (t *slotTable) addActive(slot int, delta int32) int32 {
	if t.caps != nil {
		c := &t.caps[slot>>pageBits][slot&(pageLen-1)]
		c.active += delta
		return c.active
	}
	rec := t.at(slot)
	active := int32(rec.word&activeBit) + delta
	if active>>1 != 0 {
		panic("platform: a capacity-1 slot's assignments left 0–1")
	}
	rec.word = rec.word&^activeBit | uint32(active)
	return active
}

// addColumn gives the table its capacity column, carrying every capacity-1
// slot's assignment bit into its cell.
func (t *slotTable) addColumn() {
	t.caps = make([]*[pageLen]units, len(t.pages))
	for p := range t.caps {
		t.caps[p] = new([pageLen]units)
	}
	for slot := 0; slot < t.n; slot++ {
		rec := t.at(slot)
		t.caps[slot>>pageBits][slot&(pageLen-1)] = units{capacity: 1, active: int32(rec.word & activeBit)}
		rec.word &^= activeBit
	}
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
	if t.at(slot).lag() != 0 {
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
	t.at(slot).word &^= maxLag << lagShift
}

// reportEpoch is the epoch the slot's report was obfuscated under.
func (t *slotTable) reportEpoch(slot int) int64 {
	return t.epoch - t.at(slot).lag()
}

// bytes is the table's own allocation: record pages, code slabs, capacity
// column, id slab and id index.
func (t *slotTable) bytes() int {
	slot := recordBytes + t.depth
	if t.caps != nil {
		slot += unitsBytes
	}
	return len(t.pages)*pageLen*slot + len(t.slab)*idChunkLen + 4*len(t.index)
}

// hash returns the id's first probe position and its entries' tag.
func (t *slotTable) hash(id string) (home int, tag uint32) {
	h := maphash.String(t.seed, id)
	hi, _ := bits.Mul64(h, uint64(len(t.index)))
	return int(hi), uint32(h) &^ slotMask
}

// probe walks the id's probe sequence to the position holding its entry,
// or to the empty position where its entry would go.
func (t *slotTable) probe(id string) (pos int, tag uint32, found bool) {
	i, tag := t.hash(id)
	for {
		e := t.index[i]
		if e == 0 {
			return i, tag, false
		}
		if e&^slotMask == tag && t.idIs(t.at(int(e&slotMask-1)).id, id) {
			return i, tag, true
		}
		if i++; i == len(t.index) {
			i = 0
		}
	}
}

// lookup returns the latest slot added under the id.
func (t *slotTable) lookup(id string) (slot int, ok bool) {
	pos, _, found := t.probe(id)
	if !found {
		return 0, false
	}
	return int(t.index[pos]&slotMask - 1), true
}

// add opens a fresh stint of the id — available, nothing assigned — with its
// ledger cell and its report under the table's epoch.
func (t *slotTable) add(id string, spent float64, capacity int32, code hst.Code) (slot int) {
	return t.push(id, stateAvailable, 0, spent, units{capacity: capacity}, code)
}

// adopt appends a copy of another table's slot in state st, its report lag
// epochs behind this table's (with code when lag is 0).
func (t *slotTable) adopt(old *slotTable, slot int, st workerState, lag int64, code hst.Code) int {
	return t.push(old.id(slot), st, lag, old.at(slot).spent, old.units(slot), code)
}

// push appends a slot and points its id at it. An id the table already
// holds keeps its one copy in the slab; the table must have room (fits).
func (t *slotTable) push(id string, st workerState, lag int64, spent float64, u units, code hst.Code) (slot int) {
	if lag < 0 || lag > maxLag {
		panic("platform: a report lags the table by more epochs than a record holds")
	}
	if 5*(t.ids+1) > 4*len(t.index) {
		t.grow()
	}
	pos, tag, known := t.probe(id)
	ref := uint32(0)
	if known {
		ref = t.at(int(t.index[pos]&slotMask - 1)).id
	} else {
		ref = t.putID(id)
		t.ids++
	}
	slot = t.n
	if slot>>pageBits == len(t.pages) {
		t.pages = append(t.pages, new([pageLen]record))
		t.codes = append(t.codes, make([]byte, pageLen*t.depth))
		if t.caps != nil {
			t.caps = append(t.caps, new([pageLen]units))
		}
	}
	if u.capacity != 1 && t.caps == nil {
		t.addColumn()
	}
	t.n++
	*t.at(slot) = record{id: ref, word: uint32(lag)<<lagShift | uint32(st)<<stateShift, spent: spent}
	if t.caps != nil {
		t.caps[slot>>pageBits][slot&(pageLen-1)] = u
	} else {
		t.addActive(slot, u.active)
	}
	if lag == 0 {
		t.setCode(slot, code)
	}
	t.index[pos] = tag | uint32(slot+1)
	return slot
}

// grow re-places every entry in an index twice as long. Entries name
// distinct ids, so each lands in the first empty probe position.
func (t *slotTable) grow() {
	old := t.index
	t.index = make([]uint32, 2*len(old))
	for _, e := range old {
		if e == 0 {
			continue
		}
		i, _ := t.hash(t.id(int(e&slotMask - 1)))
		for t.index[i] != 0 {
			if i++; i == len(t.index) {
				i = 0
			}
		}
		t.index[i] = e
	}
}
