package platform

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"unsafe"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/privacy"
)

// record is what the server keeps about one slot — one registration stint of
// one worker — besides its leaf code, which lives in the page's code slab,
// and, on a capacity-aware table, its capacity cell. The slot number is the
// engine id.
//
// A record holds no pointer, so a page of them is a noscan allocation: the
// collector never marks through it and the allocator gives it no type
// header. The id is an offset into the table's id slab, and everything else
// shares one word; the table's accessors are the only readers of either.
type record struct {
	id uint32 // offset of the external worker id in the table's id slab
	// word packs, from the top: the id's lifetime ε ledger cell (28 bits);
	// the workerState (3 bits); and, on a table without a capacity column,
	// the slot's one outstanding assignment (1 bit).
	//
	// The ledger cell counts the id's charged fresh reports. Every report
	// spends the publication's one ε, so the count is exact where a float
	// sum of ε's would round, and the id has spent reports·ε. The cell lives
	// on the id's current slot: a re-registration or a rotation moves it
	// along, so Σ reports over the table and the departed ledger, times ε,
	// is the server's spent total. It stops at privacy.MaxReports — 8.5 years
	// at a report a second — where the charge rule parks the worker instead
	// of letting it wrap.
	word uint32
}

const (
	activeBit   = 1
	stateShift  = 1
	reportShift = 4
)

// The largest count a ledger cell may hold fits above the state bits.
const _ uint32 = privacy.MaxReports << reportShift

func (r *record) state() workerState { return workerState(r.word >> stateShift & 7) }

func (r *record) setState(st workerState) {
	r.word = r.word&^(7<<stateShift) | uint32(st)<<stateShift
}

// reports is the id's ledger cell: the fresh reports charged to it.
func (r *record) reports() uint32 { return r.word >> reportShift }

func (r *record) setReports(n uint32) {
	r.word = r.word&(1<<reportShift-1) | n<<reportShift
}

// units is a slot's two cells in the capacity column: the declared task
// capacity and the outstanding assignments. The engine holds the slot
// exactly while active < capacity (with capacity−active remaining units), so
// a pop maps to active++ and a completed task hands one unit back.
type units struct{ capacity, active int32 }

const (
	recordBytes = int(unsafe.Sizeof(record{}))
	// A page is 1,024 slots: 8 KiB of records, a slab of 1,024 packed codes
	// and, on a capacity-aware table, 2,048 capacity cells — 2, 4 or 8 KiB by
	// their width. A table grows a page at a time, never by copying, and
	// holds at most one page of slack.
	// Pages without pointers carry no allocator header at any length, so the
	// length is chosen for the slabs: 8 KiB is a size class, and so is a
	// code slab of 1,024 × 6, 8, 10, 12, 14 or 16 bytes (one of 5, 7 or 9
	// bytes is rounded up, to 5,376, 8,192 and 9,472 bytes).
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
// codes all have the tree's depth and degree, and sit packed back to back in
// a per-page byte slab.
//
// A slot's report is of the table's epoch, except on a stint a rotation
// carried busy into the table: its report lags the table's by the epochs
// since it was made, and the slot has no code — the old tree's means nothing
// here — until a Release brings a fresh one. Only carried stints ever lag,
// and a rotation adopts them before anything else, so the lags are a side
// slice over slots [0, carried) rather than bits of every record; a fresh
// code zeroes its slot's.
//
// A code is D digits in base c, and the slab stores it as a bit string, not
// a byte a digit. Digits go in pairs: a pair d₁·c + d₂ is below c², so it
// takes bits.Len(c²−1) bits, and an odd last digit bits.Len(c−1). Pairs,
// not single digits, because c² wastes less of its power of two than c
// does: on the benchmark's tree (D = 10, c = 22) a digit alone takes 5 bits
// and a pair 9, since 22² = 484 < 512, so a code is 45 bits — 6 bytes, not
// the 7 of single digits or the 10 of raw ones. Every degree and depth takes
// the same path. Decoding divides nothing: a per-table table of the c² pairs
// maps a pair's value to its two digits (968 B at c = 22). Packing is
// injective and zeroes the last byte's spare bits, so two codes are equal
// exactly when their packed bytes are.
//
// The capacity column is all or nothing, as the engine index's capacity
// slab is: a table has none — capacity 1, the one assignment a bit of the
// record — until the first slot of another capacity arrives, and from then
// on two hst.Cells a slot, capacity and active: 2 B a slot while no count
// passes 255. A rotation's next table widens only as far as it must.
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
	codes [][]byte            // per page: pageLen packed codes of codeLen bytes each
	caps  hst.Cells           // 2·slot: capacity, 2·slot+1: active; on a capacity-aware table
	n     int                 // slots in use
	depth int                 // digits in a code: the depth of the epoch's tree
	epoch int64               // the epoch the table serves
	slab  []*[idChunkLen]byte // the id slab's chunks
	used  int                 // id slab bytes written
	lags  []int64             // per carried slot: epochs its report lags the table's

	degree    int       // c, the base of a code's digits
	pairBits  int       // bits of a packed digit pair
	digitBits int       // bits of an odd last digit
	codeLen   int       // bytes of a packed code
	pairs     [][2]byte // a packed pair's value → its two digits

	seed  maphash.Seed
	index []uint32
	ids   int // distinct ids indexed
}

// newSlotTable returns an empty table for the given epoch, holding codes of
// the given depth and degree, whose index is sized for n ids.
func newSlotTable(n, depth, degree int, epoch int64) *slotTable {
	size := 24
	for 4*size < 5*n {
		if size&(size-1) == 0 {
			size += size / 2
		} else {
			size += size / 3
		}
	}
	t := &slotTable{
		depth:     depth,
		epoch:     epoch,
		degree:    degree,
		pairBits:  bits.Len(uint(degree*degree - 1)),
		digitBits: bits.Len(uint(degree - 1)),
		pairs:     make([][2]byte, degree*degree),
		seed:      maphash.MakeSeed(),
		index:     make([]uint32, size),
	}
	t.codeLen = (depth/2*t.pairBits + depth%2*t.digitBits + 7) / 8
	for v := range t.pairs {
		t.pairs[v] = [2]byte{byte(v / degree), byte(v % degree)}
	}
	return t
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
	if t.caps.On() {
		return units{capacity: t.caps.Get(2 * slot), active: t.caps.Get(2*slot + 1)}
	}
	return units{capacity: 1, active: int32(t.at(slot).word & activeBit)}
}

// addActive moves the slot's outstanding assignments by delta and returns
// the new count.
func (t *slotTable) addActive(slot int, delta int32) int32 {
	if t.caps.On() {
		active := t.caps.Get(2*slot+1) + delta
		t.caps.Set(2*slot+1, active)
		return active
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
	t.caps = hst.NewCells(pageBits+1, len(t.pages))
	for slot := 0; slot < t.n; slot++ {
		rec := t.at(slot)
		t.caps.Set(2*slot, 1)
		t.caps.Set(2*slot+1, int32(rec.word&activeBit))
		rec.word &^= activeBit
	}
}

// codeView reads code bytes as an hst.Code without copying them. The view
// changes when the bytes do: it is for validating, comparing and handing to
// callees that do not retain it, never for storing.
func codeView(b []byte) hst.Code {
	return hst.Code(unsafe.String(unsafe.SliceData(b), len(b)))
}

// packed is the slot's packed code in its page's slab.
func (t *slotTable) packed(slot int) []byte {
	off := (slot & (pageLen - 1)) * t.codeLen
	return t.codes[slot>>pageBits][off : off+t.codeLen]
}

// lag is how many epochs the slot's report is behind the table's.
func (t *slotTable) lag(slot int) int64 {
	if slot < len(t.lags) {
		return t.lags[slot]
	}
	return 0
}

// report is the packed code of a slot whose report is of the table's epoch.
// A carried stint has none; nothing may ask for it.
func (t *slotTable) report(slot int) []byte {
	if t.lag(slot) != 0 {
		panic("platform: code of a stint carried from another epoch read")
	}
	return t.packed(slot)
}

// pack writes code, whose digits are below the degree, to dst as codeLen
// bytes.
func (t *slotTable) pack(dst []byte, code hst.Code) {
	var acc uint32
	n, k := 0, 0
	put := func(v uint32, w int) {
		acc |= v << n
		for n += w; n >= 8; n -= 8 {
			dst[k] = byte(acc)
			acc >>= 8
			k++
		}
	}
	j := 0
	for ; j+1 < len(code); j += 2 {
		put(uint32(code[j])*uint32(t.degree)+uint32(code[j+1]), t.pairBits)
	}
	if j < len(code) {
		put(uint32(code[j]), t.digitBits)
	}
	if n > 0 {
		dst[k] = byte(acc)
	}
}

// code decodes the slot's leaf code into *buf, grown to the depth when it
// is shorter, and returns a view of it, valid until *buf is written again:
// goroutines decoding at once each need a buffer of their own.
func (t *slotTable) code(slot int, buf *[]byte) hst.Code {
	src := t.report(slot)
	if cap(*buf) < t.depth {
		*buf = make([]byte, t.depth)
	}
	dst := (*buf)[:t.depth]
	var acc uint32
	n, k := 0, 0
	take := func(w int) uint32 {
		for ; n < w; n += 8 {
			acc |= uint32(src[k]) << n
			k++
		}
		v := acc & (1<<w - 1)
		acc >>= w
		n -= w
		return v
	}
	j := 0
	for ; j+1 < len(dst); j += 2 {
		p := t.pairs[take(t.pairBits)]
		dst[j], dst[j+1] = p[0], p[1]
	}
	if j < len(dst) {
		dst[j] = byte(take(t.digitBits))
	}
	return codeView(dst)
}

// setCode stores a report made under the table's epoch in the slot.
func (t *slotTable) setCode(slot int, code hst.Code) {
	if len(code) != t.depth {
		panic("platform: code length differs from the table's depth")
	}
	t.pack(t.packed(slot), code)
	if slot < len(t.lags) {
		t.lags[slot] = 0
	}
}

// reportEpoch is the epoch the slot's report was obfuscated under.
func (t *slotTable) reportEpoch(slot int) int64 {
	return t.epoch - t.lag(slot)
}

// bytes is the table's own allocation: record pages, packed code slabs,
// capacity column, id slab, carried lags, id index and pair table.
func (t *slotTable) bytes() int {
	return len(t.pages)*pageLen*(recordBytes+t.codeLen) + int(t.caps.Bytes()) +
		len(t.slab)*idChunkLen + 8*cap(t.lags) + 4*len(t.index) + 2*len(t.pairs)
}

// hash returns the id's first probe position and its entries' tag.
func (t *slotTable) hash(id string) (home int, tag uint32) {
	h := maphash.String(t.seed, id)
	hi, _ := bits.Mul64(h, uint64(len(t.index)))
	return int(hi), uint32(h) &^ slotMask
}

// idProbe is where a probe found an id's entry, or the empty position its
// entry would take; it holds until the table next changes.
type idProbe struct {
	pos   int
	tag   uint32
	found bool
}

// probe walks the id's probe sequence to the position holding its entry,
// or to the empty position where its entry would go.
func (t *slotTable) probe(id string) idProbe {
	i, tag := t.hash(id)
	for {
		e := t.index[i]
		if e == 0 {
			return idProbe{i, tag, false}
		}
		if e&^slotMask == tag && t.idIs(t.at(int(e&slotMask-1)).id, id) {
			return idProbe{i, tag, true}
		}
		if i++; i == len(t.index) {
			i = 0
		}
	}
}

// slotOf is the latest slot added under a found id.
func (t *slotTable) slotOf(p idProbe) int {
	return int(t.index[p.pos]&slotMask - 1)
}

// lookup returns the latest slot added under the id.
func (t *slotTable) lookup(id string) (slot int, ok bool) {
	if p := t.probe(id); p.found {
		return t.slotOf(p), true
	}
	return 0, false
}

// add opens a fresh stint of the id, probed as p — available, nothing
// assigned — with its ledger cell and its report under the table's epoch.
func (t *slotTable) add(p idProbe, id string, reports uint32, capacity int32, code hst.Code) (slot int) {
	return t.push(p, id, stateAvailable, 0, reports, units{capacity: capacity}, code)
}

// adopt appends a copy of another table's slot in state st, its report lag
// epochs behind this table's (with code when lag is 0). Lagging slots come
// first.
func (t *slotTable) adopt(old *slotTable, slot int, st workerState, lag int64, code hst.Code) int {
	id := old.id(slot)
	return t.push(t.probe(id), id, st, lag, old.at(slot).reports(), old.units(slot), code)
}

// push appends a slot and points its id, probed as p, at it. An id the table
// already holds keeps its one copy in the slab; the table must have room.
func (t *slotTable) push(p idProbe, id string, st workerState, lag int64, reports uint32, u units, code hst.Code) (slot int) {
	if lag < 0 || lag > 0 && t.n != len(t.lags) {
		panic("platform: a lagging report must come before every current one")
	}
	if 5*(t.ids+1) > 4*len(t.index) {
		t.grow() // re-places every entry, p's position included
		p = t.probe(id)
	}
	ref := uint32(0)
	if p.found {
		ref = t.at(t.slotOf(p)).id
	} else {
		ref = t.putID(id)
		t.ids++
	}
	slot = t.n
	if slot>>pageBits == len(t.pages) {
		t.pages = append(t.pages, new([pageLen]record))
		t.codes = append(t.codes, make([]byte, pageLen*t.codeLen))
		if t.caps.On() {
			t.caps.AddPage()
		}
	}
	if u.capacity != 1 && !t.caps.On() {
		t.addColumn()
	}
	t.n++
	*t.at(slot) = record{id: ref, word: reports<<reportShift | uint32(st)<<stateShift}
	if t.caps.On() {
		t.caps.Set(2*slot, u.capacity)
		t.caps.Set(2*slot+1, u.active)
	} else {
		t.addActive(slot, u.active)
	}
	if lag == 0 {
		t.setCode(slot, code)
	} else {
		t.lags = append(t.lags, lag)
	}
	t.index[p.pos] = p.tag | uint32(slot+1)
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
