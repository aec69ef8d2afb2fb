package platform

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// TestSlotPageSizeClasses pins what a slot costs: a 40-byte record in a
// 1,024-record page that the allocator serves as exactly 40 KiB (five heap
// pages, no type header), and a code slab of 1,024 × depth bytes that is a
// size class of its own at the benchmark's depth 10 and at 8, 12 and 16.
// README's bytes-per-worker arithmetic rests on these.
func TestSlotPageSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 40 {
		t.Fatalf("record is %d bytes, want 40", got)
	}
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	const recordPage = 40 << 10
	for depth, slab := range map[int]uint64{8: 8 << 10, 10: 10 << 10, 12: 12 << 10, 16: 16 << 10} {
		// Room for the page pointers and an index that will not grow: the
		// first add of a page then allocates the page and nothing else.
		tab := newSlotTable(4*pageLen, depth, 1)
		tab.pages = make([]*[pageLen]record, 0, 4)
		tab.codes = make([][]byte, 0, 4)
		code := hst.Code(make([]byte, depth))
		best := ^uint64(0)
		for page := 0; page < 4; page++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tab.add(record{id: "first"}, code)
			runtime.ReadMemStats(&after)
			// Another goroutine's allocation can only add to a reading.
			best = min(best, after.TotalAlloc-before.TotalAlloc)
			for tab.len()%pageLen != 0 {
				tab.add(record{id: "fill"}, code)
			}
		}
		if best != recordPage+slab {
			t.Errorf("depth %d: a page allocates %d bytes, want %d of records + %d of codes",
				depth, best, recordPage, slab)
		}
		if got := tab.bytes(); got != 4*pageLen*(40+depth)+4*len(tab.index) {
			t.Errorf("depth %d: bytes() = %d", depth, got)
		}
	}
}

// indexModel is the reference the id index is checked against: a Go map
// from id to its latest slot.
type indexModel struct {
	t     *testing.T
	tab   *slotTable
	model map[string]int
}

func newIndexModel(t *testing.T, sizeFor int) *indexModel {
	return &indexModel{t: t, tab: newSlotTable(sizeFor, 0, 1), model: map[string]int{}}
}

func (m *indexModel) add(id string) {
	slot := m.tab.add(record{id: id}, "")
	if slot != m.tab.len()-1 {
		m.t.Fatalf("add(%q) returned slot %d with %d slots in use", id, slot, m.tab.len())
	}
	m.model[id] = slot
}

func (m *indexModel) checkID(id string) {
	got, ok := m.tab.lookup(id)
	want, wantOK := m.model[id]
	if ok != wantOK || (ok && got != want) {
		m.t.Fatalf("lookup(%q) = %d,%v; the map says %d,%v (%d slots, %d ids, index %d)",
			id, got, ok, want, wantOK, m.tab.len(), m.tab.ids, len(m.tab.index))
	}
}

func (m *indexModel) checkAll() {
	for id := range m.model {
		m.checkID(id)
	}
	if m.tab.ids != len(m.model) {
		m.t.Fatalf("index counts %d ids, the map holds %d", m.tab.ids, len(m.model))
	}
	if 2*m.tab.ids > len(m.tab.index) {
		m.t.Fatalf("index load above ½: %d ids in %d entries", m.tab.ids, len(m.tab.index))
	}
	for slot := 0; slot < m.tab.len(); slot++ {
		if id := m.tab.at(slot).id; m.model[id] < slot {
			m.t.Fatalf("slot %d holds %q, whose latest slot the map puts at %d", slot, id, m.model[id])
		}
	}
}

// rebuild replays what a rotation does: a fresh table, sized for the
// survivors, filled in slot order with every id's latest record that keep
// selects.
func (m *indexModel) rebuild(keep func(slot int) bool) {
	next := newIndexModel(m.t, len(m.model))
	for slot := 0; slot < m.tab.len(); slot++ {
		if id := m.tab.at(slot).id; m.model[id] == slot && keep(slot) {
			next.add(id)
		}
	}
	*m = *next
}

// TestIDIndexMatchesMap is the id index's differential test: growth from an
// empty table through several doublings, re-adds of known ids (a revival
// repoints the id at its new slot), lookups of absent ids, and rebuilds.
func TestIDIndexMatchesMap(t *testing.T) {
	src := rng.New(11)
	m := newIndexModel(t, 0)
	name := func(k int) string { return fmt.Sprintf("worker-%d", k) }
	for round := 0; round < 6; round++ {
		keys := 200 << round
		for op := 0; op < 3*keys; op++ {
			k := src.Intn(keys)
			switch src.Intn(3) {
			case 0, 1:
				m.add(name(k))
			default:
				m.checkID(name(k))
				m.checkID(name(k + keys)) // never added this round or before
			}
		}
		m.checkAll()
		if round%2 == 1 {
			m.rebuild(func(slot int) bool { return slot%3 != 0 })
			m.checkAll()
		}
	}
	if m.tab.len() < 3*pageLen {
		t.Fatalf("the tape filled only %d slots; it must cross several pages", m.tab.len())
	}
}

// FuzzIDIndex decodes an op tape — add, lookup, rebuild over a key space
// the first byte sizes — and checks the index against a Go map after every
// step that reads.
func FuzzIDIndex(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 1, 1, 0, 1, 2, 0})
	f.Add([]byte{255, 0, 7, 0, 7, 0, 7, 1, 7, 2, 9, 0, 7, 1, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		keys := int(tape[0]) + 1
		m := newIndexModel(t, 0)
		for i := 1; i+1 < len(tape); i += 2 {
			id := fmt.Sprintf("k%d", int(tape[i+1])%keys)
			switch tape[i] % 3 {
			case 0:
				m.add(id)
			case 1:
				m.checkID(id)
			default:
				parity := int(tape[i+1]) % 2
				m.rebuild(func(slot int) bool { return slot%2 == parity })
			}
		}
		m.checkAll()
	})
}
