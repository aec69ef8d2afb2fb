package platform

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// TestSlotPageSizeClasses pins what a slot costs: a 16-byte record in a
// 1,024-record page that the allocator serves as exactly 16 KiB (a size
// class; no pointers, so no type header), a code slab of 1,024 × depth
// bytes that is a size class of its own at the benchmark's depth 10 and at
// 8, 12 and 16, and on a capacity-aware table an 8 KiB page of capacity
// cells. README's bytes-per-worker arithmetic rests on these.
func TestSlotPageSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 16 {
		t.Fatalf("record is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(units{}); got != 8 {
		t.Fatalf("a capacity cell is %d bytes, want 8", got)
	}
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	const recordPage, capsPage = 16 << 10, 8 << 10
	for _, capacity := range []int32{1, 4} {
		for depth, slab := range map[int]uint64{8: 8 << 10, 10: 10 << 10, 12: 12 << 10, 16: 16 << 10} {
			// Room for the page pointers and an index that will not grow, and
			// two ids added over and over: the first add of a page after the
			// first (which also takes the id chunk) then allocates the page
			// and nothing else.
			tab := newSlotTable(4*pageLen, depth, 1)
			tab.pages = make([]*[pageLen]record, 0, 4)
			tab.codes = make([][]byte, 0, 4)
			if capacity != 1 {
				tab.caps = make([]*[pageLen]units, 0, 4) // the column from the first slot on
			}
			code := hst.Code(make([]byte, depth))
			want := uint64(recordPage) + slab
			if capacity != 1 {
				want += capsPage
			}
			best := ^uint64(0)
			for page := 0; page < 4; page++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tab.add("first", 0, capacity, code)
				runtime.ReadMemStats(&after)
				// Another goroutine's allocation can only add to a reading.
				if page > 0 {
					best = min(best, after.TotalAlloc-before.TotalAlloc)
				}
				for tab.len()%pageLen != 0 {
					tab.add("fill", 0, capacity, code)
				}
			}
			if best != want {
				t.Errorf("capacity %d, depth %d: a page allocates %d bytes, want %d", capacity, depth, best, want)
			}
			perSlot := 16 + depth
			if capacity != 1 {
				perSlot += 8
			}
			if got := tab.bytes(); got != 4*pageLen*perSlot+idChunkLen+4*len(tab.index) {
				t.Errorf("capacity %d, depth %d: bytes() = %d", capacity, depth, got)
			}
		}
	}
}

// TestRegistryFootprint is the registry's twin of
// engine.TestIndexFootprintAtBenchmarkDensity: Stats().RegistryBytes per
// worker on the benchmark's tree (64×64 grid, depth 10) after in-process
// registrations whose ids the caller owns and names as the benchmark does,
// "w0" to "w65535". A slot is a 16 B record and a 10 B code; an id is
// its bytes and a length byte in the slab (7 B with the last chunk's slack
// at both sizes) and 4 B index entries at 67 % load (6 B); a capacity-aware
// table adds an 8 B cell. So 39 and 47 B, under ceilings of 40 and 48.
func TestRegistryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 16 {
		t.Fatalf("record is %d bytes, want 16", got)
	}
	for _, tc := range []struct {
		name    string
		opts    []ServerOption
		ceiling float64 // bytes per worker
	}{
		{"greedy with a lifetime budget", []ServerOption{WithLifetimeBudget(1e12)}, 40},
		{"capacity-greedy, capacity 4", []ServerOption{WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(4)}, 48},
	} {
		for _, n := range []int{16384, 65536} {
			s, err := NewServer(workload.SyntheticRegion, 64, 64, 0.6, 7, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			tree := s.Publication().Tree
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprint("w", i)
			}
			for i, id := range ids {
				if r := s.Register(RegisterRequest{WorkerID: id, Code: []byte(tree.CodeOf(i % tree.NumPoints()))}); !r.OK {
					t.Fatal(r.Reason)
				}
			}
			got := float64(s.Stats().RegistryBytes) / float64(n)
			t.Logf("%s, %d workers: %.1f registry bytes per worker", tc.name, n, got)
			if got > tc.ceiling {
				t.Errorf("%s, %d workers: the registry holds %.1f B/worker, ceiling %.0f", tc.name, n, got, tc.ceiling)
			}
		}
	}
}

// TestCapacityColumnArrivesLate pins the column's all-or-nothing rule: a
// table of capacity-1 slots keeps each one's assignment in its record, and
// the first slot of another capacity moves every earlier slot into a column
// cell, assignments included.
func TestCapacityColumnArrivesLate(t *testing.T) {
	tab := newSlotTable(0, 2, 1)
	for i := 0; i < pageLen+2; i++ {
		tab.add(fmt.Sprint("w", i), 0, 1, "ab")
	}
	tab.addActive(pageLen, 1)
	mustPanic(t, "a second assignment of a capacity-1 slot without a column", func() { tab.addActive(pageLen, 1) })
	if tab.caps != nil || tab.bytes() != 2*pageLen*(16+2)+idChunkLen+4*len(tab.index) {
		t.Fatalf("a capacity-1 table has a column (%v) or reads %d bytes", tab.caps != nil, tab.bytes())
	}
	late := tab.add("late", 0, 3, "ab")
	if tab.caps == nil || tab.bytes() != 2*pageLen*(16+2+8)+idChunkLen+4*len(tab.index) {
		t.Fatalf("no column after a capacity-3 slot (%v), or %d bytes", tab.caps == nil, tab.bytes())
	}
	for slot, want := range map[int]units{0: {1, 0}, pageLen: {1, 1}, pageLen + 1: {1, 0}, late: {3, 0}} {
		if got := tab.units(slot); got != want || tab.at(slot).word&activeBit != 0 {
			t.Errorf("slot %d: %+v (record bit %d), want %+v", slot, got, tab.at(slot).word&activeBit, want)
		}
	}
	if tab.addActive(late, 2) != 2 || tab.addActive(pageLen, -1) != 0 {
		t.Fatal("the column does not count assignments")
	}
}

// TestFullRegistryRefuses pins the refusal at the table's slot cap (the
// index tag's price; the id slab's 4 GiB is the other bound): typed
// retryable unavailable, nothing registered, and the id free once there is
// room.
func TestFullRegistryRefuses(t *testing.T) {
	s := newTestServer(t)
	if r := s.Register(RegisterRequest{WorkerID: "w0", Code: leaf(s, 0)}); !r.OK {
		t.Fatal(r.Reason)
	}
	n := s.tab.n
	s.tab.n = slotMask
	r := s.Register(RegisterRequest{WorkerID: "w1", Code: leaf(s, 1)})
	if s.tab.n = n; r.OK || r.Err == nil || r.Err.Code != CodeUnavailable || !r.Err.Retryable {
		t.Fatalf("register into a full table: %+v", r)
	}
	if st := s.Stats(); st.AvailableWorkers != 1 || st.SlotTableLen != 1 {
		t.Fatalf("the refused registration left %d available, %d slots", st.AvailableWorkers, st.SlotTableLen)
	}
	if r := s.Register(RegisterRequest{WorkerID: "w1", Code: leaf(s, 1)}); !r.OK {
		t.Fatal(r.Reason)
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
	slot := m.tab.add(id, 0, 1, "")
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
	if 5*m.tab.ids > 4*len(m.tab.index) {
		m.t.Fatalf("index load above 80 %%: %d ids in %d entries", m.tab.ids, len(m.tab.index))
	}
	for slot := 0; slot < m.tab.len(); slot++ {
		if id := m.tab.id(slot); m.model[id] < slot {
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
		if id := m.tab.id(slot); m.model[id] == slot && keep(slot) {
			next.add(id)
		}
	}
	*m = *next
}

// TestIDIndexMatchesMap is the id index's differential test: growth from an
// empty table through many growths, re-adds of known ids (a revival
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
