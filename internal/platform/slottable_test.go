package platform

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"testing"
	"unsafe"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// TestSlotPageSizeClasses pins what a slot costs: an 8-byte record in a
// 1,024-record page that the allocator serves as exactly 8 KiB (a size
// class; no pointers, so no type header), a slab of 1,024 packed codes that
// is a size class of its own at the code lengths the cases name — 6 B on
// the benchmark's tree — and on a capacity-aware table whose counts fit a
// byte a 2 KiB page of capacity cells, two a slot. README's
// bytes-per-worker arithmetic rests on these.
func TestSlotPageSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 8 {
		t.Fatalf("record is %d bytes, want 8", got)
	}
	for _, tc := range []struct{ depth, degree, codeLen int }{
		{10, 22, 6}, // the benchmark's tree: five 9-bit pairs
		{13, 22, 8}, // six pairs and a 5-bit digit: 59 bits
		{16, 16, 8}, // 8-bit pairs: a byte a pair
		{10, 255, 10},
		{20, 22, 12},
	} {
		if got := newSlotTable(0, tc.depth, tc.degree, 1).codeLen; got != tc.codeLen {
			t.Errorf("depth %d, degree %d: a code packs into %d bytes, want %d", tc.depth, tc.degree, got, tc.codeLen)
		}
	}
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	const recordPage, capsPage = 8 << 10, 2 << 10
	for _, capacity := range []int32{1, 4} {
		for _, tc := range []struct{ depth, degree int }{{10, 22}, {16, 16}, {10, 255}, {20, 22}} {
			// Room for the page pointers and an index that will not grow, and
			// two ids added over and over: the first add of a page after the
			// first (which also takes the id chunk) then allocates the page
			// and nothing else — on the last page, at least, once the column's
			// page list has doubled to room for four.
			tab := newSlotTable(4*pageLen, tc.depth, tc.degree, 1)
			tab.pages = make([]*[pageLen]record, 0, 4)
			tab.codes = make([][]byte, 0, 4)
			if capacity != 1 {
				tab.caps = hst.NewCells(pageBits+1, 0) // the column from the first slot on
			}
			code := hst.Code(make([]byte, tc.depth))
			want := uint64(recordPage + pageLen*tab.codeLen)
			if capacity != 1 {
				want += capsPage
			}
			best := ^uint64(0)
			for page := 0; page < 4; page++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tab.add(tab.probe("first"), "first", 0, capacity, code)
				runtime.ReadMemStats(&after)
				// Another goroutine's allocation can only add to a reading.
				if page > 0 {
					best = min(best, after.TotalAlloc-before.TotalAlloc)
				}
				for tab.len()%pageLen != 0 {
					tab.add(tab.probe("fill"), "fill", 0, capacity, code)
				}
			}
			if best != want {
				t.Errorf("capacity %d, depth %d, degree %d: a page allocates %d bytes, want %d",
					capacity, tc.depth, tc.degree, best, want)
			}
			perSlot := 8 + tab.codeLen
			if capacity != 1 {
				perSlot += 2
			}
			if got := tab.bytes(); got != 4*pageLen*perSlot+idChunkLen+4*len(tab.index)+2*tc.degree*tc.degree {
				t.Errorf("capacity %d, depth %d, degree %d: bytes() = %d", capacity, tc.depth, tc.degree, got)
			}
		}
	}
}

// TestRegistryFootprint is the registry's twin of
// engine.TestIndexFootprintAtBenchmarkDensity: Stats().RegistryBytes per
// worker on the benchmark's tree (64×64 grid, depth 10, degree 22) after
// in-process registrations whose ids the caller owns and names as the
// benchmark does, "w0" to "w65535". A slot is an 8 B record and a 6 B
// packed code; an id is its bytes and a length byte in the slab (7 B with
// the last chunk's slack at both sizes) and 4 B index entries at 67 % load
// (6 B); a capacity-aware table adds 2 B of cells, a byte each for
// capacity and active. So 27 and 29 B, under ceilings of 28 and 30.
func TestRegistryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 8 {
		t.Fatalf("record is %d bytes, want 8", got)
	}
	for _, tc := range []struct {
		name    string
		opts    []ServerOption
		ceiling float64 // bytes per worker
	}{
		{"greedy with a lifetime budget", []ServerOption{WithLifetimeBudget(1e12)}, 28},
		{"capacity-greedy, capacity 4", []ServerOption{WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(4)}, 30},
	} {
		for _, n := range []int{16384, 65536} {
			s, err := NewServer(workload.SyntheticRegion, 64, 64, 0.6, 7, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			tree := s.Publication().Tree
			if tree.Depth() != 10 || tree.Degree() != 22 || s.tab.codeLen != 6 {
				t.Fatalf("the benchmark's tree has depth %d, degree %d and %d B codes; want 10, 22 and 6",
					tree.Depth(), tree.Degree(), s.tab.codeLen)
			}
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

// FuzzCodePack checks the packed code slab at any degree from 2 to 255 and
// any depth from 1 to 24, over arbitrary digit strings — the leaves of the
// complete tree, fake ones included: a stored code decodes to itself, a
// neighbour's store leaves it alone, and two codes' packed bytes are equal
// exactly when the codes are.
func FuzzCodePack(f *testing.F) {
	f.Add(uint8(20), uint8(9), []byte{21, 0, 3, 7, 21, 21, 0, 1, 2, 3}, uint8(0), uint8(0))
	f.Add(uint8(20), uint8(9), []byte{21, 0, 3, 7, 21, 21, 0, 1, 2, 3}, uint8(9), uint8(1))
	f.Add(uint8(253), uint8(23), bytes.Repeat([]byte{254}, 24), uint8(23), uint8(200))
	f.Add(uint8(0), uint8(0), []byte{1}, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, degreeSeed, depthSeed uint8, digits []byte, at, delta uint8) {
		degree, depth := 2+int(degreeSeed)%254, 1+int(depthSeed)%24
		a := make([]byte, depth)
		for j := range a {
			if j < len(digits) {
				a[j] = byte(int(digits[j]) % degree)
			}
		}
		// b is a, or a with one digit moved to another value.
		b := bytes.Clone(a)
		if d := int(delta) % degree; d != 0 {
			j := int(at) % depth
			b[j] = byte((int(b[j]) + d) % degree)
		}
		tab := newSlotTable(0, depth, degree, 1)
		if n := depth/2*bits.Len(uint(degree*degree-1)) + depth%2*bits.Len(uint(degree-1)); tab.codeLen != (n+7)/8 {
			t.Fatalf("degree %d, depth %d: %d B codes for %d bits", degree, depth, tab.codeLen, n)
		}
		sa := tab.add(tab.probe("a"), "a", 0, 1, hst.Code(a))
		sb := tab.add(tab.probe("b"), "b", 0, 1, hst.Code(b))
		var buf []byte
		for _, c := range []struct {
			slot int
			want []byte
		}{{sa, a}, {sb, b}} {
			if got := tab.code(c.slot, &buf); string(got) != string(c.want) {
				t.Fatalf("degree %d: stored %v, decoded %v", degree, c.want, []byte(got))
			}
		}
		same := bytes.Equal(a, b)
		if got := bytes.Equal(tab.packed(sa), tab.packed(sb)); got != same {
			t.Fatalf("degree %d: codes %v and %v, packed equal %v", degree, a, b, got)
		}
	})
}

// TestCapacityColumnArrivesLate pins the column's all-or-nothing rule: a
// table of capacity-1 slots keeps each one's assignment in its record, and
// the first slot of another capacity moves every earlier slot into a column
// cell, assignments included.
func TestCapacityColumnArrivesLate(t *testing.T) {
	tab := newSlotTable(0, 2, 3, 1)
	for i := 0; i < pageLen+2; i++ {
		id := fmt.Sprint("w", i)
		tab.add(tab.probe(id), id, 0, 1, "\x01\x02")
	}
	tab.addActive(pageLen, 1)
	mustPanic(t, "a second assignment of a capacity-1 slot without a column", func() { tab.addActive(pageLen, 1) })
	// A pair of base-3 digits packs into 4 bits: a 1-byte code.
	if tab.caps.On() || tab.bytes() != 2*pageLen*(8+1)+idChunkLen+4*len(tab.index)+2*9 {
		t.Fatalf("a capacity-1 table has a column (%v) or reads %d bytes", tab.caps.On(), tab.bytes())
	}
	late := tab.add(tab.probe("late"), "late", 0, 3, "\x01\x02")
	if !tab.caps.On() || tab.bytes() != 2*pageLen*(8+1+2)+idChunkLen+4*len(tab.index)+2*9 {
		t.Fatalf("no column after a capacity-3 slot (%v), or %d bytes", !tab.caps.On(), tab.bytes())
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

// setReports is the test hook on a ledger cell: it sets the count of the
// id's current slot.
func setReports(t *testing.T, s *Server, id string, n uint32) {
	t.Helper()
	slot, ok := s.tab.lookup(id)
	if !ok {
		t.Fatalf("%s is not in the table", id)
	}
	s.tab.at(slot).setReports(n)
}

// TestSaturatedLedgerCellParks pins the ledger cell's 28-bit limit: a fresh
// report that fills the cell to privacy.MaxReports is accepted, and the next
// one parks the worker with the typed refusal — on every path that charges
// a report, under a budget that would still afford it — while the cell
// stays at the cap instead of wrapping.
func TestSaturatedLedgerCellParks(t *testing.T) {
	for _, path := range []string{"register", "reregister", "release", "rotate"} {
		s := newCapServer(t, WithLifetimeBudget(1e12))
		if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0)}); !r.OK {
			t.Fatal(r.Reason)
		}
		setReports(t, s, "w", privacy.MaxReports-1)
		if r := s.Reregister(ReregisterRequest{WorkerID: "w", Code: leaf(s, 1)}); !r.OK {
			t.Fatalf("%s: the report that fills the cell: %s", path, r.Reason)
		}
		var r RegisterResponse
		switch path {
		case "register":
			s.Withdraw(WithdrawRequest{WorkerID: "w"})
			r = s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 2)})
		case "reregister":
			r = s.Reregister(ReregisterRequest{WorkerID: "w", Code: leaf(s, 2)})
		case "release":
			if task := s.Submit(TaskRequest{Code: leaf(s, 2)}); !task.Assigned {
				t.Fatal(task.Reason)
			}
			r = s.Release(ReleaseRequest{WorkerID: "w", Code: leaf(s, 2)})
		case "rotate":
			if rot := s.RotateNow(PrepareRotateRequest{}, nil, rotReporter(rng.New(1))); !rot.OK || len(rot.Parked) != 1 {
				t.Fatalf("rotate: %+v", rot)
			}
			r = s.Reregister(ReregisterRequest{WorkerID: "w", Code: leaf(s, 2)}) // compacted away, still parked
		}
		if r.OK || !r.Parked || r.Err == nil || r.Err.Code != CodeParked {
			t.Fatalf("%s at the cap: %+v", path, r)
		}
		// The server answers the id parked from now on, and counts it once.
		if w := s.Withdraw(WithdrawRequest{WorkerID: "w"}); w.OK || !w.Parked || s.Stats().ParkedWorkers != 1 {
			t.Fatalf("%s: after the refusal a withdrawal answers %+v, %d parked", path, w, s.Stats().ParkedWorkers)
		}
		if got, want := s.Spent("w"), float64(privacy.MaxReports)*0.6; got != want {
			t.Fatalf("%s: the parked worker has spent %v, want %v", path, got, want)
		}
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
	return &indexModel{t: t, tab: newSlotTable(sizeFor, 0, 1, 1), model: map[string]int{}}
}

// add goes the way Register does: one probe answers whether the id is
// known and, passed on, where its entry goes — also when the add grows the
// index under it.
func (m *indexModel) add(id string) {
	p := m.tab.probe(id)
	if _, known := m.model[id]; p.found != known {
		m.t.Fatalf("probe(%q) found %v; the map says %v", id, p.found, known)
	}
	slot := m.tab.add(p, id, 0, 1, "")
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
