package platform

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/epoch"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// modelWorker is what the registry model remembers of one id: where its
// live stint sits, and enough of its lifecycle to pick legal next steps.
type modelWorker struct {
	slot      int
	epoch     int64 // epoch of its report
	capacity  int
	active    int
	withdrawn bool // spare units gone; offline at its last completion
	gone      bool // offline: no live stint
}

func (w *modelWorker) pooled() bool { return !w.gone && !w.withdrawn && w.active < w.capacity }

// registryModel drives a capacitated server through every worker operation
// and keeps, beside it, the plain model the slot table's code slabs are
// checked against: a map from slot to the code string last stored there.
type registryModel struct {
	t       *testing.T
	s       *Server
	eng     *engine.Engine
	src     *rng.Source
	workers map[string]*modelWorker
	names   []string       // every id ever registered, in order
	codes   map[int]string // slot → code, for every slot holding a report of the serving epoch
}

// randCode draws a request's code bytes: any leaf of the tree, fake ones
// included.
func (m *registryModel) randCode(tree *hst.Tree) []byte {
	code, _ := rotReporter(m.src)("", tree)
	return []byte(code)
}

// pick returns a random id satisfying keep, or "".
func (m *registryModel) pick(keep func(*modelWorker) bool) string {
	var ids []string
	for _, id := range m.names {
		if keep(m.workers[id]) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	return ids[m.src.Intn(len(ids))]
}

func (m *registryModel) register() {
	id := m.pick(func(w *modelWorker) bool { return w.gone })
	if id == "" || m.src.Intn(2) == 0 {
		id = fmt.Sprintf("w%d", len(m.names))
	}
	code := m.randCode(m.s.pub.Tree)
	if r := m.s.Register(RegisterRequest{WorkerID: id, Code: code}); !r.OK {
		m.t.Fatalf("register %s: %s", id, r.Reason)
	}
	slot, _ := m.s.tab.lookup(id)
	if _, known := m.workers[id]; !known {
		m.names = append(m.names, id)
	}
	m.workers[id] = &modelWorker{slot: slot, epoch: m.s.epoch, capacity: 2}
	m.codes[slot] = string(code)
	clear(code) // the request's bytes are the caller's again
}

func (m *registryModel) submit() {
	code := m.randCode(m.s.pub.Tree)
	resp := m.s.Submit(TaskRequest{Code: code})
	if !resp.Assigned {
		if id := m.pick((*modelWorker).pooled); id != "" {
			m.t.Fatalf("task refused (%s) with %s in the pool", resp.Reason, id)
		}
		return
	}
	w := m.workers[resp.WorkerID]
	if !w.pooled() || resp.Epoch != m.s.epoch {
		m.t.Fatalf("task assigned to %s (%+v), epoch %d", resp.WorkerID, w, resp.Epoch)
	}
	w.active++
}

func (m *registryModel) release(fresh bool) {
	id := m.pick(func(w *modelWorker) bool { return !w.gone && w.active > 0 })
	if id == "" {
		return
	}
	w := m.workers[id]
	req := ReleaseRequest{WorkerID: id}
	if fresh {
		req.Code = m.randCode(m.s.pub.Tree)
	}
	r := m.s.Release(req)
	switch {
	case w.withdrawn:
		if r.OK || !strings.Contains(r.Reason, "has withdrawn") {
			m.t.Fatalf("release of withdrawn %s: %+v", id, r)
		}
		if w.active--; w.active == 0 {
			w.gone = true
			delete(m.codes, w.slot)
		}
	case !fresh && w.epoch != m.s.epoch:
		want := fmt.Sprintf("platform: worker %q report is from epoch %d (serving %d); a fresh report is required",
			id, w.epoch, m.s.epoch)
		if r.OK || r.Reason != want {
			m.t.Fatalf("same-code release of carried %s: %+v, want refusal %q", id, r, want)
		}
	default:
		if !r.OK {
			m.t.Fatalf("release %s (fresh %v): %s", id, fresh, r.Reason)
		}
		w.active--
		if fresh {
			w.epoch = m.s.epoch
			m.codes[w.slot] = string(req.Code)
			clear(req.Code)
		}
	}
}

func (m *registryModel) reregister() {
	id := m.pick((*modelWorker).pooled)
	if id == "" {
		return
	}
	code := m.randCode(m.s.pub.Tree)
	if r := m.s.Reregister(ReregisterRequest{WorkerID: id, Code: code}); !r.OK {
		m.t.Fatalf("reregister %s: %s", id, r.Reason)
	}
	m.codes[m.workers[id].slot] = string(code)
	clear(code)
}

func (m *registryModel) withdraw() {
	id := m.pick(func(w *modelWorker) bool { return !w.gone && !w.withdrawn })
	if id == "" {
		return
	}
	if r := m.s.Withdraw(WithdrawRequest{WorkerID: id}); !r.OK {
		m.t.Fatalf("withdraw %s: %s", id, r.Reason)
	}
	w := m.workers[id]
	if w.withdrawn = true; w.active == 0 {
		w.gone = true
		delete(m.codes, w.slot)
	}
}

// rotate re-reports about two pooled workers in three; the rest are dropped,
// and every busy stint is carried.
func (m *registryModel) rotate() {
	prep := m.s.PrepareRotate(PrepareRotateRequest{Seed: m.src.Uint64() | 1})
	if !prep.OK {
		m.t.Fatal(prep.Reason)
	}
	var reports []WorkerReport
	for _, id := range m.names {
		if w := m.workers[id]; w.pooled() && m.src.Intn(3) > 0 {
			reports = append(reports, WorkerReport{WorkerID: id, Code: m.randCode(prep.Tree)})
		}
	}
	resp := m.s.Rotate(RotateRequest{Epoch: prep.Epoch, Reports: reports})
	if !resp.OK || resp.Rotated != len(reports) || resp.Skipped != 0 {
		m.t.Fatalf("rotate with %d reports: %+v", len(reports), resp)
	}
	fresh := map[string]string{}
	for _, r := range reports {
		fresh[r.WorkerID] = string(r.Code)
		clear(r.Code)
	}
	dropped := 0
	m.codes = map[int]string{}
	for _, id := range m.names {
		w := m.workers[id]
		if w.gone {
			continue
		}
		code, reported := fresh[id]
		switch {
		case reported:
			w.epoch = prep.Epoch
		case w.pooled():
			dropped++
			if w.withdrawn = true; w.active == 0 {
				w.gone = true
				continue
			}
		}
		slot, ok := m.s.tab.lookup(id)
		if !ok {
			m.t.Fatalf("%s (%+v) did not survive the rotation", id, w)
		}
		if w.slot = slot; reported {
			m.codes[slot] = code
		}
	}
	if dropped != len(resp.Dropped) {
		m.t.Fatalf("rotation dropped %v, the model %d workers", resp.Dropped, dropped)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// check compares the table with the model slot by slot, and the engine's
// pool with both.
func (m *registryModel) check(step int, op string) {
	m.t.Helper()
	tab := m.s.tab
	if tab.depth != m.s.pub.Tree.Depth() || tab.epoch != m.s.epoch {
		m.t.Fatalf("step %d (%s): table of depth %d, epoch %d under a tree of depth %d, epoch %d",
			step, op, tab.depth, tab.epoch, m.s.pub.Tree.Depth(), m.s.epoch)
	}
	bySlot := map[int]*modelWorker{}
	for _, id := range m.names {
		w := m.workers[id]
		slot, ok := tab.lookup(id)
		if !ok && w.gone {
			continue // compacted away
		}
		if !ok || tab.at(slot).id != id {
			m.t.Fatalf("step %d (%s): %s resolves to slot %d, %v", step, op, id, slot, ok)
		}
		if w.gone {
			continue
		}
		bySlot[slot] = w
		if slot != w.slot || tab.reportEpoch(slot) != w.epoch {
			m.t.Fatalf("step %d (%s): %s sits in slot %d with a report of epoch %d, the model says slot %d, epoch %d",
				step, op, id, slot, tab.reportEpoch(slot), w.slot, w.epoch)
		}
		want, has := m.codes[slot]
		if w.epoch != m.s.epoch {
			if has {
				m.t.Fatalf("step %d (%s): the model kept a code for carried slot %d", step, op, slot)
			}
			mustPanic(m.t, "reading a carried stint's code", func() { tab.code(slot) })
			continue
		}
		if got := string(tab.code(slot)); !has || got != want {
			m.t.Fatalf("step %d (%s): slot %d (%s) holds code %q, the model %q", step, op, slot, id, got, want)
		}
	}
	pooled := 0
	m.eng.WalkCap(func(code hst.Code, slot, units int) {
		pooled++
		w := bySlot[slot]
		if w == nil || !w.pooled() || units != w.capacity-w.active || string(code) != m.codes[slot] {
			m.t.Fatalf("step %d (%s): the engine pools slot %d at %q with %d units; the model has %+v at %q",
				step, op, slot, string(code), units, w, m.codes[slot])
		}
	})
	want := 0
	for _, w := range bySlot {
		if w.pooled() {
			want++
		}
	}
	if pooled != want {
		m.t.Fatalf("step %d (%s): the engine pools %d workers, the model %d", step, op, pooled, want)
	}
}

// modelTree builds a tree over an 8 × 8 grid of a square region of the
// given side. The region's extent sets the tree's depth.
func modelTree(t *testing.T, side float64, seed uint64) *hst.Tree {
	t.Helper()
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side)), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRegistryMatchesCodeModel is the slot table's differential test at the
// server: Register, Submit, Release with the same and with a fresh code,
// Reregister, Withdraw and Rotate in random order against a map of code
// strings, with every request's bytes wiped once the call returned. A
// server's rotations keep the tree's depth — it follows from the predefined
// points, which never change — so to rotate into a deeper and into a
// shallower tree the test hands the server a controller over another point
// set first; the second rotation then carries stints a second epoch.
func TestRegistryMatchesCodeModel(t *testing.T) {
	small, large := modelTree(t, 20, 5), modelTree(t, 200, 6)
	if small.Depth() >= large.Depth() {
		t.Fatalf("tree depths %d and %d: the larger region's must be deeper", small.Depth(), large.Depth())
	}
	for _, tc := range []struct {
		name        string
		first, next *hst.Tree
	}{
		{"deeper", small, large},
		{"shallower", large, small},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engine.NewWithOptions(tc.first, 3, engine.WithPolicy(engine.CapacityGreedy()), engine.WithDefaultCapacity(2))
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithCore(eng))
			if err != nil {
				t.Fatal(err)
			}
			if s.rot, err = epoch.NewController(epoch.Config{Tree: tc.next, Seed: 42, Epsilon: 0.6}); err != nil {
				t.Fatal(err)
			}
			m := &registryModel{t: t, s: s, eng: eng, src: rng.New(17),
				workers: map[string]*modelWorker{}, codes: map[int]string{}}
			// Two pages of workers up front, so the serving table and the ones
			// the rotations build all cross a page boundary.
			for i := 0; i < 2*pageLen; i++ {
				m.register()
			}
			m.check(-1, "load")
			ops := map[string]int{}
			carriedTwice, rotatedPages := false, 0
			for step := 0; step < 3000; step++ {
				op := "rotate"
				switch k := m.src.Intn(100); {
				case step == 1000 || step == 1200 || step == 2200:
					m.rotate()
					rotatedPages = max(rotatedPages, len(s.tab.pages))
				case k < 25:
					op = "register"
					m.register()
				case k < 55:
					op = "submit"
					m.submit()
				case k < 65:
					op = "release"
					m.release(false)
				case k < 80:
					op = "release-fresh"
					m.release(true)
				case k < 90:
					op = "reregister"
					m.reregister()
				default:
					op = "withdraw"
					m.withdraw()
				}
				ops[op]++
				m.check(step, op)
				for _, w := range m.workers {
					carriedTwice = carriedTwice || (!w.gone && m.s.epoch-w.epoch == 2)
				}
			}
			if got := s.pub.Tree.Depth(); got != tc.next.Depth() || s.epoch != 4 {
				t.Fatalf("serving depth %d at epoch %d, want %d at 4", got, s.epoch, tc.next.Depth())
			}
			if !carriedTwice || rotatedPages < 2 {
				t.Fatalf("the tape carried no stint across two rotations (%v) or no rotation built a second page (%d)",
					carriedTwice, rotatedPages)
			}
			keys := make([]string, 0, len(ops))
			for op := range ops {
				keys = append(keys, fmt.Sprint(op, "=", ops[op]))
			}
			sort.Strings(keys)
			t.Log(strings.Join(keys, " "))
		})
	}
}

// TestCodeViewsDoNotEscape pins where the slab's zero-copy views end. The
// server reads request bytes and its own slots in place and hands both to
// the core, which keeps neither (Core's contract; the engine's trie stores
// positions and rebuilds codes when walked). So nothing that outlives a
// call — a TaskResponse, a RotateResponse, a snapshot taken either way —
// may move when the slots behind it are overwritten and the request
// buffers reused.
func TestCodeViewsDoNotEscape(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(2))
	eng := s.Core().(*engine.Engine)
	report := rotReporter(rng.New(23))
	var reqs [][]byte // every request buffer, for wiping
	code := func(tree *hst.Tree) []byte {
		c, _ := report("", tree)
		reqs = append(reqs, []byte(c))
		return reqs[len(reqs)-1]
	}
	for i := 0; i < 40; i++ {
		if r := s.Register(RegisterRequest{WorkerID: fmt.Sprint("w", i), Code: code(s.pub.Tree)}); !r.OK {
			t.Fatal(r.Reason)
		}
	}
	task := s.Submit(TaskRequest{Code: code(s.pub.Tree)})
	if !task.Assigned {
		t.Fatal(task.Reason)
	}
	prep := s.PrepareRotate(PrepareRotateRequest{})
	var reports []WorkerReport
	for i := 5; i < 40; i++ { // w0–w4 are dropped
		reports = append(reports, WorkerReport{WorkerID: fmt.Sprint("w", i), Code: code(prep.Tree)})
	}
	rot := s.Rotate(RotateRequest{Epoch: prep.Epoch, Reports: reports})
	if !rot.OK || len(rot.Dropped) != 5 {
		t.Fatalf("rotate: %+v", rot)
	}
	snap := epoch.Snapshot(eng)
	var viaState, viaEngine bytes.Buffer
	if _, err := snap.WriteTo(&viaState); err != nil {
		t.Fatal(err)
	}
	if _, err := epoch.WriteSnapshot(&viaEngine, eng); err != nil {
		t.Fatal(err)
	}
	wantTask, wantRot := fmt.Sprintf("%#v", task), fmt.Sprintf("%#v", rot)
	wantSnap, wantDoc := fmt.Sprintf("%#v", snap.Workers), viaState.String()
	if wantDoc != viaEngine.String() {
		t.Fatal("the two snapshot writers disagree")
	}

	// Overwrite every slot that holds a code, move the pool on, and wipe
	// every buffer a request ever carried.
	for i := 5; i < 40; i++ {
		if r := s.Reregister(ReregisterRequest{WorkerID: fmt.Sprint("w", i), Code: code(s.pub.Tree)}); !r.OK {
			t.Fatal(r.Reason)
		}
	}
	for i := 0; i < 10; i++ {
		resp := s.Submit(TaskRequest{Code: code(s.pub.Tree)})
		if !resp.Assigned {
			t.Fatal(resp.Reason)
		}
		if r := s.Release(ReleaseRequest{WorkerID: resp.WorkerID, Code: code(s.pub.Tree)}); !r.OK {
			t.Fatal(r.Reason)
		}
	}
	for _, b := range reqs {
		clear(b)
	}
	var again bytes.Buffer
	if _, err := snap.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	for what, pair := range map[string][2]string{
		"TaskResponse":    {fmt.Sprintf("%#v", task), wantTask},
		"RotateResponse":  {fmt.Sprintf("%#v", rot), wantRot},
		"snapshot State":  {fmt.Sprintf("%#v", snap.Workers), wantSnap},
		"snapshot stream": {again.String(), wantDoc},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s changed after its slots were overwritten:\n now %s\n was %s", what, pair[0], pair[1])
		}
	}
}
