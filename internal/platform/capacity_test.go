package platform

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// newCapServer builds a server running the given policy with the given
// default capacity.
func newCapServer(t testing.TB, opts ...ServerOption) *Server {
	t.Helper()
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// leaf returns a real leaf code of the server's published tree.
func leaf(s *Server, i int) []byte {
	return []byte(s.Publication().Tree.CodeOf(i))
}

func TestCapacityRequiresCapacityAwarePolicy(t *testing.T) {
	if _, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithDefaultCapacity(3)); err == nil {
		t.Error("default capacity 3 accepted under the greedy default policy")
	}
	// Greedy servers clamp per-registration capacities to 1.
	s := newCapServer(t)
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0), Capacity: 4}); !r.OK {
		t.Fatal(r.Reason)
	}
	if st := s.Stats(); st.CapacityUnits != 1 || st.Policy != "greedy" {
		t.Fatalf("stats %+v, want 1 clamped unit under greedy", st)
	}
}

func TestCapacitatedWorkerServesSeveralTasks(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(2))
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0)}); !r.OK {
		t.Fatal(r.Reason)
	}
	if st := s.Stats(); st.AvailableWorkers != 1 || st.CapacityUnits != 2 || st.DefaultCapacity != 2 {
		t.Fatalf("stats %+v", st)
	}
	// Two submissions land on the same worker; the third finds the pool dry.
	for i := 0; i < 2; i++ {
		resp := s.Submit(TaskRequest{Code: leaf(s, 0)})
		if !resp.Assigned || resp.WorkerID != "w" {
			t.Fatalf("submit %d: %+v", i, resp)
		}
	}
	if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); resp.Assigned {
		t.Fatalf("third task assigned beyond capacity: %+v", resp)
	}
	if st := s.Stats(); st.AvailableWorkers != 0 || st.CapacityUnits != 0 {
		t.Fatalf("stats after saturation: %+v", st)
	}
	// One release returns one unit.
	if r := s.Release(ReleaseRequest{WorkerID: "w"}); !r.OK {
		t.Fatal(r.Reason)
	}
	if st := s.Stats(); st.AvailableWorkers != 1 || st.CapacityUnits != 1 {
		t.Fatalf("stats after release: %+v", st)
	}
	if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); !resp.Assigned || resp.WorkerID != "w" {
		t.Fatalf("re-submit after release: %+v", resp)
	}
}

func TestReleaseMovesSpareUnitsToFreshCode(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(3))
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0)}); !r.OK {
		t.Fatal(r.Reason)
	}
	// One task out, two units still pooled at the old leaf.
	if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); !resp.Assigned {
		t.Fatal("submit failed")
	}
	// Completion re-reports at a different leaf: all three remaining units
	// must follow it.
	if r := s.Release(ReleaseRequest{WorkerID: "w", Code: leaf(s, 9)}); !r.OK {
		t.Fatal(r.Reason)
	}
	if st := s.Stats(); st.CapacityUnits != 3 || st.AvailableWorkers != 1 {
		t.Fatalf("stats after moving release: %+v", st)
	}
	// The worker now answers at the new leaf, co-located (level 0).
	resp := s.Submit(TaskRequest{Code: leaf(s, 9)})
	if !resp.Assigned || resp.WorkerID != "w" {
		t.Fatalf("submit at new leaf: %+v", resp)
	}
	if st := s.Stats(); st.MatchLevelCounts[0] != 2 {
		t.Fatalf("expected two level-0 matches, got %v", st.MatchLevelCounts)
	}
}

func TestWithdrawWithOutstandingTasks(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(2))
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0)}); !r.OK {
		t.Fatal(r.Reason)
	}
	if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); !resp.Assigned {
		t.Fatal("submit failed")
	}
	// Withdraw with one task running and one spare unit pooled: the spare
	// unit leaves immediately, no new work arrives.
	if r := s.Withdraw(WithdrawRequest{WorkerID: "w"}); !r.OK {
		t.Fatal(r.Reason)
	}
	if st := s.Stats(); st.AvailableWorkers != 0 || st.CapacityUnits != 0 {
		t.Fatalf("stats after withdraw: %+v", st)
	}
	if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); resp.Assigned {
		t.Fatalf("withdrawn worker got new work: %+v", resp)
	}
	// The outstanding completion is acknowledged but stays out of the pool,
	// and the worker may then register back.
	r := s.Release(ReleaseRequest{WorkerID: "w"})
	if r.OK || !strings.Contains(r.Reason, "withdrawn") {
		t.Fatalf("release after withdraw: %+v", r)
	}
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 3)}); !r.OK {
		t.Fatalf("revival refused: %+v", r)
	}
	if st := s.Stats(); st.CapacityUnits != 2 {
		t.Fatalf("revived stats: %+v", st)
	}
}

func TestBatchOptimalServerAvoidsGreedySteal(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.BatchOptimal(4)))
	tree := s.Publication().Tree
	c1 := tree.CodeOf(0)
	near := []byte(c1)
	near[len(near)-1] = byte((int(near[len(near)-1]) + 1) % tree.Degree())
	far := []byte(c1)
	far[0] = byte((int(far[0]) + 1) % tree.Degree())

	if r := s.Register(RegisterRequest{WorkerID: "w0", Code: []byte(c1)}); !r.OK {
		t.Fatal(r.Reason)
	}
	if r := s.Register(RegisterRequest{WorkerID: "w1", Code: far}); !r.OK {
		t.Fatal(r.Reason)
	}
	resp := s.SubmitBatch(TaskBatchRequest{Tasks: []TaskRequest{
		{TaskID: "a", Code: near},       // one step from w0
		{TaskID: "b", Code: []byte(c1)}, // exactly on w0
	}})
	if !resp.Results[0].Assigned || resp.Results[0].WorkerID != "w1" {
		t.Fatalf("task a: %+v (greedy would steal w0)", resp.Results[0])
	}
	if !resp.Results[1].Assigned || resp.Results[1].WorkerID != "w0" {
		t.Fatalf("task b: %+v", resp.Results[1])
	}
	st := s.Stats()
	if st.BatchWindows != 1 {
		t.Errorf("BatchWindows = %d, want 1", st.BatchWindows)
	}
	if !strings.HasPrefix(st.Policy, "batch-optimal") {
		t.Errorf("Policy = %q", st.Policy)
	}
	if st.AssignedTasks != 2 {
		t.Errorf("AssignedTasks = %d, want 2 under %q", st.AssignedTasks, st.Policy)
	}
}

// TestRotationCarriesCapacity rotates a capacitated worker mid-assignment:
// its remaining units follow it into the new epoch and its outstanding
// task releases against the new slot without an extra budget spend.
func TestRotationCarriesCapacity(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(3))
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0)}); !r.OK {
		t.Fatal(r.Reason)
	}
	if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); !resp.Assigned {
		t.Fatal("submit failed")
	}
	resp := s.RotateNow(PrepareRotateRequest{}, nil, func(_ string, tree *hst.Tree) (hst.Code, error) {
		return tree.CodeOf(5), nil
	})
	if !resp.OK || resp.Rotated != 1 {
		t.Fatalf("rotate: %+v", resp)
	}
	if st := s.Stats(); st.CapacityUnits != 2 || st.AvailableWorkers != 1 {
		t.Fatalf("stats after rotation: %+v", st)
	}
	// The pre-rotation task completes: without a fresh code the unit must
	// rejoin at the rotated slot's new-epoch leaf (no budget spend needed).
	if r := s.Release(ReleaseRequest{WorkerID: "w"}); !r.OK {
		t.Fatalf("post-rotation release: %+v", r)
	}
	if st := s.Stats(); st.CapacityUnits != 3 {
		t.Fatalf("stats after post-rotation release: %+v", st)
	}
	// All three units serve in the new epoch.
	newLeaf := s.Publication().Tree.CodeOf(5)
	for i := 0; i < 3; i++ {
		resp := s.Submit(TaskRequest{Code: []byte(newLeaf)})
		if !resp.Assigned || resp.WorkerID != "w" || resp.Epoch != s.Publication().Epoch {
			t.Fatalf("post-rotation submit %d: %+v", i, resp)
		}
	}
}

func TestRegisterRejectsNegativeCapacity(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()))
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0), Capacity: -1}); r.OK {
		t.Error("negative capacity accepted")
	}
}

// TestRegisterOutOfRangeCapacitySpendsNoBudget pins the validation order:
// a capacity the engine would refuse is rejected before the lifetime
// budget spend, so retries cannot burn a worker's ε on registrations that
// never land.
func TestRegisterOutOfRangeCapacitySpendsNoBudget(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithLifetimeBudget(1.2))
	r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0), Capacity: 1 << 40})
	if r.OK || r.Parked {
		t.Fatalf("out-of-range capacity: %+v", r)
	}
	if st := s.Stats(); st.BudgetSpentTotal != 0 {
		t.Fatalf("refused registration spent budget: %v", st.BudgetSpentTotal)
	}
	// The worker can still afford its real registrations afterwards.
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0), Capacity: 2}); !r.OK {
		t.Fatalf("valid registration refused: %+v", r)
	}
}

// TestCapacityCellsWiden pins the capacity column's width on a served
// table: capacity-4 workers keep it at a byte a cell, one capacity-300
// registration widens it to 2 B — a page of 2,048 cells grows by 2 KiB and
// nothing else moves — and a rotation's next table, built narrow, widens
// to the same 2 B as it adopts the counts. Every slot's units, CapacityUnits
// and RegistryBytes read exactly on both sides of each step.
func TestCapacityCellsWiden(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(4))
	want := map[string]units{}
	for i := range 10 {
		id := fmt.Sprint("w", i)
		if r := s.Register(RegisterRequest{WorkerID: id, Code: leaf(s, i)}); !r.OK {
			t.Fatal(r.Reason)
		}
		want[id] = units{capacity: 4}
	}
	for i := range 6 {
		r := s.Submit(TaskRequest{Code: leaf(s, i%3)})
		if !r.Assigned {
			t.Fatal(r.Reason)
		}
		u := want[r.WorkerID]
		u.active++
		want[r.WorkerID] = u
	}
	check := func(step string, width int) {
		t.Helper()
		pooled := 0
		for slot := 0; slot < s.tab.len(); slot++ {
			id := s.tab.id(slot)
			if got := s.tab.units(slot); got != want[id] {
				t.Fatalf("%s: %s holds %+v, want %+v", step, id, got, want[id])
			}
			pooled += int(want[id].capacity - want[id].active)
		}
		if w := s.tab.caps.Width(); w != width {
			t.Fatalf("%s: %d B capacity cells, want %d", step, w, width)
		}
		if got := s.tab.caps.Bytes(); got != int64(len(s.tab.pages)*2*pageLen*width) {
			t.Fatalf("%s: the column holds %d B beside %d slot pages", step, got, len(s.tab.pages))
		}
		if st := s.Stats(); st.CapacityUnits != pooled || st.RegistryBytes != s.tab.bytes() {
			t.Fatalf("%s: %d units pooled, want %d; registry %d B, table %d B", step, st.CapacityUnits, pooled, st.RegistryBytes, s.tab.bytes())
		}
	}
	check("capacity 4", 1)
	narrow := s.Stats().RegistryBytes
	if r := s.Register(RegisterRequest{WorkerID: "big", Code: leaf(s, 20), Capacity: 300}); !r.OK {
		t.Fatal(r.Reason)
	}
	want["big"] = units{capacity: 300}
	check("capacity 300", 2)
	if got := s.Stats().RegistryBytes; got != narrow+2*pageLen {
		t.Fatalf("widening the column read %d registry bytes after %d, want 2 KiB more", got, narrow)
	}
	if r := s.RotateNow(PrepareRotateRequest{Seed: 3}, nil, func(_ string, tree *hst.Tree) (hst.Code, error) {
		return tree.CodeOf(7), nil
	}); !r.OK || r.Rotated != len(want) {
		t.Fatalf("rotate: %+v", r)
	}
	check("rotated", 2)
}

// TestReleaseMoveDoesNotResurrectInFlightPop pins the Release/Submit race:
// a concurrent Submit's engine pop that has not yet been recorded under
// the server lock must not be re-created when a Release moves the worker's
// spare units to a fresh leaf — the move is sized by what the engine
// actually still pools, not by capacity−active.
func TestReleaseMoveDoesNotResurrectInFlightPop(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(3))
	if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0)}); !r.OK {
		t.Fatal(r.Reason)
	}
	if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); !resp.Assigned {
		t.Fatal("submit failed")
	}
	// Simulate a Submit mid-flight: the pop has happened engine-side, the
	// bookkeeping under mu has not.
	if _, _, ok := s.Core().Assign(hst.Code(leaf(s, 0))); !ok {
		t.Fatal("in-flight pop failed")
	}
	// The worker completes its first task and re-reports a fresh leaf.
	if r := s.Release(ReleaseRequest{WorkerID: "w", Code: leaf(s, 9)}); !r.OK {
		t.Fatal(r.Reason)
	}
	// Units now pooled: capacity 3 − 1 recorded active... the release
	// returned one unit and moved the single genuinely pooled unit; the
	// in-flight unit must stay consumed.
	if got := s.Core().CapacityUnits(); got != 2 {
		t.Fatalf("engine pools %d units after the racy move, want 2 (in-flight pop resurrected)", got)
	}
}

// TestReleaseMoveRacesSubmitAndWithdraw races capacity-4 workers' Releases
// with a fresh code — each one engine call that moves the pooled units —
// against Submits and Withdraws (each withdrawn worker registers back once
// its last task is in). Only the even-indexed half is ever withdrawn: were
// every worker offline while holding its units, no move could land. No
// answer may name a worker holding all its units already, and once the
// storm settles the engine must pool exactly what the slot table says:
// Σ (capacity − active) over the available slots.
func TestReleaseMoveRacesSubmitAndWithdraw(t *testing.T) {
	const workers, capacity = 24, 4
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(capacity))
	name := func(i int) string { return fmt.Sprintf("w%d", i) }
	for i := 0; i < workers; i++ {
		if r := s.Register(RegisterRequest{WorkerID: name(i), Code: leaf(s, i)}); !r.OK {
			t.Fatal(r.Reason)
		}
	}
	var (
		mu          sync.Mutex
		outstanding = map[string]int{} // tasks answered and not yet handed to Release
		moves       int
	)
	held := make(chan string, workers*capacity)
	release := func(w string, src *rng.Source) {
		mu.Lock()
		outstanding[w]--
		mu.Unlock()
		r := s.Release(ReleaseRequest{WorkerID: w, Code: leaf(s, src.Intn(64))})
		if !r.OK && !strings.Contains(r.Reason, "withdrawn") {
			t.Errorf("release %s: %s", w, r.Reason)
		}
		mu.Lock()
		if r.OK {
			moves++
		}
		mu.Unlock()
	}
	rounds := stressScale(1500)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() { // submitter
			defer wg.Done()
			src := rng.New(uint64(100 + g))
			for i := 0; i < rounds; i++ {
				resp := s.Submit(TaskRequest{Code: leaf(s, src.Intn(64))})
				if !resp.Assigned {
					continue
				}
				mu.Lock()
				if outstanding[resp.WorkerID]++; outstanding[resp.WorkerID] > capacity {
					t.Errorf("worker %s answered with %d tasks out, capacity %d", resp.WorkerID, outstanding[resp.WorkerID], capacity)
				}
				mu.Unlock()
				held <- resp.WorkerID
			}
		}()
		go func() { // releaser: hands tasks back until the submitters stop
			defer wg.Done()
			src := rng.New(uint64(200 + g))
			for i := 0; i < rounds/2; i++ {
				select {
				case w := <-held:
					release(w, src)
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // withdrawer: takes a worker offline, and back once it can
		defer wg.Done()
		src := rng.New(300)
		var gone []string
		for i := 0; i < rounds/8; i++ {
			w := name(2 * src.Intn(workers/2))
			if r := s.Withdraw(WithdrawRequest{WorkerID: w}); r.OK {
				gone = append(gone, w)
			}
			back := gone[:0]
			for _, w := range gone {
				if r := s.Register(RegisterRequest{WorkerID: w, Code: leaf(s, src.Intn(64))}); !r.OK {
					back = append(back, w) // a task still out: registers later
				}
			}
			gone = back
			runtime.Gosched()
		}
	}()
	wg.Wait()
	src := rng.New(400)
	for len(held) > 0 {
		release(<-held, src)
	}
	if moves == 0 {
		t.Fatal("no release went through: the race exercised nothing")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	want, avail := 0, 0
	for slot := 0; slot < s.tab.len(); slot++ {
		if s.tab.at(slot).state() == stateAvailable {
			u := s.tab.units(slot)
			want += int(u.capacity - u.active)
			avail++
		}
	}
	if got, n := s.eng.CapacityUnits(), s.eng.Len(); got != want || n != avail {
		t.Fatalf("engine pools %d units over %d workers, the slot table %d over %d", got, n, want, avail)
	}
	t.Logf("%d releases went through, %d units pooled over %d workers", moves, want, avail)
}

// TestReregisterMovesPooledUnits is the regression test for Reregister
// re-inserting a capacitated worker at the engine's default capacity: a
// move carries exactly the units still pooled — none minted for a worker
// with a task out, none lost by one registered below the default — and the
// restore after a refused insert puts the same number back.
func TestReregisterMovesPooledUnits(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int // 0: the server default of 4
		units    int // what the pool must hold while one task is out
	}{
		{"default capacity", 0, 3},
		{"explicit capacity below the default", 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := newTestServer(t).Publication().Tree
			eng, err := engine.NewWithOptions(tree, 2, engine.WithPolicy(engine.CapacityGreedy()), engine.WithDefaultCapacity(4))
			if err != nil {
				t.Fatal(err)
			}
			core := &flakyCore{Engine: eng}
			s := newCapServer(t, WithCore(core))
			units := func(when string, want int) {
				t.Helper()
				if st := s.Stats(); st.CapacityUnits != want || st.AvailableWorkers != 1 {
					t.Fatalf("%s: %d units over %d workers, want %d over 1", when, st.CapacityUnits, st.AvailableWorkers, want)
				}
			}
			if r := s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0), Capacity: tc.capacity}); !r.OK {
				t.Fatal(r.Reason)
			}
			if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); !resp.Assigned {
				t.Fatal(resp.Reason)
			}
			units("one task out", tc.units)
			core.failNext = true
			if r := s.Reregister(ReregisterRequest{WorkerID: "w", Code: leaf(s, 9)}); r.OK {
				t.Fatal("reregister accepted although the engine refused the insert")
			}
			units("after the restore", tc.units)
			if r := s.Reregister(ReregisterRequest{WorkerID: "w", Code: leaf(s, 9)}); !r.OK {
				t.Fatal(r.Reason)
			}
			units("after the move", tc.units)
			// The worker serves what it has left, at the new leaf, and not one
			// task more; completing them all brings the declared capacity back.
			for i := 0; i < tc.units; i++ {
				if resp := s.Submit(TaskRequest{Code: leaf(s, 9)}); !resp.Assigned || resp.WorkerID != "w" {
					t.Fatalf("task %d at the new leaf: %+v", i, resp)
				}
			}
			if resp := s.Submit(TaskRequest{Code: leaf(s, 9)}); resp.Assigned {
				t.Fatalf("served %d tasks on capacity %d", tc.units+2, tc.units+1)
			}
			for i := 0; i < tc.units+1; i++ {
				if r := s.Release(ReleaseRequest{WorkerID: "w"}); !r.OK {
					t.Fatal(r.Reason)
				}
			}
			units("after every completion", tc.units+1)
		})
	}
}
