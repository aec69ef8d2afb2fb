package platform

import (
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
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
	if st.PolicyCounters[st.Policy] != 2 {
		t.Errorf("PolicyCounters = %v, want 2 under %q", st.PolicyCounters, st.Policy)
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
