package platform

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

// register is a test helper adding a worker at a fixed valid leaf.
func register(t *testing.T, s *Server, id string) {
	t.Helper()
	code := s.Publication().Tree.CodeOf(0)
	if resp := s.Register(RegisterRequest{WorkerID: id, Code: []byte(code)}); !resp.OK {
		t.Fatalf("register %s: %s", id, resp.Reason)
	}
}

func TestWithdrawAvailableWorker(t *testing.T) {
	s := newTestServer(t)
	register(t, s, "w1")
	if resp := s.Withdraw(WithdrawRequest{WorkerID: "w1"}); !resp.OK {
		t.Fatalf("withdraw: %s", resp.Reason)
	}
	st := s.Stats()
	if st.AvailableWorkers != 0 || st.WithdrawnWorkers != 1 {
		t.Fatalf("stats after withdraw: %+v", st)
	}
	// The pool is empty: tasks are rejected.
	code := s.Publication().Tree.CodeOf(0)
	if resp := s.Submit(TaskRequest{TaskID: "t1", Code: []byte(code)}); resp.Assigned {
		t.Fatal("task assigned to a withdrawn worker")
	}
	// Double withdraw is rejected.
	if resp := s.Withdraw(WithdrawRequest{WorkerID: "w1"}); resp.OK {
		t.Fatal("double withdraw accepted")
	}
	// Location updates on a withdrawn worker are rejected.
	if resp := s.Reregister(ReregisterRequest{WorkerID: "w1", Code: []byte(code)}); resp.OK {
		t.Fatal("reregister of a withdrawn worker accepted")
	}
}

func TestWithdrawnWorkerMayRegisterBack(t *testing.T) {
	s := newTestServer(t)
	register(t, s, "w1")
	if resp := s.Withdraw(WithdrawRequest{WorkerID: "w1"}); !resp.OK {
		t.Fatal(resp.Reason)
	}
	// Re-registration under the same id with a fresh code revives the slot.
	code := s.Publication().Tree.CodeOf(1)
	if resp := s.Register(RegisterRequest{WorkerID: "w1", Code: []byte(code)}); !resp.OK {
		t.Fatalf("re-register after withdraw: %s", resp.Reason)
	}
	st := s.Stats()
	if st.RegisteredWorkers != 1 || st.AvailableWorkers != 1 {
		t.Fatalf("stats after revival: %+v", st)
	}
	if resp := s.Submit(TaskRequest{TaskID: "t1", Code: []byte(code)}); !resp.Assigned || resp.WorkerID != "w1" {
		t.Fatalf("revived worker not assignable: %+v", resp)
	}
	// The revival is a fresh stint (fresh slot): the full lifecycle keeps
	// working on it.
	if resp := s.Release(ReleaseRequest{WorkerID: "w1"}); !resp.OK {
		t.Fatalf("release of revived worker: %s", resp.Reason)
	}
	if st := s.Stats(); st.RegisteredWorkers != 1 || st.AvailableWorkers != 1 {
		t.Fatalf("stats after revived release: %+v", st)
	}
}

func TestWithdrawAssignedWorkerLeavesAfterTask(t *testing.T) {
	s := newTestServer(t)
	register(t, s, "w1")
	code := s.Publication().Tree.CodeOf(0)
	if resp := s.Submit(TaskRequest{TaskID: "t1", Code: []byte(code)}); !resp.Assigned {
		t.Fatal("task unassigned")
	}
	if resp := s.Withdraw(WithdrawRequest{WorkerID: "w1"}); !resp.OK {
		t.Fatalf("withdraw of assigned worker: %s", resp.Reason)
	}
	// The worker finishes but does not come back to the pool.
	resp := s.Release(ReleaseRequest{WorkerID: "w1"})
	if resp.OK || !strings.Contains(resp.Reason, "withdrawn") {
		t.Fatalf("release of a withdrawn worker: %+v", resp)
	}
	st := s.Stats()
	if st.AvailableWorkers != 0 || st.WithdrawnWorkers != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The rejected Release marked the stint over: the worker is plain
	// offline now and may register back with a fresh code.
	if resp := s.Register(RegisterRequest{WorkerID: "w1", Code: []byte(s.Publication().Tree.CodeOf(2))}); !resp.OK {
		t.Fatalf("re-register after assigned-withdrawal + completion: %s", resp.Reason)
	}
	if st := s.Stats(); st.AvailableWorkers != 1 {
		t.Fatalf("stats after revival: %+v", st)
	}
}

func TestWithdrawUnknownWorker(t *testing.T) {
	s := newTestServer(t)
	if resp := s.Withdraw(WithdrawRequest{WorkerID: "ghost"}); resp.OK {
		t.Fatal("withdraw of unknown worker accepted")
	}
}

// TestConcurrentWithdrawSubmit races Withdraw against Submit on a shared
// pool (run under -race). Whoever wins each race, the books must balance:
// no double assignment, every withdrawn worker out of the pool for good,
// and a Release succeeding exactly for workers that were assigned and had
// not withdrawn.
func TestConcurrentWithdrawSubmit(t *testing.T) {
	s := newTestServer(t)
	tree := s.Publication().Tree
	n := stressScale(200)
	src := rng.New(17)
	for i := 0; i < n; i++ {
		code := tree.CodeOf(src.Intn(tree.NumPoints()))
		if resp := s.Register(RegisterRequest{WorkerID: fmt.Sprintf("w%d", i), Code: []byte(code)}); !resp.OK {
			t.Fatal(resp.Reason)
		}
	}

	var mu sync.Mutex
	held := map[string]bool{}
	withdrawnOK := 0

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(100 + g))
			for i := 0; i < n/2; i++ {
				code := tree.CodeOf(src.Intn(tree.NumPoints()))
				resp := s.Submit(TaskRequest{TaskID: fmt.Sprintf("t%d-%d", g, i), Code: []byte(code)})
				if !resp.Assigned {
					continue
				}
				mu.Lock()
				if held[resp.WorkerID] {
					t.Errorf("worker %s double-assigned", resp.WorkerID)
				}
				held[resp.WorkerID] = true
				mu.Unlock()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(200 + g))
			for i := 0; i < n/4; i++ {
				wid := fmt.Sprintf("w%d", src.Intn(n))
				if s.Withdraw(WithdrawRequest{WorkerID: wid}).OK {
					mu.Lock()
					withdrawnOK++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.WithdrawnWorkers != withdrawnOK {
		t.Errorf("server counted %d withdrawals, clients saw %d", st.WithdrawnWorkers, withdrawnOK)
	}
	if st.AvailableWorkers != s.Core().Len() {
		t.Errorf("stats available %d != engine %d", st.AvailableWorkers, s.Core().Len())
	}

	// Release everyone who was assigned: rejections are exactly the
	// workers that withdrew mid-assignment, and afterwards the pool holds
	// everyone except the withdrawn.
	releasedOK, releaseRejected := 0, 0
	for wid := range held {
		if s.Release(ReleaseRequest{WorkerID: wid}).OK {
			releasedOK++
		} else {
			releaseRejected++
		}
	}
	if releaseRejected > withdrawnOK {
		t.Errorf("%d releases rejected but only %d withdrawals", releaseRejected, withdrawnOK)
	}
	st = s.Stats()
	if want := n - withdrawnOK; st.AvailableWorkers != want {
		t.Errorf("available %d after releases, want %d - %d = %d", st.AvailableWorkers, n, withdrawnOK, want)
	}
	if st.AvailableWorkers != s.Core().Len() {
		t.Errorf("stats available %d != engine %d after releases", st.AvailableWorkers, s.Core().Len())
	}
}

func TestWithdrawOverHTTP(t *testing.T) {
	s := newTestServer(t)
	register(t, s, "w1")
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp := c.Withdraw(WithdrawRequest{WorkerID: "w1"}); !resp.OK {
		t.Fatalf("HTTP withdraw: %s", resp.Reason)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WithdrawnWorkers != 1 || st.AvailableWorkers != 0 {
		t.Fatalf("stats over HTTP: %+v", st)
	}
}
