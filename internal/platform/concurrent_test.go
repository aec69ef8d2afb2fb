package platform

import (
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// stressScale multiplies iteration counts in the concurrent stress tests:
// the nightly CI lane sets POMBM_STRESS to churn through far more
// interleavings than the per-push run.
func stressScale(base int) int {
	if os.Getenv("POMBM_STRESS") != "" {
		return base * 10
	}
	return base
}

// TestServerConcurrentStress drives Register, Reregister, Submit,
// SubmitBatch, Release, and Stats concurrently against one server (run
// under -race). It asserts that no worker is ever double-assigned (each
// assignment event hands out a worker that is not currently held) and that
// the counters are consistent once the storm settles.
func TestServerConcurrentStress(t *testing.T) {
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	var (
		workersPerGor = stressScale(50)
		tasksPerGor   = stressScale(60)
	)
	const (
		regGoroutines   = 4
		taskGoroutines  = 4
		rereGoroutines  = 2
		statsGoroutines = 2
	)
	var (
		nWorkers = regGoroutines * workersPerGor
		nTasks   = taskGoroutines * tasksPerGor
	)

	// Phase 1: registrations, submissions, reregistrations, and stats reads
	// all at once. Tasks may outpace registrations, so rejections are
	// legitimate; what must never happen is a double assignment.
	var wg sync.WaitGroup
	var mu sync.Mutex
	held := map[string]bool{} // workers currently holding an assignment
	assignments := 0

	record := func(t *testing.T, wid string) {
		mu.Lock()
		defer mu.Unlock()
		if held[wid] {
			t.Errorf("worker %s assigned while already held", wid)
			return
		}
		held[wid] = true
		assignments++
	}

	for g := 0; g < regGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o, err := NewObfuscator(s.Publication(), uint64(10+g))
			if err != nil {
				t.Error(err)
				return
			}
			src := rng.New(uint64(20 + g))
			for i := 0; i < workersPerGor; i++ {
				w := Worker{
					ID:  fmt.Sprintf("w-%d-%d", g, i),
					Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200)),
				}
				if err := w.Register(s, o); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < taskGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o, err := NewObfuscator(s.Publication(), uint64(30+g))
			if err != nil {
				t.Error(err)
				return
			}
			src := rng.New(uint64(40 + g))
			if g%2 == 0 {
				// Batched submission path.
				req := TaskBatchRequest{}
				for i := 0; i < tasksPerGor; i++ {
					loc := geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))
					req.Tasks = append(req.Tasks, TaskRequest{
						TaskID: fmt.Sprintf("t-%d-%d", g, i),
						Code:   []byte(o.Obfuscate(loc)),
					})
				}
				for _, r := range s.SubmitBatch(req).Results {
					if r.Assigned {
						record(t, r.WorkerID)
					}
				}
				return
			}
			for i := 0; i < tasksPerGor; i++ {
				task := Task{
					ID:  fmt.Sprintf("t-%d-%d", g, i),
					Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200)),
				}
				wid, ok, err := task.Submit(s, o)
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					record(t, wid)
				}
			}
		}(g)
	}
	for g := 0; g < rereGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o, err := NewObfuscator(s.Publication(), uint64(50+g))
			if err != nil {
				t.Error(err)
				return
			}
			src := rng.New(uint64(60 + g))
			for i := 0; i < stressScale(40); i++ {
				// Move a random (possibly unregistered, possibly assigned)
				// worker; any well-formed response is acceptable.
				wid := fmt.Sprintf("w-%d-%d", src.Intn(regGoroutines), src.Intn(workersPerGor))
				loc := geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))
				s.Reregister(ReregisterRequest{WorkerID: wid, Code: []byte(o.Obfuscate(loc))})
			}
		}(g)
	}
	for g := 0; g < statsGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < stressScale(50); i++ {
				st := s.Stats()
				if st.AssignedTasks < 0 || st.AvailableWorkers < 0 || st.RegisteredWorkers > nWorkers {
					t.Errorf("implausible stats mid-run: %+v", st)
				}
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	if st.RegisteredWorkers != nWorkers {
		t.Errorf("registered %d, want %d", st.RegisteredWorkers, nWorkers)
	}
	if st.AssignedTasks != assignments {
		t.Errorf("server counted %d assignments, clients saw %d", st.AssignedTasks, assignments)
	}
	if st.AssignedTasks+st.RejectedTasks != nTasks {
		t.Errorf("assigned %d + rejected %d ≠ %d submitted", st.AssignedTasks, st.RejectedTasks, nTasks)
	}
	if st.AvailableWorkers != nWorkers-assignments {
		t.Errorf("available %d, want %d - %d", st.AvailableWorkers, nWorkers, assignments)
	}

	// Phase 2: release every held worker concurrently (half with a fresh
	// report), then drain the pool again and check the books.
	heldIDs := make([]string, 0, len(held))
	for wid := range held {
		heldIDs = append(heldIDs, wid)
	}
	o, err := NewObfuscator(s.Publication(), 77)
	if err != nil {
		t.Fatal(err)
	}
	freshCodes := make([][]byte, len(heldIDs))
	relSrc := rng.New(88)
	for i := range heldIDs {
		if i%2 == 0 {
			freshCodes[i] = []byte(o.Obfuscate(geo.Pt(relSrc.Uniform(0, 200), relSrc.Uniform(0, 200))))
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(heldIDs); i += 4 {
				resp := s.Release(ReleaseRequest{WorkerID: heldIDs[i], Code: freshCodes[i]})
				if !resp.OK {
					t.Errorf("release of %s failed: %s", heldIDs[i], resp.Reason)
				}
			}
		}(g)
	}
	wg.Wait()

	st = s.Stats()
	if st.ReleasedWorkers != len(heldIDs) {
		t.Errorf("released %d, want %d", st.ReleasedWorkers, len(heldIDs))
	}
	if st.AvailableWorkers != nWorkers {
		t.Errorf("available %d after releases, want %d", st.AvailableWorkers, nWorkers)
	}
	if resp := s.Release(ReleaseRequest{WorkerID: heldIDs[0]}); resp.OK {
		t.Error("double release accepted")
	}
}

// TestSubmitBatchSkipsMalformedEntries: a malformed batch entry must never
// reach the engine (it could otherwise consume a worker for a task that is
// answered with an error), must not count as a rejection, and must not
// shift the assignments of the valid entries around it.
func TestSubmitBatchSkipsMalformedEntries(t *testing.T) {
	s, err := NewServer(workload.SyntheticRegion, 1, 1, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObfuscator(s.Publication(), 5)
	if err != nil {
		t.Fatal(err)
	}
	w := Worker{ID: "w0", Loc: geo.Pt(1, 1)}
	if err := w.Register(s, o); err != nil {
		t.Fatal(err)
	}
	resp := s.SubmitBatch(TaskBatchRequest{Tasks: []TaskRequest{
		{TaskID: "bad", Code: []byte{77, 77}}, // wrong length and digits
		{TaskID: "good", Code: []byte(o.Obfuscate(geo.Pt(1, 1)))},
	}})
	if resp.Results[0].Assigned || resp.Results[0].Reason == "" {
		t.Errorf("malformed task result: %+v", resp.Results[0])
	}
	if !resp.Results[1].Assigned || resp.Results[1].WorkerID != "w0" {
		t.Errorf("valid task result: %+v — worker leaked to the malformed entry?", resp.Results[1])
	}
	st := s.Stats()
	if st.AssignedTasks != 1 || st.RejectedTasks != 0 || st.AvailableWorkers != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestReleaseValidation covers the Release edge cases sequentially.
func TestReleaseValidation(t *testing.T) {
	s := newTestServer(t)
	o, err := NewObfuscator(s.Publication(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if resp := s.Release(ReleaseRequest{WorkerID: "ghost"}); resp.OK {
		t.Error("release of unregistered worker accepted")
	}
	w := Worker{ID: "w0", Loc: geo.Pt(10, 10)}
	if err := w.Register(s, o); err != nil {
		t.Fatal(err)
	}
	if resp := s.Release(ReleaseRequest{WorkerID: "w0"}); resp.OK {
		t.Error("release of never-assigned worker accepted")
	}
	task := Task{ID: "t0", Loc: geo.Pt(12, 12)}
	wid, ok, err := task.Submit(s, o)
	if err != nil || !ok || wid != "w0" {
		t.Fatalf("submit = (%s,%v,%v)", wid, ok, err)
	}
	if resp := s.Release(ReleaseRequest{WorkerID: "w0", Code: []byte{9}}); resp.OK {
		t.Error("release with malformed code accepted")
	}
	if resp := s.Release(ReleaseRequest{WorkerID: "w0"}); !resp.OK {
		t.Fatalf("release failed: %s", resp.Reason)
	}
	// The released worker is assignable again.
	if _, ok, _ := task.Submit(s, o); !ok {
		t.Error("released worker not assignable")
	}
}

// TestRegisterFailureLeavesNoState pins the fix for the half-registered
// state bug: a registration rejected at validation must leave the id free,
// the tables untouched, and the pool unchanged.
func TestRegisterFailureLeavesNoState(t *testing.T) {
	s := newTestServer(t)
	o, err := NewObfuscator(s.Publication(), 7)
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(o.Obfuscate(geo.Pt(50, 50)))
	if resp := s.Register(RegisterRequest{WorkerID: "w", Code: []byte{0, 1}}); resp.OK {
		t.Fatal("malformed code accepted")
	}
	st := s.Stats()
	if st.RegisteredWorkers != 0 || st.AvailableWorkers != 0 {
		t.Fatalf("failed registration left state: %+v", st)
	}
	// The same id must be accepted on retry with a valid code.
	if resp := s.Register(RegisterRequest{WorkerID: "w", Code: good}); !resp.OK {
		t.Fatalf("retry after failed registration rejected: %s", resp.Reason)
	}
	st = s.Stats()
	if st.RegisteredWorkers != 1 || st.AvailableWorkers != 1 {
		t.Fatalf("stats after retry: %+v", st)
	}
}

// TestHTTPBatchAndRelease exercises the new endpoints over the wire.
func TestHTTPBatchAndRelease(t *testing.T) {
	s := newTestServer(t)
	o, err := NewObfuscator(s.Publication(), 9)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(14)
	for i := 0; i < 6; i++ {
		w := Worker{ID: fmt.Sprintf("w%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
		if err := w.Register(s, o); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	req := TaskBatchRequest{}
	for i := 0; i < 8; i++ {
		loc := geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))
		req.Tasks = append(req.Tasks, TaskRequest{
			TaskID: fmt.Sprintf("t%d", i),
			Code:   []byte(o.Obfuscate(loc)),
		})
	}
	resp := client.SubmitBatch(req)
	if len(resp.Results) != 8 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	assigned := map[string]bool{}
	for i, r := range resp.Results {
		if i < 6 && !r.Assigned {
			t.Errorf("task %d unassigned: %s", i, r.Reason)
		}
		if i >= 6 && r.Assigned {
			t.Errorf("task %d assigned with empty pool", i)
		}
		if r.Assigned {
			if assigned[r.WorkerID] {
				t.Errorf("worker %s assigned twice in batch", r.WorkerID)
			}
			assigned[r.WorkerID] = true
		}
	}
	for wid := range assigned {
		if rel := client.Release(ReleaseRequest{WorkerID: wid}); !rel.OK {
			t.Errorf("HTTP release of %s failed: %s", wid, rel.Reason)
		}
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReleasedWorkers != 6 || stats.AvailableWorkers != 6 {
		t.Errorf("stats after releases: %+v", stats)
	}
}
