package platform

import (
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

func newTestServer(t testing.TB) *Server {
	t.Helper()
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(workload.SyntheticRegion, 0, 8, 0.6, 1); err == nil {
		t.Error("bad grid accepted")
	}
	if _, err := NewServer(workload.SyntheticRegion, 8, 8, 0, 1); err == nil {
		t.Error("zero epsilon accepted")
	}
	// The publication carries ε, and JSON has no NaN or infinity.
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewServer(workload.SyntheticRegion, 8, 8, eps, 1); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
}

func TestRegisterAndSubmitDirect(t *testing.T) {
	s := newTestServer(t)
	o, err := NewObfuscator(s.Publication(), 7)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	for i := 0; i < 20; i++ {
		w := Worker{ID: fmt.Sprintf("w%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
		if err := w.Register(s, o); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.RegisteredWorkers != 20 || st.AvailableWorkers != 20 {
		t.Fatalf("stats after registration: %+v", st)
	}
	assignedWorkers := map[string]bool{}
	for i := 0; i < 25; i++ {
		task := Task{ID: fmt.Sprintf("t%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
		wid, ok, err := task.Submit(s, o)
		if err != nil {
			t.Fatal(err)
		}
		if i < 20 {
			if !ok {
				t.Fatalf("task %d unassigned with workers available", i)
			}
			if assignedWorkers[wid] {
				t.Fatalf("worker %s assigned twice", wid)
			}
			assignedWorkers[wid] = true
		} else if ok {
			t.Fatalf("task %d assigned with no workers left", i)
		}
	}
	st = s.Stats()
	if st.AssignedTasks != 20 || st.RejectedTasks != 5 || st.AvailableWorkers != 0 {
		t.Errorf("final stats: %+v", st)
	}
}

func TestRegisterRejections(t *testing.T) {
	s := newTestServer(t)
	o, err := NewObfuscator(s.Publication(), 7)
	if err != nil {
		t.Fatal(err)
	}
	code := []byte(o.Obfuscate(geo.Pt(10, 10)))
	if resp := s.Register(RegisterRequest{WorkerID: "", Code: code}); resp.OK {
		t.Error("empty id accepted")
	}
	if resp := s.Register(RegisterRequest{WorkerID: "a", Code: []byte{1}}); resp.OK {
		t.Error("malformed code accepted")
	}
	if resp := s.Register(RegisterRequest{WorkerID: "a", Code: code}); !resp.OK {
		t.Fatalf("valid registration rejected: %s", resp.Reason)
	}
	if resp := s.Register(RegisterRequest{WorkerID: "a", Code: code}); resp.OK {
		t.Error("duplicate id accepted")
	}
}

func TestSubmitMalformedCode(t *testing.T) {
	s := newTestServer(t)
	if resp := s.Submit(TaskRequest{TaskID: "t", Code: []byte{9, 9}}); resp.Assigned {
		t.Error("malformed task code assigned")
	}
}

func TestObfuscatorValidation(t *testing.T) {
	s := newTestServer(t)
	pub := s.Publication()
	pub.Cols = 5 // now grid ≠ tree
	if _, err := NewObfuscator(pub, 1); err == nil {
		t.Error("mismatched publication accepted")
	}
	pub = s.Publication()
	pub.Epsilon = -1
	if _, err := NewObfuscator(pub, 1); err == nil {
		t.Error("bad epsilon accepted")
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	pub := client.Publication()
	if pub.Tree.NumPoints() != 64 || pub.Epsilon != 0.6 {
		t.Fatalf("publication lost fidelity: N=%d ε=%v", pub.Tree.NumPoints(), pub.Epsilon)
	}
	o, err := NewObfuscator(pub, 99)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	for i := 0; i < 10; i++ {
		w := Worker{ID: fmt.Sprintf("w%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
		if err := w.Register(client, o); err != nil {
			t.Fatal(err)
		}
	}
	assigned := 0
	for i := 0; i < 12; i++ {
		task := Task{ID: fmt.Sprintf("t%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
		_, ok, err := task.Submit(client, o)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			assigned++
		}
	}
	if assigned != 10 {
		t.Errorf("assigned %d of 12 tasks, want 10 (worker-limited)", assigned)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.AssignedTasks != 10 || stats.RejectedTasks != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestHTTPClientBadURL(t *testing.T) {
	if _, err := NewClient("http://127.0.0.1:1"); err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestServerConcurrentSubmissions(t *testing.T) {
	s := newTestServer(t)
	o, err := NewObfuscator(s.Publication(), 3)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	const n = 200
	for i := 0; i < n; i++ {
		w := Worker{ID: fmt.Sprintf("w%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
		if err := w.Register(s, o); err != nil {
			t.Fatal(err)
		}
	}
	// Fire tasks concurrently; each obfuscator is per-goroutine (sources
	// are not concurrency-safe).
	var wg sync.WaitGroup
	results := make([]string, n)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			og, err := NewObfuscator(s.Publication(), uint64(100+g))
			if err != nil {
				t.Error(err)
				return
			}
			lsrc := rng.New(uint64(g))
			for i := g; i < n; i += 8 {
				task := Task{ID: fmt.Sprintf("t%d", i), Loc: geo.Pt(lsrc.Uniform(0, 200), lsrc.Uniform(0, 200))}
				wid, ok, err := task.Submit(s, og)
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					results[i] = wid
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[string]int{}
	for i, wid := range results {
		if wid == "" {
			t.Fatalf("task %d unassigned", i)
		}
		if prev, dup := seen[wid]; dup {
			t.Fatalf("worker %s assigned to tasks %d and %d", wid, prev, i)
		}
		seen[wid] = i
	}
}
