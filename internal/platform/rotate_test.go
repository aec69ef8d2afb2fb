package platform

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// rotReporter is the test's client side: one obfuscator per worker name
// would be realistic, but for rotation semantics a deterministic fresh
// code per (worker, tree) suffices.
func rotReporter(src *rng.Source) func(workerID string, tree *hst.Tree) (hst.Code, error) {
	return func(workerID string, tree *hst.Tree) (hst.Code, error) {
		b := make([]byte, tree.Depth())
		for j := range b {
			b[j] = byte(src.Intn(tree.Degree()))
		}
		return hst.Code(b), nil
	}
}

func registerN(t *testing.T, s *Server, n int) {
	t.Helper()
	o, err := NewObfuscator(s.Publication(), 7)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	for i := 0; i < n; i++ {
		w := Worker{ID: fmt.Sprintf("w%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
		if err := w.Register(s, o); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRotateSwapsEpochAndPopulation(t *testing.T) {
	s := newTestServer(t)
	registerN(t, s, 12)
	pub1 := s.Publication()
	if pub1.Epoch != 1 {
		t.Fatalf("initial epoch %d", pub1.Epoch)
	}

	// Assign one worker so the rotation sees a busy slot.
	o, _ := NewObfuscator(pub1, 9)
	busyResp := s.Submit(TaskRequest{TaskID: "t0", Code: []byte(o.Obfuscate(geo.Pt(1, 1))), Epoch: 1})
	if !busyResp.Assigned {
		t.Fatal("seed task unassigned")
	}
	if busyResp.Epoch != 1 {
		t.Fatalf("assignment stamped epoch %d", busyResp.Epoch)
	}

	resp := s.RotateNow(PrepareRotateRequest{}, nil, rotReporter(rng.New(5)))
	if !resp.OK {
		t.Fatal(resp.Reason)
	}
	if resp.Epoch != 2 || resp.Rotated != 11 || len(resp.Parked) != 0 || len(resp.Dropped) != 0 {
		t.Fatalf("rotate response %+v", resp)
	}
	pub2 := s.Publication()
	if pub2.Epoch != 2 || pub2.Tree == pub1.Tree {
		t.Fatalf("publication not rotated: epoch %d", pub2.Epoch)
	}
	st := s.Stats()
	if st.Epoch != 2 || st.Rotations != 1 || st.RotatedWorkers != 11 || st.AvailableWorkers != 11 {
		t.Fatalf("stats after rotation: %+v", st)
	}

	// Old-epoch tasks are refused as stale; new-epoch tasks assign and are
	// stamped with the new epoch.
	o2, err := NewObfuscator(pub2, 11)
	if err != nil {
		t.Fatal(err)
	}
	stale := s.Submit(TaskRequest{TaskID: "t1", Code: []byte(o2.Obfuscate(geo.Pt(2, 2))), Epoch: 1})
	if stale.Assigned || !strings.Contains(stale.Reason, "stale epoch") {
		t.Fatalf("stale task response %+v", stale)
	}
	fresh := s.Submit(TaskRequest{TaskID: "t2", Code: []byte(o2.Obfuscate(geo.Pt(2, 2))), Epoch: 2})
	if !fresh.Assigned || fresh.Epoch != 2 {
		t.Fatalf("fresh task response %+v", fresh)
	}
	// The stale refusal re-inserted its popped worker: available count is
	// down exactly one (the fresh assignment).
	if got := s.Stats().AvailableWorkers; got != 10 {
		t.Fatalf("available after stale+fresh = %d, want 10", got)
	}

	// The busy worker cannot re-report its old code after the rotation...
	rel := s.Release(ReleaseRequest{WorkerID: busyResp.WorkerID})
	if rel.OK || !strings.Contains(rel.Reason, "fresh report is required") {
		t.Fatalf("old-epoch empty release response %+v", rel)
	}
	// ...but releases fine with a fresh new-epoch code.
	rel = s.Release(ReleaseRequest{WorkerID: busyResp.WorkerID, Code: []byte(o2.Obfuscate(geo.Pt(3, 3))), Epoch: 2})
	if !rel.OK || rel.Epoch != 2 {
		t.Fatalf("fresh release response %+v", rel)
	}

	// Old-epoch registrations are refused too.
	reg := s.Register(RegisterRequest{WorkerID: "late", Code: []byte{0}, Epoch: 1})
	if reg.OK || !strings.Contains(reg.Reason, "stale epoch") {
		t.Fatalf("stale register response %+v", reg)
	}
}

func TestRotateDropsUnreportedAndSkipsUnknown(t *testing.T) {
	s := newTestServer(t)
	registerN(t, s, 6)
	prep := s.PrepareRotate(PrepareRotateRequest{})
	if !prep.OK || prep.Epoch != 2 {
		t.Fatal(prep.Reason)
	}
	// Fresh reports for 3 of the 6 workers, plus one unknown, one
	// duplicate, and one malformed.
	report := rotReporter(rng.New(5))
	var reports []WorkerReport
	for _, w := range []string{"w0", "w2", "w4", "ghost", "w0"} {
		code, _ := report(w, prep.Tree)
		reports = append(reports, WorkerReport{WorkerID: w, Code: []byte(code)})
	}
	reports = append(reports, WorkerReport{WorkerID: "w5", Code: []byte("garbage that is far too long")})
	resp := s.Rotate(RotateRequest{Epoch: prep.Epoch, Reports: reports})
	if !resp.OK {
		t.Fatal(resp.Reason)
	}
	if resp.Rotated != 3 || resp.Skipped != 3 || len(resp.Dropped) != 3 {
		t.Fatalf("rotate response %+v", resp)
	}
	if st := s.Stats(); st.AvailableWorkers != 3 || st.DroppedWorkers != 3 {
		t.Fatalf("stats %+v", st)
	}
	// A dropped worker may register back under the new epoch.
	o, err := NewObfuscator(s.Publication(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if reg := s.Register(RegisterRequest{WorkerID: "w1", Code: []byte(o.Obfuscate(geo.Pt(5, 5))), Epoch: 2}); !reg.OK {
		t.Fatalf("dropped worker cannot re-register: %s", reg.Reason)
	}
}

// TestRotateNowDropsAFailedReport pins RotateNow's report errors: the
// callback runs once per listed worker, in order, and the one worker whose
// report fails is dropped as if it had not re-reported while every other
// worker rotates.
func TestRotateNowDropsAFailedReport(t *testing.T) {
	s := newTestServer(t)
	registerN(t, s, 6)
	report := rotReporter(rng.New(5))
	var asked []string
	resp := s.RotateNow(PrepareRotateRequest{}, nil, func(w string, tree *hst.Tree) (hst.Code, error) {
		asked = append(asked, w)
		if w == "w3" {
			return "", fmt.Errorf("client %s offline", w)
		}
		return report(w, tree)
	})
	if !resp.OK {
		t.Fatal(resp.Reason)
	}
	if want := "[w0 w1 w2 w3 w4 w5]"; fmt.Sprint(asked) != want {
		t.Fatalf("reports asked of %v, want %s", asked, want)
	}
	if resp.Epoch != 2 || resp.Rotated != 5 || resp.Skipped != 0 || len(resp.Parked) != 0 ||
		fmt.Sprint(resp.Dropped) != "[w3]" {
		t.Fatalf("rotate response %+v", resp)
	}
	if st := s.Stats(); st.Epoch != 2 || st.RotatedWorkers != 5 || st.AvailableWorkers != 5 || st.DroppedWorkers != 1 {
		t.Fatalf("stats %+v", st)
	}
	if rel := s.Release(ReleaseRequest{WorkerID: "w3"}); rel.OK || !strings.Contains(rel.Reason, "not registered") {
		t.Fatalf("release of the dropped worker: %+v", rel)
	}
	o, err := NewObfuscator(s.Publication(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if reg := s.Register(RegisterRequest{WorkerID: "w3", Code: []byte(o.Obfuscate(geo.Pt(5, 5))), Epoch: 2}); !reg.OK {
		t.Fatalf("dropped worker cannot re-register: %s", reg.Reason)
	}
}

func TestRotateWithoutPrepareRefused(t *testing.T) {
	s := newTestServer(t)
	if resp := s.Rotate(RotateRequest{}); resp.OK || !strings.Contains(resp.Reason, "no rotation staged") {
		t.Fatalf("commit without prepare: %+v", resp)
	}
	prep := s.PrepareRotate(PrepareRotateRequest{})
	if !prep.OK {
		t.Fatal(prep.Reason)
	}
	if resp := s.Rotate(RotateRequest{Epoch: prep.Epoch + 3}); resp.OK {
		t.Fatal("mismatched commit epoch accepted")
	}
}

// TestBudgetExhaustionParksWorkers is the accountant wiring test: spends
// accumulate across Register/Release/rotation, exhausted workers are
// parked with the Parked error shape everywhere, and the accountant total
// equals the test's own ledger of accepted fresh reports.
func TestBudgetExhaustionParksWorkers(t *testing.T) {
	// Lifetime 1.2 at ε 0.6: every worker affords exactly two reports.
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithLifetimeBudget(1.2))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObfuscator(s.Publication(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ledger := 0.0
	// Register (spend 1) three workers.
	for _, w := range []string{"a", "b", "c"} {
		if resp := s.Register(RegisterRequest{WorkerID: w, Code: []byte(o.Obfuscate(geo.Pt(1, 1)))}); !resp.OK {
			t.Fatal(resp.Reason)
		}
		ledger += 0.6
	}
	// "a": assign, then release at a fresh code (spend 2).
	var aCode hst.Code
	for {
		aCode = o.Obfuscate(geo.Pt(1, 1))
		resp := s.Submit(TaskRequest{Code: []byte(aCode)})
		if !resp.Assigned {
			t.Fatal("no assignment")
		}
		if resp.WorkerID == "a" {
			break
		}
		if rel := s.Release(ReleaseRequest{WorkerID: resp.WorkerID}); !rel.OK {
			t.Fatal(rel.Reason)
		}
	}
	if rel := s.Release(ReleaseRequest{WorkerID: "a", Code: []byte(o.Obfuscate(geo.Pt(9, 9)))}); !rel.OK {
		t.Fatal(rel.Reason)
	}
	ledger += 0.6
	// "a" is now exhausted: a Reregister is refused with Parked and the
	// worker leaves the pool.
	avail := s.Stats().AvailableWorkers
	rr := s.Reregister(ReregisterRequest{WorkerID: "a", Code: []byte(o.Obfuscate(geo.Pt(2, 2)))})
	if rr.OK || !rr.Parked {
		t.Fatalf("over-budget reregister: %+v", rr)
	}
	if got := s.Stats().AvailableWorkers; got != avail-1 {
		t.Fatalf("parked worker still available: %d → %d", avail, got)
	}
	if st := s.Stats(); st.ParkedWorkers != 1 {
		t.Fatalf("ParkedWorkers = %d", st.ParkedWorkers)
	}
	// Parked is terminal: Register, Release, Withdraw all refuse with the
	// same shape.
	if resp := s.Register(RegisterRequest{WorkerID: "a", Code: []byte(o.Obfuscate(geo.Pt(2, 2)))}); resp.OK || !resp.Parked {
		t.Fatalf("parked register: %+v", resp)
	}
	if resp := s.Withdraw(WithdrawRequest{WorkerID: "a"}); resp.OK || !resp.Parked {
		t.Fatalf("parked withdraw: %+v", resp)
	}

	// Rotate: "b" and "c" have 0.6 left — the rotation re-report (spend 2)
	// fits exactly; a second rotation parks them both.
	resp := s.RotateNow(PrepareRotateRequest{}, nil, rotReporter(rng.New(5)))
	if !resp.OK || resp.Rotated != 2 || len(resp.Parked) != 0 {
		t.Fatalf("rotation 1: %+v", resp)
	}
	ledger += 2 * 0.6
	resp = s.RotateNow(PrepareRotateRequest{}, nil, rotReporter(rng.New(6)))
	if !resp.OK || resp.Rotated != 0 || len(resp.Parked) != 2 {
		t.Fatalf("rotation 2: %+v", resp)
	}
	st := s.Stats()
	if st.ParkedWorkers != 3 || st.AvailableWorkers != 0 {
		t.Fatalf("final stats %+v", st)
	}
	// Budget conservation: the accountant's total is exactly the ledger of
	// accepted fresh reports, and no worker exceeds the limit.
	if diff := st.BudgetSpentTotal - ledger; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("BudgetSpentTotal = %v, ledger %v", st.BudgetSpentTotal, ledger)
	}
	if st.BudgetLimit != 1.2 || st.BudgetedAgents != 3 {
		t.Fatalf("budget stats %+v", st)
	}
}

// TestBudgetExhaustedHTTPShape pins the wire shape of the parked refusal:
// HTTP 200 with ok=false, parked=true, and a reason naming the worker —
// clients distinguish "budget exhausted" from transport or validation
// failures structurally, not by parsing prose.
func TestBudgetExhaustedHTTPShape(t *testing.T) {
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithLifetimeBudget(0.6))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObfuscator(client.Publication(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// First registration spends the whole lifetime; withdrawing and coming
	// back needs a second report, which is over budget.
	if resp := client.Register(RegisterRequest{WorkerID: "w", Code: []byte(o.Obfuscate(geo.Pt(1, 1)))}); !resp.OK {
		t.Fatal(resp.Reason)
	}
	if resp := client.Withdraw(WithdrawRequest{WorkerID: "w"}); !resp.OK {
		t.Fatal(resp.Reason)
	}
	resp := client.Register(RegisterRequest{WorkerID: "w", Code: []byte(o.Obfuscate(geo.Pt(2, 2)))})
	if resp.OK || !resp.Parked {
		t.Fatalf("over-budget HTTP register: %+v", resp)
	}
	if !strings.Contains(resp.Reason, `"w"`) || !strings.Contains(resp.Reason, "budget exhausted") {
		t.Fatalf("reason %q does not name the worker and the cause", resp.Reason)
	}
	// The raw JSON carries the parked flag (not just the Go struct).
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"parked":true`) {
		t.Fatalf("wire shape %s lacks parked flag", raw)
	}
}

// TestRotateOverHTTP drives the full two-phase rotation through the HTTP
// client: prepare, client-side re-obfuscation under the staged tree,
// commit, and the client's publication cache refresh.
func TestRotateOverHTTP(t *testing.T) {
	s := newTestServer(t)
	registerN(t, s, 5)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	prep := client.PrepareRotate(PrepareRotateRequest{Seed: 77})
	if !prep.OK || prep.Tree == nil || prep.Epoch != 2 {
		t.Fatalf("prepare over HTTP: %+v", prep)
	}
	report := rotReporter(rng.New(5))
	var reports []WorkerReport
	for i := 0; i < 5; i++ {
		code, _ := report("", prep.Tree)
		reports = append(reports, WorkerReport{WorkerID: fmt.Sprintf("w%d", i), Code: []byte(code)})
	}
	resp := client.Rotate(RotateRequest{Epoch: prep.Epoch, Reports: reports})
	if !resp.OK || resp.Rotated != 5 {
		t.Fatalf("rotate over HTTP: %+v", resp)
	}
	if got := client.Publication().Epoch; got != 2 {
		t.Fatalf("client publication cache at epoch %d after rotate", got)
	}
	// A fresh obfuscator over the re-fetched publication serves tasks.
	o, err := NewObfuscator(client.Publication(), 21)
	if err != nil {
		t.Fatal(err)
	}
	task := client.Submit(TaskRequest{TaskID: "t", Code: []byte(o.Obfuscate(geo.Pt(3, 3))), Epoch: 2})
	if !task.Assigned || task.Epoch != 2 {
		t.Fatalf("post-rotation task: %+v", task)
	}
}

// TestRotateOverHTTPCommitsALargePopulation: a commit carries a report a
// worker, so its body outgrows the 1 MiB an agent call may be long. 40,000
// reports at grid 64 are about 2.2 MB, and must rotate every worker; a body
// past the commit's own bound is still refused 413, typed.
func TestRotateOverHTTPCommitsALargePopulation(t *testing.T) {
	const workers = 40000
	s, err := NewServer(workload.SyntheticRegion, 64, 64, 0.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	tree := s.Publication().Tree
	for i := 0; i < workers; i++ {
		if resp := s.Register(RegisterRequest{WorkerID: fmt.Sprint("worker-", i), Code: []byte(tree.CodeOf(i % tree.NumPoints()))}); !resp.OK {
			t.Fatal(resp.Reason)
		}
	}
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	prep := client.PrepareRotate(PrepareRotateRequest{Seed: 77})
	if !prep.OK {
		t.Fatalf("prepare over HTTP: %+v", prep)
	}
	reports := make([]WorkerReport, workers)
	for i := range reports {
		reports[i] = WorkerReport{WorkerID: fmt.Sprint("worker-", i), Code: []byte(prep.Tree.CodeOf(i % prep.Tree.NumPoints()))}
	}
	if resp := client.Rotate(RotateRequest{Epoch: prep.Epoch, Reports: reports}); !resp.OK || resp.Rotated != workers {
		t.Fatalf("rotate of %d reports over HTTP: ok %v, rotated %d, reason %q", workers, resp.OK, resp.Rotated, resp.Reason)
	}
	req := httptest.NewRequest(http.MethodPost, PathRotate, strings.NewReader(`{"reports":[]}`))
	req.ContentLength = maxRotateBytes + 1
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"code":"`+CodeBadRequest+`"`) {
		t.Errorf("a commit of %d bytes answered %d %s, want 413 and a typed %s", req.ContentLength, rec.Code, rec.Body, CodeBadRequest)
	}
}

// materializedCore answers SwapEpochSeq by collecting the sequence into a
// slice and building beside through the engine's SwapEpoch, instead of the
// engine's own freeze-and-rebuild. A yielded code holds only until its
// yield returns, so the slice keeps copies.
type materializedCore struct{ *engine.Engine }

func (c materializedCore) SwapEpochSeq(epoch int64, tree *hst.Tree, shards int, seq func(yield func(engine.EpochInsert) bool)) error {
	var inserts []engine.EpochInsert
	seq(func(in engine.EpochInsert) bool {
		in.Code = hst.Code(strings.Clone(string(in.Code)))
		inserts = append(inserts, in)
		return true
	})
	return c.Engine.SwapEpoch(epoch, tree, shards, inserts)
}

// TestRotateSeqAndMaterializedPathsAgree pins the engine's two swap
// entries against each other through Rotate: an engine core (SwapEpochSeq,
// freeze and rebuild) and the same engine reached through the slice
// SwapEpoch (build beside) must rotate to identical serving states.
func TestRotateSeqAndMaterializedPathsAgree(t *testing.T) {
	grid, err := geo.NewGrid(workload.SyntheticRegion, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	build := func(wrap bool) *Server {
		tree, err := hst.Build(grid.Points(), rng.New(42).Derive("server-hst"))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(tree, 3)
		if err != nil {
			t.Fatal(err)
		}
		var core Core = eng
		if wrap {
			core = materializedCore{eng}
		}
		s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithCore(core))
		if err != nil {
			t.Fatal(err)
		}
		registerN(t, s, 25)
		return s
	}

	seq, mat := build(false), build(true)
	rSeq := seq.RotateNow(PrepareRotateRequest{Seed: 9}, nil, rotReporter(rng.New(5)))
	rMat := mat.RotateNow(PrepareRotateRequest{Seed: 9}, nil, rotReporter(rng.New(5)))
	if !rSeq.OK || !rMat.OK {
		t.Fatalf("rotations failed: seq=%+v mat=%+v", rSeq, rMat)
	}
	if rSeq.Epoch != rMat.Epoch || rSeq.Rotated != rMat.Rotated ||
		len(rSeq.Parked) != len(rMat.Parked) || len(rSeq.Dropped) != len(rMat.Dropped) {
		t.Fatalf("rotation responses diverge:\nseq %+v\nmat %+v", rSeq, rMat)
	}

	// Drain both populations with an identical probe tape: every answer
	// must match, worker for worker.
	oSeq, err := NewObfuscator(seq.Publication(), 31)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(77)
	for i := 0; ; i++ {
		p := geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))
		// Obfuscation is randomized: draw the code once, probe both with it.
		code := []byte(oSeq.Obfuscate(p))
		a := seq.Submit(TaskRequest{TaskID: fmt.Sprintf("s%d", i), Code: code, Epoch: rSeq.Epoch})
		b := mat.Submit(TaskRequest{TaskID: fmt.Sprintf("m%d", i), Code: code, Epoch: rMat.Epoch})
		if a.Assigned != b.Assigned || a.WorkerID != b.WorkerID {
			t.Fatalf("probe %d diverges: seq %+v, mat %+v", i, a, b)
		}
		if !a.Assigned {
			break
		}
	}
}
