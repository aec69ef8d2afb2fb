package platform

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// leafReporter re-reports every worker at the staged tree's first leaf, so
// after the rotation every assignment is decided by the id tie-break alone.
func leafReporter(_ string, tree *hst.Tree) (hst.Code, error) { return tree.CodeOf(0), nil }

// engineIDs lists the ids the server's engine holds, ascending.
func engineIDs(t *testing.T, s *Server) []int {
	t.Helper()
	var ids []int
	s.Core().(*engine.Engine).WalkCap(func(_ hst.Code, id, _ int) { ids = append(ids, id) })
	sort.Ints(ids)
	return ids
}

// TestCompactionPreservesTieBreaks checks that renumbering the slot space
// at a rotation keeps every "lowest registration id wins" decision: carried
// stints keep their relative order and stay below every rotated worker, and
// rotated workers are numbered in report order. Every worker sits on one
// leaf throughout, so the pop order is the id order.
func TestCompactionPreservesTieBreaks(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 7; i++ {
		register(t, s, fmt.Sprintf("w%d", i))
	}
	order := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6"} // ascending registration id
	src := rng.New(17)
	submit := func() string {
		t.Helper()
		resp := s.Submit(TaskRequest{Code: leaf(s, 0)})
		if !resp.Assigned {
			t.Fatalf("submit refused: %s", resp.Reason)
		}
		return resp.WorkerID
	}
	for round := 0; round < 5; round++ {
		// The two lowest ids go busy and are carried across the rotation.
		for i := 0; i < 2; i++ {
			if got := submit(); got != order[i] {
				t.Fatalf("round %d: task %d went to %s, want %s (order %v)", round, i, got, order[i], order)
			}
		}
		// One idle worker churns before the rotation: its withdrawn stint and
		// its new one are both in the table the rotation compacts.
		churned := order[2+src.Intn(len(order)-2)]
		if r := s.Withdraw(WithdrawRequest{WorkerID: churned}); !r.OK {
			t.Fatal(r.Reason)
		}
		register(t, s, churned)

		// The rest re-report in a scrambled order.
		idle := append([]string(nil), order[2:]...)
		src.Shuffle(len(idle), func(a, b int) { idle[a], idle[b] = idle[b], idle[a] })
		resp := s.RotateNow(PrepareRotateRequest{}, idle, leafReporter)
		if !resp.OK || resp.Rotated != len(idle) || len(resp.Dropped) != 0 || resp.Skipped != 0 {
			t.Fatalf("round %d: rotation %+v", round, resp)
		}
		// Compacted: exactly the live stints remain, and the engine holds
		// the ids [carried, carried + rotated).
		if st := s.Stats(); st.SlotTableLen != len(order) {
			t.Fatalf("round %d: slot table holds %d slots for %d live workers", round, st.SlotTableLen, len(order))
		}
		ids := engineIDs(t, s)
		if len(ids) != len(idle) || ids[0] != 2 || ids[len(ids)-1] != len(order)-1 {
			t.Fatalf("round %d: engine ids %v, want [2, %d)", round, ids, len(order))
		}
		// The carried workers release — higher id first — onto the leaf the
		// rotated ones sit on, and must still win it in their old order.
		for i := 1; i >= 0; i-- {
			if r := s.Release(ReleaseRequest{WorkerID: order[i], Code: leaf(s, 0)}); !r.OK {
				t.Fatalf("round %d: release %s: %s", round, order[i], r.Reason)
			}
		}
		order = append(order[:2:2], idle...)
	}
	for i, want := range order {
		if got := submit(); got != want {
			t.Fatalf("drain %d went to %s, want %s (order %v)", i, got, want, order)
		}
	}
}

// near compares ε sums, which are not exact in floating point.
func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestLedgerSurvivesCompaction follows one id's lifetime spend through
// withdraw → rotate (its slot is compacted away) → register, until the
// budget parks it, and checks the parked id stays parked once forgotten.
func TestLedgerSurvivesCompaction(t *testing.T) {
	const eps = 0.6
	s, err := NewServer(workload.SyntheticRegion, 8, 8, eps, 42, WithLifetimeBudget(3*eps))
	if err != nil {
		t.Fatal(err)
	}
	// "stay" is busy throughout: every rotation carries its stint — ledger
	// cell included — without a fresh report.
	register(t, s, "stay")
	if resp := s.Submit(TaskRequest{Code: leaf(s, 0)}); resp.WorkerID != "stay" {
		t.Fatalf("seed task: %+v", resp)
	}
	rotate := func() {
		t.Helper()
		if r := s.RotateNow(PrepareRotateRequest{}, nil, leafReporter); !r.OK {
			t.Fatal(r.Reason)
		}
	}
	conserved := func(when string) {
		t.Helper()
		st := s.Stats()
		sum := s.Spent("a") + s.Spent("stay")
		if !near(st.BudgetSpentTotal, sum) {
			t.Fatalf("%s: accountant total %v, Σ spends %v", when, st.BudgetSpentTotal, sum)
		}
		if st.BudgetedAgents != 2 {
			t.Fatalf("%s: %d budgeted agents, want 2", when, st.BudgetedAgents)
		}
	}
	for stint := 1; stint <= 3; stint++ {
		register(t, s, "a")
		if got, want := s.Spent("a"), float64(stint)*eps; !near(got, want) {
			t.Fatalf("stint %d: a has spent %v, want %v", stint, got, want)
		}
		if st := s.Stats(); st.DepartedLedgerIDs != 0 || st.RegisteredWorkers != 2 {
			t.Fatalf("stint %d: stats %+v", stint, st)
		}
		if r := s.Withdraw(WithdrawRequest{WorkerID: "a"}); !r.OK {
			t.Fatal(r.Reason)
		}
		rotate()
		// The withdrawn stint is gone from the table; its spend is not.
		if st := s.Stats(); st.SlotTableLen != 1 || st.DepartedLedgerIDs != 1 {
			t.Fatalf("stint %d after rotation: stats %+v", stint, st)
		}
		if got, want := s.Spent("a"), float64(stint)*eps; !near(got, want) {
			t.Fatalf("stint %d after rotation: a has spent %v, want %v", stint, got, want)
		}
		conserved(fmt.Sprintf("stint %d", stint))
	}
	// The fourth report does not fit: parked, nothing charged, nothing
	// inserted — and the id stays parked after the table forgot it.
	before := s.Stats()
	if r := s.Register(RegisterRequest{WorkerID: "a", Code: leaf(s, 1)}); r.OK || !r.Parked {
		t.Fatalf("over-budget registration: %+v", r)
	}
	rotate()
	for op, r := range map[string]RegisterResponse{
		"register": s.Register(RegisterRequest{WorkerID: "a", Code: leaf(s, 1)}),
		"release":  s.Release(ReleaseRequest{WorkerID: "a"}),
		"withdraw": s.Withdraw(WithdrawRequest{WorkerID: "a"}),
		"update":   s.Reregister(ReregisterRequest{WorkerID: "a", Code: leaf(s, 1)}),
	} {
		if r.OK || !r.Parked {
			t.Errorf("%s of the forgotten parked id: %+v", op, r)
		}
	}
	after := s.Stats()
	if after.SlotTableLen != 1 || after.ParkedWorkers != 1 || after.RegisteredWorkers != 2 {
		t.Fatalf("stats after parking: %+v", after)
	}
	if after.BudgetSpentTotal != before.BudgetSpentTotal {
		t.Fatalf("refused reports moved the total %v → %v", before.BudgetSpentTotal, after.BudgetSpentTotal)
	}
	conserved("end")
	if r := s.Release(ReleaseRequest{WorkerID: "stay", Code: leaf(s, 0)}); !r.OK || !near(s.Spent("stay"), 2*eps) {
		t.Fatalf("carried worker's release: %+v, spent %v", r, s.Spent("stay"))
	}
}

// TestCompactedGoneIDIsForgotten pins the one visible change compaction
// makes without a lifetime budget: a withdrawn id whose slot a rotation
// dropped is unknown afterwards, and counts as new when it returns.
func TestCompactedGoneIDIsForgotten(t *testing.T) {
	s := newTestServer(t)
	register(t, s, "stay")
	register(t, s, "w")
	if r := s.Withdraw(WithdrawRequest{WorkerID: "w"}); !r.OK {
		t.Fatal(r.Reason)
	}
	if r := s.Release(ReleaseRequest{WorkerID: "w"}); r.OK || !strings.Contains(r.Reason, "has withdrawn") {
		t.Fatalf("release before the rotation: %+v", r)
	}
	if r := s.RotateNow(PrepareRotateRequest{}, nil, leafReporter); !r.OK {
		t.Fatal(r.Reason)
	}
	if r := s.Release(ReleaseRequest{WorkerID: "w"}); r.OK || !strings.Contains(r.Reason, "not registered") {
		t.Fatalf("release after the rotation: %+v", r)
	}
	if r := s.Withdraw(WithdrawRequest{WorkerID: "w"}); r.OK || !strings.Contains(r.Reason, "not registered") {
		t.Fatalf("withdraw after the rotation: %+v", r)
	}
	register(t, s, "w")
	if st := s.Stats(); st.RegisteredWorkers != 3 || st.DepartedLedgerIDs != 0 || st.SlotTableLen != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// blockingCore pops, then holds the answer back until released: the state
// an untagged Submit is in when a rotation arrives mid-flight.
type blockingCore struct {
	*engine.Engine
	armed            atomic.Bool
	entered, release chan struct{}
}

func (c *blockingCore) Assign(code hst.Code) (int, int, bool) {
	id, lvl, ok := c.Engine.Assign(code)
	if c.armed.CompareAndSwap(true, false) {
		close(c.entered)
		<-c.release
	}
	return id, lvl, ok
}

// TestPopNeverCrossesRotation holds a Submit between its pop and its
// bookkeeping while a full rotation is attempted. The rotation renumbers
// every slot, so it must wait for the pop to be booked against the table it
// was taken from: no worker is assigned twice and no unit is lost.
func TestPopNeverCrossesRotation(t *testing.T) {
	grid := newTestServer(t).Publication()
	eng, err := engine.New(grid.Tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	core := &blockingCore{Engine: eng, entered: make(chan struct{}), release: make(chan struct{})}
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithCore(core))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		register(t, s, fmt.Sprintf("w%d", i))
	}

	core.armed.Store(true)
	submitted := make(chan TaskResponse, 1)
	go func() { submitted <- s.Submit(TaskRequest{Code: leaf(s, 0)}) }()
	<-core.entered // w0 is popped, nothing is booked

	// Every worker re-reports, w0 included: the server still has it as
	// available.
	rotated := make(chan RotateResponse, 1)
	go func() { rotated <- s.RotateNow(PrepareRotateRequest{}, nil, leafReporter) }()
	// A writer queued on the gate turns readers away: wait for that.
	for s.gate.TryRLock() {
		s.gate.RUnlock()
		runtime.Gosched()
	}
	select {
	case r := <-rotated:
		t.Fatalf("rotation committed under an in-flight pop: %+v", r)
	default:
	}
	close(core.release)

	first := <-submitted
	if !first.Assigned || first.WorkerID != "w0" || first.Epoch != 1 {
		t.Fatalf("held submit: %+v", first)
	}
	rot := <-rotated
	// By commit time w0 is busy: its report is skipped and its stint carried.
	if !rot.OK || rot.Rotated != n-1 || rot.Skipped != 1 || len(rot.Dropped) != 0 {
		t.Fatalf("rotation: %+v", rot)
	}
	seen := map[string]bool{first.WorkerID: true}
	for {
		resp := s.Submit(TaskRequest{Code: leaf(s, 0)})
		if !resp.Assigned {
			break
		}
		if seen[resp.WorkerID] {
			t.Fatalf("%s assigned twice", resp.WorkerID)
		}
		seen[resp.WorkerID] = true
	}
	if len(seen) != n {
		t.Fatalf("%d of %d workers assigned: %v", len(seen), n, seen)
	}
	for w := range seen {
		if r := s.Release(ReleaseRequest{WorkerID: w, Code: leaf(s, 0)}); !r.OK {
			t.Fatalf("release %s: %s", w, r.Reason)
		}
	}
	if st := s.Stats(); st.AvailableWorkers != n || st.CapacityUnits != n || st.AssignedTasks != n || st.SlotTableLen != n {
		t.Fatalf("books after the drain: %+v", st)
	}
}

// flakyCore refuses the next insert, relocation or swap once.
type flakyCore struct {
	*engine.Engine
	failNext bool
}

var errFlaky = fmt.Errorf("flaky core: %w", hst.ErrIndexFull)

func (c *flakyCore) InsertCapEpoch(code hst.Code, id, capacity int, epoch int64) error {
	if c.failNext {
		c.failNext = false
		return errFlaky
	}
	return c.Engine.InsertCapEpoch(code, id, capacity, epoch)
}

func (c *flakyCore) RelocateEpoch(from, to hst.Code, id, extra int, epoch int64) (int, error) {
	if c.failNext {
		c.failNext = false
		return 0, errFlaky
	}
	return c.Engine.RelocateEpoch(from, to, id, extra, epoch)
}

func (c *flakyCore) SwapEpochSeq(epoch int64, tree *hst.Tree, shards int, seq func(yield func(engine.EpochInsert) bool)) error {
	if c.failNext {
		c.failNext = false
		return errFlaky
	}
	return c.Engine.SwapEpochSeq(epoch, tree, shards, seq)
}

// TestRefusedInsertBurnsNoBudget is the regression test for charging ε
// before the engine accepted the report: a refused insert leaves the
// lifetime total where it was, and the client's retry is charged once.
func TestRefusedInsertBurnsNoBudget(t *testing.T) {
	const eps = 0.6
	pub := newTestServer(t).Publication()
	eng, err := engine.New(pub.Tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	core := &flakyCore{Engine: eng}
	s, err := NewServer(workload.SyntheticRegion, 8, 8, eps, 42, WithCore(core), WithLifetimeBudget(10*eps))
	if err != nil {
		t.Fatal(err)
	}
	total := func() float64 { return s.Stats().BudgetSpentTotal }
	attempt := func(what string, want float64, op func() RegisterResponse) {
		t.Helper()
		core.failNext = true
		if r := op(); r.OK {
			t.Fatalf("%s: accepted although the engine refused the insert", what)
		}
		if got := total(); !near(got, want-eps) {
			t.Fatalf("%s: refused insert moved the total to %v, want %v", what, got, want-eps)
		}
		if r := op(); !r.OK {
			t.Fatalf("%s retry: %s", what, r.Reason)
		}
		if got := total(); !near(got, want) {
			t.Fatalf("%s: total after the retry %v, want %v", what, got, want)
		}
		if got := s.Spent("w"); !near(got, want) {
			t.Fatalf("%s: worker charged %v, want %v", what, got, want)
		}
	}
	attempt("register", eps, func() RegisterResponse {
		return s.Register(RegisterRequest{WorkerID: "w", Code: leaf(s, 0)})
	})
	if st := s.Stats(); st.RegisteredWorkers != 1 || st.SlotTableLen != 1 {
		t.Fatalf("a refused registration left state behind: %+v", st)
	}
	attempt("reregister", eps+eps, func() RegisterResponse {
		return s.Reregister(ReregisterRequest{WorkerID: "w", Code: leaf(s, 1)})
	})
	if resp := s.Submit(TaskRequest{Code: leaf(s, 1)}); !resp.Assigned {
		t.Fatal(resp.Reason)
	}
	attempt("release", eps+eps+eps, func() RegisterResponse {
		return s.Release(ReleaseRequest{WorkerID: "w", Code: leaf(s, 2)})
	})
	if st := s.Stats(); st.AvailableWorkers != 1 || st.CapacityUnits != 1 || st.ReleasedWorkers != 1 {
		t.Fatalf("books after the retried release: %+v", st)
	}
}

// TestServingPathAllocs pins the whole in-process serving path, not just
// the codec: a Submit allocates nothing, and neither does a fresh report —
// Register, Reregister, Release with a code — whose bytes are validated
// where the request holds them and copied into the slot's page.
func TestServingPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race")
	}
	const runs = 500
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithLifetimeBudget(1e6))
	if err != nil {
		t.Fatal(err)
	}
	// Touch every point Observe will count, so nothing about it is cold.
	fresh := make([][]byte, 8)
	for i := range fresh {
		fresh[i] = leaf(s, i)
	}
	ids := make([]string, runs+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i)
	}
	// This one allocates the table's page; what is left to the runs — the
	// index's and the engine arenas' few doublings — averages to nothing.
	register(t, s, "first")
	k := 0
	if n := testing.AllocsPerRun(runs, func() {
		if r := s.Register(RegisterRequest{WorkerID: ids[k], Code: fresh[k%len(fresh)]}); !r.OK {
			t.Fatal(r.Reason)
		}
		k++
	}); n != 0 {
		t.Errorf("Register allocates %.2f/op, want 0", n)
	}
	k = 0
	if n := testing.AllocsPerRun(runs, func() {
		if r := s.Reregister(ReregisterRequest{WorkerID: ids[k], Code: fresh[(k+1)%len(fresh)]}); !r.OK {
			t.Fatal(r.Reason)
		}
		k++
	}); n != 0 {
		t.Errorf("Reregister allocates %.2f/op, want 0", n)
	}
	task := leaf(s, 0)
	busy := make([]string, 0, runs+2)
	if n := testing.AllocsPerRun(runs, func() {
		resp := s.Submit(TaskRequest{Code: task})
		if !resp.Assigned {
			t.Fatal(resp.Reason)
		}
		busy = append(busy, resp.WorkerID)
	}); n != 0 {
		t.Errorf("Submit allocates %.2f/op, want 0", n)
	}
	k = 0
	if n := testing.AllocsPerRun(runs, func() {
		if r := s.Release(ReleaseRequest{WorkerID: busy[k], Code: fresh[k%len(fresh)]}); !r.OK {
			t.Fatal(r.Reason)
		}
		k++
	}); n != 0 {
		t.Errorf("Release with a fresh code allocates %.2f/op, want 0", n)
	}
}
