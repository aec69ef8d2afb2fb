package platform

import (
	"fmt"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// TestLedgerConservesAgainstRecount holds the server's lifetime-ε books to
// a recount the test keeps itself, from the answers alone: every accepted
// fresh report (a registration, a reregistration, a release with a code, a
// rotation re-report) counts one for its id, and every id answered parked
// once is parked. A seeded tape of registers, submits, releases with and
// without a code, reregisters and withdrawals runs under a core that
// refuses some of the reports, with two rotations — the first refused by a
// failed swap and retried, and each compacting parked ids and an id that
// withdrew at its limit. At the end, BudgetSpentTotal is the recount's ε
// summed in order, BudgetedAgents the ids it counts, Spent(id) its count
// times ε for every id (compacted ones included), and ParkedWorkers the ids
// answered parked, once a registration has probed every id.
func TestLedgerConservesAgainstRecount(t *testing.T) {
	const eps, limit = 0.6, 10
	pub := newTestServer(t).Publication()
	eng, err := engine.NewWithOptions(pub.Tree, 0, engine.WithPolicy(engine.CapacityGreedy()), engine.WithDefaultCapacity(2))
	if err != nil {
		t.Fatal(err)
	}
	core := &flakyCore{Engine: eng}
	s, err := NewServer(workload.SyntheticRegion, 8, 8, eps, 42, WithCore(core), WithLifetimeBudget(limit*eps))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	code := func() []byte { return leaf(s, src.Intn(64)) }
	reports := map[string]int{} // the recount: accepted fresh reports per id
	parked := map[string]bool{} // ids some answer said are parked
	ids := []string{"g", "p", "r"}
	for i := 0; i < 10; i++ {
		ids = append(ids, fmt.Sprint("w", i))
	}
	// answer records who an answer says is parked.
	answer := func(id string, r RegisterResponse) {
		if r.Parked {
			parked[id] = true
		}
	}
	// book records a fresh report's answer; a report the core refused must
	// be answered so, and charge nothing.
	refused := 0
	book := func(id string, r RegisterResponse, coreRefused bool) {
		t.Helper()
		switch {
		case coreRefused && r.OK:
			t.Fatalf("%s: a report the core refused was accepted", id)
		case coreRefused:
			refused++
		case r.OK:
			reports[id]++
		}
		answer(id, r)
	}
	// fresh runs a fresh report, making the core refuse it when fail is set.
	fresh := func(id string, fail bool, op func() RegisterResponse) {
		t.Helper()
		core.failNext = fail
		r := op()
		reached := fail && !core.failNext
		core.failNext = false
		book(id, r, reached)
	}
	register := func(id string, fail bool) {
		fresh(id, fail, func() RegisterResponse { return s.Register(RegisterRequest{WorkerID: id, Code: code()}) })
	}
	reregister := func(id string, fail bool) {
		fresh(id, fail, func() RegisterResponse { return s.Reregister(ReregisterRequest{WorkerID: id, Code: code()}) })
	}
	releaseFresh := func(id string, fail bool) {
		fresh(id, fail, func() RegisterResponse { return s.Release(ReleaseRequest{WorkerID: id, Code: code()}) })
	}
	churn := func(steps int) {
		for step := 0; step < steps; step++ {
			id, fail := ids[3+src.Intn(len(ids)-3)], src.Intn(5) == 0
			switch k := src.Intn(100); {
			case k < 20:
				register(id, fail)
			case k < 40:
				s.Submit(TaskRequest{Code: code()})
			case k < 65:
				releaseFresh(id, fail)
			case k < 75:
				answer(id, s.Release(ReleaseRequest{WorkerID: id}))
			case k < 90:
				reregister(id, fail)
			default:
				answer(id, s.Withdraw(WithdrawRequest{WorkerID: id}))
			}
		}
	}
	// rotate runs one rotation, re-reporting every available worker, and
	// books who rotated and who parked.
	rotate := func(fail bool) RotateResponse {
		t.Helper()
		var asked []string
		core.failNext = fail
		r := s.RotateNow(PrepareRotateRequest{}, nil, func(id string, tree *hst.Tree) (hst.Code, error) {
			asked = append(asked, id)
			return tree.CodeOf(src.Intn(tree.NumPoints())), nil
		})
		core.failNext = false
		if r.OK == fail || len(r.Dropped) != 0 || r.Skipped != 0 {
			t.Fatalf("rotation (swap refused: %v): %+v", fail, r)
		}
		if !r.OK {
			return r
		}
		for _, id := range r.Parked {
			parked[id] = true
		}
		for _, id := range asked {
			if !parked[id] {
				reports[id]++
			}
		}
		return r
	}
	// ledger is what the books must read: the recount's ε summed in charge
	// order — every charge adds the one ε, so the order does not matter —
	// and the ids it counts.
	ledger := func() (spent float64, agents int) {
		for _, n := range reports {
			for i := 0; i < n; i++ {
				spent += eps
			}
			agents++
		}
		return spent, agents
	}
	check := func(when string) {
		t.Helper()
		st := s.Stats()
		spent, agents := ledger()
		if !near(st.BudgetSpentTotal, spent) || st.BudgetedAgents != agents {
			t.Fatalf("%s: books read %v spent over %d agents, the recount %v over %d",
				when, st.BudgetSpentTotal, st.BudgetedAgents, spent, agents)
		}
		for _, id := range ids {
			if got, want := s.Spent(id), float64(reports[id])*eps; got != want {
				t.Fatalf("%s: %s has spent %v, the recount %v", when, id, got, want)
			}
		}
	}

	// g reaches its limit and withdraws: no refusal parks it, but a
	// rotation compacts it out at its limit. p's fifth report parks it in
	// the table. r sits at its limit, available, until a rotation's
	// re-report parks it.
	toLimit := func(id string) {
		register(id, false)
		for i := 1; i < limit; i++ {
			reregister(id, false)
		}
	}
	toLimit("g")
	toLimit("p")
	reregister("p", false)
	answer("g", s.Withdraw(WithdrawRequest{WorkerID: "g"}))
	churn(200)
	toLimit("r")
	if !parked["p"] || parked["g"] || parked["r"] {
		t.Fatalf("before the first rotation: parked %v", parked)
	}
	check("first epoch")

	// A swap the core refuses commits nothing: no report charged, nobody
	// parked, the table as it was.
	before := s.Stats()
	rotate(true)
	if after := s.Stats(); after.BudgetSpentTotal != before.BudgetSpentTotal ||
		after.ParkedWorkers != before.ParkedWorkers || after.SlotTableLen != before.SlotTableLen || after.Epoch != before.Epoch {
		t.Fatalf("a refused swap moved the books: %+v → %+v", before, after)
	}
	check("refused swap")
	if r := rotate(false); !parked["r"] || r.Rotated == 0 {
		t.Fatalf("r was not parked at its limit: %+v", r)
	}
	check("first rotation")
	for _, id := range []string{"g", "p", "r"} {
		// Compacted out of the table, each still answers parked.
		if r := s.Release(ReleaseRequest{WorkerID: id}); r.OK || !r.Parked {
			t.Fatalf("the compacted id %s: %+v", id, r)
		}
	}
	churn(200)
	if r := rotate(false); r.Rotated == 0 {
		t.Fatalf("the second rotation rotated nobody: %+v", r)
	}
	churn(100)
	check("third epoch")

	// Probe every id with a registration, so an id that left the table at
	// its limit answers parked too.
	for _, id := range ids {
		register(id, false)
	}
	check("end")
	if st := s.Stats(); st.ParkedWorkers != len(parked) {
		t.Fatalf("%d workers parked, the answers name %d: %v", st.ParkedWorkers, len(parked), parked)
	}
	if refused < 10 || len(parked) < 4 || s.Stats().Rotations != 2 {
		t.Fatalf("the tape is too tame: %d core refusals, %d parked, %d rotations", refused, len(parked), s.Stats().Rotations)
	}
	t.Logf("%d charged reports over %d ids, %d core refusals, %d parked", func() (n int) {
		for _, c := range reports {
			n += c
		}
		return n
	}(), len(reports), refused, len(parked))
}

// TestSpendWithoutAccounting: with no lifetime budget nothing is charged —
// no spend, no totals, no departed ledger — and no worker is ever parked,
// however often it reports.
func TestSpendWithoutAccounting(t *testing.T) {
	s := newTestServer(t)
	register(t, s, "w")
	for i := 0; i < 100; i++ {
		if r := s.Reregister(ReregisterRequest{WorkerID: "w", Code: leaf(s, i%64)}); !r.OK {
			t.Fatalf("unbudgeted report %d refused: %s", i, r.Reason)
		}
	}
	if r := s.Withdraw(WithdrawRequest{WorkerID: "w"}); !r.OK {
		t.Fatal(r.Reason)
	}
	if r := s.RotateNow(PrepareRotateRequest{}, nil, leafReporter); !r.OK {
		t.Fatal(r.Reason)
	}
	register(t, s, "w")
	if st := s.Stats(); st.BudgetSpentTotal != 0 || st.BudgetLimit != 0 || st.BudgetedAgents != 0 ||
		st.ParkedWorkers != 0 || st.DepartedLedgerIDs != 0 || s.Spent("w") != 0 {
		t.Fatalf("accounting without a budget: %+v, spent %v", st, s.Spent("w"))
	}
}
