package platform

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// TestConcurrentRotateEpochConsistency is the rotation property test,
// modeled on the engine churn test: submitters, churners (register/
// withdraw), and a rotator hammer one server concurrently under -race.
// Two invariants are asserted:
//
//  1. Epoch consistency — every accepted assignment pairs a task with a
//     worker obfuscated under the task's own epoch (the response stamp
//     equals the epoch the submitter tagged), and every pop that raced a
//     rotation was either refused as stale or retried onto the new epoch;
//     no cross-epoch match ever surfaces.
//  2. Budget conservation — the accountant's grand total equals ε times
//     the number of accepted fresh reports the callers observed
//     (registrations, fresh-code releases, rotation re-reports), and no
//     worker exceeds its lifetime budget.
func TestConcurrentRotateEpochConsistency(t *testing.T) {
	const eps = 0.6
	// Roomy lifetime so parking stays rare but possible under stress.
	s, err := NewServer(workload.SyntheticRegion, 16, 16, eps, 42,
		WithShards(4), WithLifetimeBudget(60*eps))
	if err != nil {
		t.Fatal(err)
	}

	const nWorkers = 128
	const nSubmitters = 4
	const nChurners = 3
	rotations := stressScale(8)
	opsPerSubmitter := stressScale(400)
	opsPerChurner := stressScale(200)

	// freshReports counts every accepted fresh report across all
	// goroutines: the callers' half of the budget-conservation ledger.
	var freshReports atomic.Int64
	var crossEpoch atomic.Int64
	var assignedTotal atomic.Int64

	// Per-worker locks serialise one worker's lifecycle without
	// serialising the server. Worker w may be registered/withdrawn by its
	// churner and released by any submitter that got it assigned.
	type workerSlot struct {
		mu         sync.Mutex
		registered bool
		parked     bool
	}
	slots := make([]workerSlot, nWorkers)
	name := func(w int) string { return fmt.Sprintf("w%d", w) }

	// obf builds a fresh obfuscator over the current publication; each
	// goroutine re-fetches after observing a stale-epoch refusal.
	obf := func(seed uint64) (*Obfuscator, Publication) {
		pub := s.Publication()
		o, err := NewObfuscator(pub, seed)
		if err != nil {
			panic(err)
		}
		return o, pub
	}

	// Seed the pool.
	{
		o, pub := obf(1)
		src := rng.New(2)
		for w := 0; w < nWorkers; w++ {
			resp := s.Register(RegisterRequest{
				WorkerID: name(w),
				Code:     []byte(o.Obfuscate(geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200)))),
				Epoch:    pub.Epoch,
			})
			if !resp.OK {
				t.Fatal(resp.Reason)
			}
			slots[w].registered = true
			freshReports.Add(1)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < nSubmitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(10).DeriveN("submit", g)
			o, pub := obf(uint64(100 + g))
			for op := 0; op < opsPerSubmitter; op++ {
				code := o.Obfuscate(geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200)))
				resp := s.Submit(TaskRequest{Code: []byte(code), Epoch: pub.Epoch})
				if !resp.Assigned {
					// Stale epoch: re-fetch the publication and continue.
					// "no available workers" is a normal outcome under churn.
					if pub2 := s.Publication(); pub2.Epoch != pub.Epoch {
						o, pub = obf(uint64(100 + g))
					}
					continue
				}
				assignedTotal.Add(1)
				if resp.Epoch != pub.Epoch {
					// The invariant under test: an accepted assignment pairs
					// the task's epoch exactly.
					crossEpoch.Add(1)
					t.Errorf("task tagged epoch %d matched worker from epoch %d", pub.Epoch, resp.Epoch)
				}
				// Release the worker back, usually at a fresh code (a fresh
				// spend), sometimes re-reporting (free, same epoch only).
				var w int
				fmt.Sscanf(resp.WorkerID, "w%d", &w)
				slots[w].mu.Lock()
				if src.Intn(4) > 0 {
					rel := s.Release(ReleaseRequest{
						WorkerID: resp.WorkerID,
						Code:     []byte(o.Obfuscate(geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200)))),
						Epoch:    pub.Epoch,
					})
					switch {
					case rel.OK:
						freshReports.Add(1)
					case rel.Parked:
						slots[w].parked = true
						slots[w].registered = false
					}
					// A stale-epoch refusal leaves the worker assigned; a
					// later release attempt (or the drain below) settles it.
					if !rel.OK && !rel.Parked {
						rel2 := s.Release(ReleaseRequest{WorkerID: resp.WorkerID})
						_ = rel2 // empty re-report may also be refused post-rotation; drained below
					}
				} else {
					rel := s.Release(ReleaseRequest{WorkerID: resp.WorkerID})
					_ = rel
				}
				slots[w].mu.Unlock()
			}
		}(g)
	}
	for g := 0; g < nChurners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(20).DeriveN("churn", g)
			o, pub := obf(uint64(200 + g))
			for op := 0; op < opsPerChurner; op++ {
				w := src.Intn(nWorkers)
				slots[w].mu.Lock()
				if slots[w].parked {
					slots[w].mu.Unlock()
					continue
				}
				if slots[w].registered && src.Intn(2) == 0 {
					resp := s.Withdraw(WithdrawRequest{WorkerID: name(w)})
					if resp.OK {
						slots[w].registered = false
					} else if resp.Parked {
						slots[w].parked = true
						slots[w].registered = false
					}
					// "not registered"/"already withdrawn" can happen when a
					// rotation dropped or re-slotted the worker; harmless.
				} else if !slots[w].registered {
					resp := s.Register(RegisterRequest{
						WorkerID: name(w),
						Code:     []byte(o.Obfuscate(geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200)))),
						Epoch:    pub.Epoch,
					})
					switch {
					case resp.OK:
						slots[w].registered = true
						freshReports.Add(1)
					case resp.Parked:
						slots[w].parked = true
					default:
						if pub2 := s.Publication(); pub2.Epoch != pub.Epoch {
							o, pub = obf(uint64(200 + g))
						}
					}
				}
				slots[w].mu.Unlock()
			}
		}(g)
	}

	// The rotator: prepare + re-obfuscate + commit, concurrently with all
	// of the above. Fresh reports come from a reporter goroutine-local rng.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.New(30)
		for r := 0; r < rotations; r++ {
			resp := s.RotateNow(PrepareRotateRequest{}, nil, func(workerID string, tree *hst.Tree) (hst.Code, error) {
				b := make([]byte, tree.Depth())
				for j := range b {
					b[j] = byte(src.Intn(tree.Degree()))
				}
				return hst.Code(b), nil
			})
			if !resp.OK {
				t.Errorf("rotation %d: %s", r, resp.Reason)
				return
			}
			freshReports.Add(int64(resp.Rotated))
			// Rotation closes stints: dropped workers are offline, parked
			// are terminal. Reflect both in the test ledger.
			for _, id := range resp.Dropped {
				var w int
				fmt.Sscanf(id, "w%d", &w)
				slots[w].mu.Lock()
				slots[w].registered = false
				slots[w].mu.Unlock()
			}
			for _, id := range resp.Parked {
				var w int
				fmt.Sscanf(id, "w%d", &w)
				slots[w].mu.Lock()
				slots[w].parked = true
				slots[w].registered = false
				slots[w].mu.Unlock()
			}
		}
	}()
	wg.Wait()

	if assignedTotal.Load() == 0 {
		t.Fatal("no assignments happened; the race exercised nothing")
	}
	if crossEpoch.Load() > 0 {
		t.Fatalf("%d cross-epoch assignments", crossEpoch.Load())
	}

	// Quiesced: budget conservation. The accountant's total must equal ε
	// times the callers' count of accepted fresh reports exactly — every
	// spend observed by a caller and no spend invented by the server.
	st := s.Stats()
	wantSpent := eps * float64(freshReports.Load())
	if diff := st.BudgetSpentTotal - wantSpent; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("BudgetSpentTotal = %v, callers observed %d fresh reports (= %v)",
			st.BudgetSpentTotal, freshReports.Load(), wantSpent)
	}
	if st.BudgetLimit != 60*eps {
		t.Errorf("BudgetLimit = %v", st.BudgetLimit)
	}
	// ...and no worker ever exceeds its lifetime limit.
	for w := 0; w < nWorkers; w++ {
		if spent := s.Spent(name(w)); spent > st.BudgetLimit+1e-9 {
			t.Errorf("worker %d spent %v over limit %v", w, spent, st.BudgetLimit)
		}
	}
	if st.Epoch != int64(1+rotations) {
		t.Errorf("final epoch %d, want %d", st.Epoch, 1+rotations)
	}

	// Drain: every remaining available worker must be from the final
	// epoch, at a code valid for the final tree.
	pub := s.Publication()
	o, err := NewObfuscator(pub, 999)
	if err != nil {
		t.Fatal(err)
	}
	for {
		resp := s.Submit(TaskRequest{Code: []byte(o.Obfuscate(geo.Pt(100, 100))), Epoch: pub.Epoch})
		if !resp.Assigned {
			break
		}
		if resp.Epoch != pub.Epoch {
			t.Fatalf("drained worker %s from epoch %d, serving %d", resp.WorkerID, resp.Epoch, pub.Epoch)
		}
	}
}
