package engine

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// stressN scales iteration counts: the nightly CI lane sets POMBM_STRESS
// to hammer the interleavings much harder than the per-push run.
func stressN(base int) int {
	if os.Getenv("POMBM_STRESS") != "" {
		return base * 10
	}
	return base
}

// churnLedger is the test's ground truth for worker lifecycles. Per-id
// locks serialise bookkeeping for one worker without serialising the
// engine itself, so cross-worker engine races stay live while the ledger
// stays consistent.
type churnLedger struct {
	mu    []sync.Mutex
	state []uint8 // 0 offline, 1 available, 2 assigned, 3 departed
	code  []hst.Code
}

const (
	lOffline uint8 = iota
	lAvailable
	lAssigned
	lDeparted
)

func newChurnLedger(n int) *churnLedger {
	return &churnLedger{
		mu:    make([]sync.Mutex, n),
		state: make([]uint8, n),
		code:  make([]hst.Code, n),
	}
}

func randCode(tree *hst.Tree, src *rng.Source) hst.Code {
	b := make([]byte, tree.Depth())
	for j := range b {
		b[j] = byte(src.Intn(tree.Degree()))
	}
	return hst.Code(b)
}

// TestConcurrentChurn interleaves Register (Insert), Assign, Release
// (re-Insert by the assigner), departure (Remove) and re-registration at a
// fresh code across goroutines, asserting under -race that no task is ever
// matched to a departed, offline, or already-assigned worker, and that the
// engine's index accounting survives the churn intact.
func TestConcurrentChurn(t *testing.T) {
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(tree, 4)
	if err != nil {
		t.Fatal(err)
	}

	const nWorkers = 512
	const nChurners = 4
	const nAssigners = 4
	opsPerChurner := stressN(400)
	opsPerAssigner := stressN(600)

	led := newChurnLedger(nWorkers)
	var violations atomic.Int64
	var assignedTotal atomic.Int64
	fail := func(format string, args ...any) {
		violations.Add(1)
		t.Errorf(format, args...)
	}

	// Seed half the pool so assigners have something to pop immediately.
	seedSrc := rng.New(1).Derive("seed-pool")
	for id := 0; id < nWorkers/2; id++ {
		led.code[id] = randCode(tree, seedSrc)
		led.state[id] = lAvailable
		if err := eng.Insert(led.code[id], id); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < nChurners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(7).DeriveN("churner", g)
			for op := 0; op < opsPerChurner; op++ {
				id := src.Intn(nWorkers)
				led.mu[id].Lock()
				switch led.state[id] {
				case lOffline, lDeparted:
					// (Re-)register at a freshly obfuscated code.
					led.code[id] = randCode(tree, src)
					if err := eng.Insert(led.code[id], id); err != nil {
						fail("insert worker %d: %v", id, err)
					} else {
						led.state[id] = lAvailable
					}
				case lAvailable:
					// Worker goes offline. A failed Remove means a
					// concurrent Assign popped it first: the assignment
					// wins and its goroutine updates the ledger.
					if eng.Remove(led.code[id], id) {
						led.state[id] = lDeparted
					}
				case lAssigned:
					// Busy worker: leave it to its assigner.
				}
				led.mu[id].Unlock()
			}
		}(g)
	}
	for g := 0; g < nAssigners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(13).DeriveN("assigner", g)
			for op := 0; op < opsPerAssigner; op++ {
				task := randCode(tree, src)
				id, _, ok := eng.Assign(task)
				if !ok {
					continue
				}
				assignedTotal.Add(1)
				led.mu[id].Lock()
				switch led.state[id] {
				case lAvailable:
					led.state[id] = lAssigned
				case lDeparted:
					fail("task matched departed worker %d", id)
				case lOffline:
					fail("task matched offline worker %d", id)
				case lAssigned:
					fail("worker %d double-assigned", id)
				}
				led.mu[id].Unlock()
				// Half the time the worker finishes quickly and is
				// released back at a new report.
				if src.Intn(2) == 0 {
					led.mu[id].Lock()
					if led.state[id] == lAssigned {
						led.code[id] = randCode(tree, src)
						if err := eng.Insert(led.code[id], id); err != nil {
							fail("release worker %d: %v", id, err)
						} else {
							led.state[id] = lAvailable
						}
					}
					led.mu[id].Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	if assignedTotal.Load() == 0 {
		t.Fatal("no assignments happened; the interleaving test exercised nothing")
	}

	// Quiesced: the index's accounting must agree with the ledger exactly.
	want := map[int]bool{}
	for id := 0; id < nWorkers; id++ {
		if led.state[id] == lAvailable {
			want[id] = true
		}
	}
	if n := eng.Len(); n != len(want) {
		t.Errorf("engine.Len() = %d, ledger has %d available", n, len(want))
	}
	if u := eng.CapacityUnits(); u != len(want) {
		t.Errorf("engine.CapacityUnits() = %d, ledger has %d available capacity-1 workers", u, len(want))
	}

	// Drain through Assign: every pop walks the trie's count/minID
	// bookkeeping, so a corrupted index surfaces as a wrong or missing id.
	drainSrc := rng.New(21).Derive("drain")
	got := map[int]bool{}
	for {
		id, _, ok := eng.Assign(randCode(tree, drainSrc))
		if !ok {
			break
		}
		if got[id] {
			t.Fatalf("worker %d drained twice", id)
		}
		got[id] = true
	}
	if len(got) != len(want) {
		t.Errorf("drained %d workers, ledger has %d available", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("available worker %d missing from drain", id)
		}
	}
	if eng.Len() != 0 {
		t.Errorf("engine.Len() = %d after drain", eng.Len())
	}
	if v := violations.Load(); v > 0 {
		t.Fatalf("%d lifecycle violations", v)
	}
}

// TestConcurrentChurnAcrossShardCounts re-runs a smaller churn once per
// shard count a caller may pass. New ignores the count — the engine is one
// index under one lock — so every run must serve alike.
func TestConcurrentChurnAcrossShardCounts(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)), 8, 8)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := hst.Build(grid.Points(), rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(tree, shards)
			if err != nil {
				t.Fatal(err)
			}
			const n = 128
			led := newChurnLedger(n)
			var wg sync.WaitGroup
			var bad atomic.Int64
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					src := rng.New(31).DeriveN("mix", g)
					for op := 0; op < stressN(300); op++ {
						id := src.Intn(n)
						led.mu[id].Lock()
						switch led.state[id] {
						case lAvailable:
							if eng.Remove(led.code[id], id) {
								led.state[id] = lOffline
							} else {
								// Lost to a concurrent Assign by another
								// goroutine of this same mix: reconcile.
								led.state[id] = lAssigned
							}
						default:
							led.code[id] = randCode(tree, src)
							if err := eng.Insert(led.code[id], id); err != nil {
								bad.Add(1)
							} else {
								led.state[id] = lAvailable
							}
						}
						led.mu[id].Unlock()
						if op%3 == 0 {
							if id, _, ok := eng.Assign(randCode(tree, src)); ok {
								led.mu[id].Lock()
								if led.state[id] == lAvailable {
									led.state[id] = lAssigned
								}
								led.mu[id].Unlock()
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if bad.Load() > 0 {
				t.Fatalf("%d unexpected insert failures", bad.Load())
			}
			if u, n := eng.CapacityUnits(), eng.Len(); u != n {
				t.Errorf("CapacityUnits %d != Len %d for capacity-1 workers", u, n)
			}
		})
	}
}

// TestLongBatchYieldsBetweenWindows races long batch-optimal batches with
// every writer the engine has. A 700-task batch is three windows back to
// back, each under its own hold of the engine's lock, so InsertCapEpoch,
// RelocateEpoch (a unit handed back at a fresh leaf or the same one, or a
// bare move), RemoveUnits and an epoch swap all land between the windows of
// a batch in flight. Against a per-worker ledger it asserts, under
// -race, that no unit of capacity is handed out twice, that no answer names
// a worker whose removal had returned before the batch began, that the
// quiesced engine holds exactly the units the ledger says, and that the
// yield is real: some mutation held the lock while a batch had its
// first window behind it and its last still ahead.
//
// Worker ids are renumbered by the swap (id = w + nWorkers in the second
// epoch), as a platform rotation renumbers slots: an answer then says which
// epoch's stint it consumed, which is what lets a batch that straddles the
// swap be accounted exactly.
func TestLongBatchYieldsBetweenWindows(t *testing.T) {
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewWithOptions(tree, 4, WithPolicy(BatchOptimal(4)))
	if err != nil {
		t.Fatal(err)
	}

	const (
		nWorkers    = 1024
		capacity    = 3
		batchLen    = 700 // three windows; the yield evidence below counts on it
		nSubmitters = 3
		nMutators   = 4
	)
	batchesPerSubmitter := stressN(8)
	// A mutation lands between two windows only if it wins the lock there,
	// which a loaded machine may not let it do within the fixed batches:
	// past them, the submitters go on until one has, for at most yieldWait.
	const yieldWait = 30 * time.Second
	// One P runs a mutator only when a submitter is descheduled, which need
	// not happen inside a batch: the gap between two windows is there, but
	// it takes a second P to be running something that can use it.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}

	// worker is one id's ledger row. granted counts the units ever put into
	// the engine under the id, taken the units answers and RemoveUnits took
	// out of it; out is the answered units a mutator may still hand back.
	// The stamps are readings of a logical clock: lastIns is taken before the
	// insert is called, lastRem after the removal has returned.
	type worker struct {
		mu               sync.Mutex
		code             hst.Code
		live             bool
		granted, taken   int
		out              int
		lastIns, lastRem int64
	}
	led := make([]worker, 2*nWorkers)
	var clock atomic.Int64

	var violations atomic.Int64
	fail := func(format string, args ...any) {
		if violations.Add(1) <= 10 {
			t.Errorf(format, args...)
		}
	}

	seedSrc := rng.New(1).Derive("seed-pool")
	for id := 0; id < nWorkers; id++ {
		w := &led[id]
		w.code, w.live, w.granted, w.lastIns = randCode(tree, seedSrc), true, capacity, clock.Add(1)
		if err := eng.InsertCapEpoch(w.code, id, capacity, FirstEpoch); err != nil {
			t.Fatal(err)
		}
	}

	// gate excludes the mutators (readers) from the swap (writer), which
	// rewrites the ledger; submitters never take it, so batches race the
	// swap itself. base and epoch are the serving epoch's id offset and id.
	var gate sync.RWMutex
	base, epoch := 0, int64(FirstEpoch)

	var done atomic.Bool
	var yields, assigned atomic.Int64
	halfway := make(chan struct{})

	var mutators, submitters sync.WaitGroup
	for g := 0; g < nMutators; g++ {
		mutators.Add(1)
		go func(g int) {
			defer mutators.Done()
			src := rng.New(7).DeriveN("mutator", g)
			for !done.Load() {
				gate.RLock()
				id := base + src.Intn(nWorkers)
				w := &led[id]
				w.mu.Lock()
				before, locked := eng.Windows(), true
				switch {
				case !w.live:
					w.code, w.lastIns = randCode(tree, src), clock.Add(1)
					if err := eng.InsertCapEpoch(w.code, id, capacity, epoch); err != nil {
						fail("insert worker %d: %v", id, err)
					} else {
						w.live, w.granted, w.out = true, w.granted+capacity, 0
					}
				case src.Intn(4) == 0:
					// A worker with every unit out is not in the pool: it stays
					// live and its units come back through AddCapacityEpoch.
					if units, ok := eng.RemoveUnits(w.code, id); ok {
						w.live, w.taken, w.lastRem = false, w.taken+units, clock.Add(1)
					}
				case w.out > 0 || src.Intn(2) == 0:
					// A fresh report, a quarter of the time at the same leaf:
					// the pooled units move with the unit handed back, when one
					// is out; a bare move of a worker with every unit out finds
					// nothing to move.
					to, extra := randCode(tree, src), min(w.out, 1)
					if src.Intn(4) == 0 {
						to = w.code
					}
					if _, err := eng.RelocateEpoch(w.code, to, id, extra, epoch); err == nil {
						w.code, w.granted, w.out = to, w.granted+extra, w.out-extra
					} else if extra > 0 || !errors.Is(err, hst.ErrNoItem) {
						fail("relocate worker %d (+%d): %v", id, extra, err)
					}
				default:
					locked = false
				}
				// A window is counted under the engine's lock, so at the moment
				// this mutation held the lock the count was exact — no
				// window in progress — and lay between the two readings. Every
				// batch is three windows: if no multiple of three lies between
				// the readings, some batch then had its first window behind it
				// and its last still ahead.
				if after := eng.Windows(); locked && before%3 != 0 && after/3 == before/3 {
					yields.Add(1)
				}
				w.mu.Unlock()
				gate.RUnlock()
			}
		}(g)
	}
	for g := 0; g < nSubmitters; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			src := rng.New(13).DeriveN("submitter", g)
			tasks := make([]hst.Code, batchLen)
			deadline := time.Now().Add(yieldWait)
			for b := 0; b < batchesPerSubmitter || yields.Load() == 0 && time.Now().Before(deadline); b++ {
				if g == 0 && b == batchesPerSubmitter/2 {
					close(halfway)
				}
				for i := range tasks {
					tasks[i] = randCode(tree, src)
				}
				begin := clock.Load()
				ids, _ := eng.AssignBatch(tasks)
				end := clock.Load()
				for _, id := range ids {
					if id == None {
						continue
					}
					assigned.Add(1)
					w := &led[id]
					w.mu.Lock()
					w.taken++
					w.out++
					if w.taken > w.granted {
						fail("worker %d: %d units taken of %d granted", id, w.taken, w.granted)
					}
					if w.lastRem != 0 && w.lastRem <= begin && !(w.live && w.lastIns <= end) {
						fail("a batch begun at %d names worker %d, removed at %d", begin, id, w.lastRem)
					}
					w.mu.Unlock()
				}
			}
		}(g)
	}

	// The one swap: every worker live in the ledger moves to a fresh code
	// under its second-epoch id with a full complement of units, whatever the
	// first epoch still owed it.
	<-halfway
	gate.Lock()
	var next []EpochInsert
	for id := 0; id < nWorkers; id++ {
		if old := &led[id]; old.live {
			w := &led[nWorkers+id]
			w.code, w.live, w.granted, w.lastIns = randCode(tree, seedSrc), true, capacity, clock.Add(1)
			next = append(next, EpochInsert{Code: w.code, ID: nWorkers + id, Cap: capacity})
		}
	}
	err = eng.SwapEpochSeq(FirstEpoch+1, tree, 0, func(yield func(EpochInsert) bool) {
		for _, in := range next {
			if !yield(in) {
				return
			}
		}
	})
	for id := 0; id < nWorkers; id++ {
		w := &led[id]
		w.mu.Lock()
		w.live, w.lastRem = false, clock.Add(1)
		w.mu.Unlock()
	}
	base, epoch = nWorkers, FirstEpoch+1
	gate.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	submitters.Wait()
	done.Store(true)
	mutators.Wait()

	if assigned.Load() == 0 {
		t.Fatal("no assignments happened; the race exercised nothing")
	}
	t.Logf("%d assignments, %d mutations between the windows of a batch", assigned.Load(), yields.Load())
	if yields.Load() == 0 {
		t.Error("no mutation completed between the first and last window of a batch")
	}
	// Quiesced: the serving epoch holds exactly what the ledger granted and
	// nobody took.
	wantLen, wantUnits := 0, 0
	for id := nWorkers; id < 2*nWorkers; id++ {
		if pooled := led[id].granted - led[id].taken; pooled > 0 {
			wantLen++
			wantUnits += pooled
		}
	}
	if n, u := eng.Len(), eng.CapacityUnits(); n != wantLen || u != wantUnits {
		t.Errorf("engine holds %d workers / %d units, ledger %d / %d", n, u, wantLen, wantUnits)
	}
	if v := violations.Load(); v > 0 {
		t.Fatalf("%d violations", v)
	}
}
