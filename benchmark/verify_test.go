package main

import (
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// wrongCore is a deliberately broken platform.Core. With notNearest, every
// fifth Assign answers for a different leaf than the task's; with
// duplicate, every batch hands its first worker to six tasks — two more
// than the worker has units.
type wrongCore struct {
	*engine.Engine
	notNearest, duplicate bool
	calls                 int
}

func (c *wrongCore) Assign(code hst.Code) (int, int, bool) {
	if c.calls++; c.notNearest && c.calls%5 == 0 {
		code = c.Tree().CodeOf(c.calls % c.Tree().NumPoints())
	}
	return c.Engine.Assign(code)
}

func (c *wrongCore) AssignBatch(codes []hst.Code) ([]int, []int) {
	ids, lvls := c.Engine.AssignBatch(codes)
	if c.duplicate {
		for i := 1; i < 6 && i < len(ids); i++ {
			ids[i] = ids[0]
		}
	}
	return ids, lvls
}

func wrongStack(t *testing.T, sp spec, core *wrongCore) *stack {
	t.Helper()
	tree, err := serverTree()
	if err != nil {
		t.Fatal(err)
	}
	var opts []engine.Option
	if sp.capacity > 1 {
		opts = []engine.Option{engine.WithPolicy(engine.BatchOptimal(0)), engine.WithDefaultCapacity(sp.capacity)}
	}
	if core.Engine, err = engine.NewWithOptions(tree, 0, opts...); err != nil {
		t.Fatal(err)
	}
	srv, err := platform.NewServer(region, gridSide, gridSide, epsilon, serverSeed,
		platform.WithCore(core), platform.WithLifetimeBudget(lifetimeBudget))
	if err != nil {
		t.Fatal(err)
	}
	return &stack{spec: sp, eng: core.Engine, srv: srv}
}

func quickJob(t *testing.T, name string) *job {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.churnEvery = 0 // keep the fakes' damage to assignments alone
	return newJob(sp, config{seed: 1, seconds: 1, reps: 1, quick: true})
}

// (a) The pre-check's brute-force mirror catches a non-nearest answer.
func TestPrecheckCatchesNonNearest(t *testing.T) {
	j := quickJob(t, "serve-lifecycle")
	r, err := j.precheckOn(wrongStack(t, j.sp, &wrongCore{notNearest: true}), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.pool.failed.Load() == 0 || !strings.Contains(r.firstFailure(), "the sequential rule gives") {
		t.Errorf("a non-nearest core passed the pre-check: %d failed, first %q", r.pool.failed.Load(), r.firstFailure())
	}
}

// (b) The shadow pool alone — no mirror, as in a timed run — catches a
// unit assigned twice, and (c) the conservation audit then finds the books
// out of balance.
func TestShadowPoolCatchesDuplicate(t *testing.T) {
	j := quickJob(t, "batch-window")
	st := wrongStack(t, j.sp, &wrongCore{duplicate: true})
	pub, err := st.publication()
	if err != nil {
		t.Fatal(err)
	}
	codes, err := obfuscate(pub, 1, "tape", j.tape.Points)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{sp: j.sp, tape: j.tape, st: st, codes: codes, names: j.names, epoch: pub.Epoch,
		pool: newPool(j.tape.Workers, j.tape.Churn, j.sp.capacity)}
	if err := r.load(); err != nil {
		t.Fatal(err)
	}
	c := &client{api: st.srv}
	r.phase([]*client{c}, 0, 64)
	if r.pool.failed.Load() == 0 || !strings.Contains(r.firstFailure(), "unit assigned twice") {
		t.Fatalf("a core that hands one worker six tasks passed the shadow pool: %d failed, first %q", r.pool.failed.Load(), r.firstFailure())
	}
	before := r.pool.failed.Load()
	r.conserve([]*client{c})
	if r.pool.failed.Load() == before {
		t.Error("the conservation audit balanced the books of a core that handed out duplicates")
	}
}

// An honest engine passes both, on every workload, and the two lifecycle
// stacks agree on the assignment digest.
func TestPrecheckPassesHonestStacks(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up every stack")
	}
	digests := map[string]uint64{}
	for _, sp := range specs {
		j := newJob(sp, config{seed: 2, seconds: 1, reps: 1, quick: true})
		if err := j.precheck(config{seed: 2, quick: true}); err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if j.failed != 0 {
			t.Errorf("%s: honest stack failed the pre-check: %s", sp.name, j.failure)
		}
		digests[sp.name] = j.digest
	}
	if digests["serve-lifecycle"] != digests["cluster-lifecycle"] {
		t.Errorf("assignment digests differ: serve %016x, cluster %016x", digests["serve-lifecycle"], digests["cluster-lifecycle"])
	}
}

func TestPoolWithdrawalOrdering(t *testing.T) {
	p := newPool(4, 2, 1)
	if !p.took(0, 1, 0) {
		t.Fatal("a live idle worker must be assignable")
	}
	if p.took(1, 1, 0) || p.failed.Load() != 1 {
		t.Fatal("the same unit assigned twice must fail")
	}
	// Worker 2's withdrawal completes at clock 1: a submit that began at
	// clock 0 may still have raced it, one that began at clock 1 may not.
	p.goneAt[2].Store(p.clock.Add(1))
	if !p.took(2, 2, 0) {
		t.Error("an assignment racing a withdrawal is legal")
	}
	if p.took(3, 2, p.clock.Load()) {
		t.Error("an assignment of a worker withdrawn before the submit began must fail")
	}
	if w := p.pickIdle(2); w != 3 {
		t.Errorf("pickIdle skipped to %d, want 3 (0 and 1 are busy, 2 is gone)", w)
	}
}
