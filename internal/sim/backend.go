package sim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/privacy"
)

// Driver selects which layer of the stack the simulator exercises.
type Driver string

// The available drivers. Both serve through a platform.Server, so a
// scenario produces the same assignments under either; the cluster driver
// adds the coordinator's fan-out (routing, scatter-gather windows,
// distributed rotation) across in-process nodes.
const (
	DriverPlatform Driver = "platform" // platform.Server (in-process, no HTTP)
	DriverCluster  Driver = "cluster"  // cluster.Coordinator over in-process nodes
)

// rotateResult is one rotation's outcome, aligned with the worker list
// given to rotate.
type rotateResult struct {
	tree   *hst.Tree
	codes  []hst.Code // fresh report per worker ("" when parked)
	parked []bool
	newID  []int // fresh registration id; -1 when parked
}

func workerName(worker int) string { return "w" + strconv.Itoa(worker) }

// platformBackend is the simulator's view of the server under test.
// Registration ids are fresh per online stint — a worker that departs and
// returns gets a new id and a freshly obfuscated code — while the worker
// argument is the stable sim-worker index, so one external WorkerID names a
// worker across stints and the server's withdraw → same-id re-registration
// (revival) path is exercised. Within a stint, a worker finishing a task
// re-enters the pool through Release at a fresh code under the same id. An
// epoch rotation hands every available worker a fresh registration id too:
// its re-obfuscated report is a new stint in the new epoch's index.
//
// Registration ids are allocated in the order the server allocates its
// slots — rotation order included, though the server renumbers its slots
// from 0 at a rotation while ids keep counting up — so the cross-check's
// tie to the smallest id is the server's tie to the smallest slot.
//
// register and release return an error wrapping privacy.ErrBudgetExhausted
// when the worker's lifetime budget cannot afford the fresh report; the
// simulator then parks the worker.
type platformBackend struct {
	srv      *platform.Server
	refit    bool
	epoch    int64       // serving epoch; reports and tasks are tagged with it
	curRegOf map[int]int // sim worker → current registration id
}

// budgetErr folds a Parked refusal back into the sentinel the simulator
// handles; any other refusal is a hard failure.
func budgetErr(op string, resp platform.RegisterResponse) error {
	if resp.Parked {
		return fmt.Errorf("sim: platform %s: %w", op, privacy.ErrBudgetExhausted)
	}
	return fmt.Errorf("sim: platform %s: %s", op, resp.Reason)
}

// register brings stint id of worker online with the given capacity units.
func (b *platformBackend) register(id, worker int, code hst.Code, capacity int) error {
	resp := b.srv.Register(platform.RegisterRequest{
		WorkerID: workerName(worker), Code: []byte(code), Epoch: b.epoch, Capacity: capacity,
	})
	if !resp.OK {
		return budgetErr("register", resp)
	}
	b.curRegOf[worker] = id
	return nil
}

// release hands a completed unit back at a freshly obfuscated code (a fresh
// report, so a fresh spend); the server moves any spare pooled units along.
func (b *platformBackend) release(worker int, newCode hst.Code) error {
	resp := b.srv.Release(platform.ReleaseRequest{WorkerID: workerName(worker), Code: []byte(newCode), Epoch: b.epoch})
	if !resp.OK {
		return budgetErr("release", resp)
	}
	return nil
}

// finish acknowledges a completed task whose unit does not return: the
// worker withdrew (or was parked) while the task ran. The server
// decrements the outstanding count and refuses the pool re-entry, which is
// exactly what the simulator expects — the refusal is the protocol, not an
// error.
func (b *platformBackend) finish(worker int) {
	resp := b.srv.Release(platform.ReleaseRequest{WorkerID: workerName(worker)})
	if resp.OK {
		panic(fmt.Sprintf("sim: platform finish of worker %d re-entered the pool", worker))
	}
}

// withdraw takes the worker's pooled units out of the pool.
func (b *platformBackend) withdraw(worker int) bool {
	return b.srv.Withdraw(platform.WithdrawRequest{WorkerID: workerName(worker)}).OK
}

// decode maps a served WorkerID back to that worker's current registration,
// and anything else — an empty or malformed id, a worker never registered —
// to engine.None, so the cross-check reports the answer instead of blaming
// a worker that exists.
func (b *platformBackend) decode(workerID string) int {
	rest, named := strings.CutPrefix(workerID, "w")
	w, err := strconv.Atoi(rest)
	id, live := b.curRegOf[w]
	if !named || err != nil || !live {
		return engine.None
	}
	return id
}

// assign submits one task and answers its worker's registration id,
// engine.None when unassigned.
func (b *platformBackend) assign(code hst.Code) int {
	resp := b.srv.Submit(platform.TaskRequest{Code: []byte(code), Epoch: b.epoch})
	if !resp.Assigned {
		return engine.None
	}
	return b.decode(resp.WorkerID)
}

// assignBatch submits a batch and answers each task's worker as assign does.
func (b *platformBackend) assignBatch(codes []hst.Code) []int {
	req := platform.TaskBatchRequest{Tasks: make([]platform.TaskRequest, len(codes))}
	for i, c := range codes {
		req.Tasks[i] = platform.TaskRequest{Code: []byte(c), Epoch: b.epoch}
	}
	resp := b.srv.SubmitBatch(req)
	ids := make([]int, len(codes))
	for i, r := range resp.Results {
		if !r.Assigned {
			ids[i] = engine.None
			continue
		}
		ids[i] = b.decode(r.WorkerID)
	}
	return ids
}

// rotate swaps the server to a fresh epoch. workers lists the available
// population in the simulator's deterministic order; report draws each
// one's fresh obfuscated code under the new tree (called exactly once per
// worker, in order — the rng contract); alloc hands out a fresh
// registration id, called exactly once per non-parked worker, in order.
// The returned outcome is aligned with workers.
func (b *platformBackend) rotate(workers []int, report func(int, *hst.Tree) hst.Code, alloc func(int) int) (*rotateResult, error) {
	names := make([]string, len(workers))
	for i, w := range workers {
		names[i] = workerName(w)
	}
	res := &rotateResult{
		codes:  make([]hst.Code, len(workers)),
		parked: make([]bool, len(workers)),
		newID:  make([]int, len(workers)),
	}
	// RotateNow invokes the callback once per listed worker, in order.
	idx := 0
	resp := b.srv.RotateNow(platform.PrepareRotateRequest{Refit: b.refit}, names, func(_ string, tree *hst.Tree) (hst.Code, error) {
		res.codes[idx] = report(workers[idx], tree)
		idx++
		return res.codes[idx-1], nil
	})
	if !resp.OK {
		return nil, fmt.Errorf("sim: platform rotate: %s", resp.Reason)
	}
	if len(resp.Dropped) > 0 || resp.Skipped > 0 {
		// The simulator lists exactly the available population; the server
		// dropping or skipping any of it means the two disagree about who
		// is online — a bookkeeping bug, not a scenario outcome.
		return nil, errors.New("sim: platform rotate dropped or skipped listed workers")
	}
	parked := make(map[string]bool, len(resp.Parked))
	for _, name := range resp.Parked {
		parked[name] = true
	}
	for i, w := range workers {
		if parked[names[i]] {
			res.parked[i], res.newID[i], res.codes[i] = true, -1, ""
			continue
		}
		res.newID[i] = alloc(w)
		b.curRegOf[w] = res.newID[i]
	}
	pub := b.srv.Publication()
	res.tree = pub.Tree
	b.epoch = pub.Epoch
	return res, nil
}
