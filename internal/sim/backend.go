package sim

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/epoch"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// Driver selects which layer of the stack the simulator exercises.
type Driver string

// The available drivers. All sit on the same sharded engine, so a
// scenario produces the same assignments under any of them; the platform
// driver additionally covers the server's slot bookkeeping and wire
// types, and the cluster driver the coordinator's fan-out (routing,
// scatter-gather windows, distributed rotation) across in-process nodes.
const (
	DriverEngine   Driver = "engine"   // internal/engine directly
	DriverPlatform Driver = "platform" // platform.Server (in-process, no HTTP)
	DriverCluster  Driver = "cluster"  // cluster.Coordinator over in-process nodes
)

// backend is the simulator's view of the system under test. Registration
// ids are fresh per online stint — a worker that departs and returns gets
// a new id and a freshly obfuscated code — while the worker argument is
// the stable sim-worker index, so the platform driver can keep one
// external WorkerID per worker across stints and thereby exercise the
// server's withdraw → same-id re-registration (revival) path. Within a
// stint, a worker finishing a task re-enters the pool through release (a
// re-report at a fresh code under the same id), mirroring the platform's
// Release. An epoch rotation hands every available worker a fresh
// registration id too: its re-obfuscated report is a new stint in the new
// epoch's shard set.
//
// Both drivers make identical assignment decisions: the engine ties
// towards the smallest id, regIDs and platform slots are allocated in the
// same (registration-event) order — including rotation order — and the
// platform's revival and rotation paths also allocate a fresh slot per
// stint. (The platform renumbers its slots from 0 at a rotation while
// regIDs keep counting up; only the relative order matters, and that is
// the same.) Budget decisions coincide as well: both drivers charge the
// same ε for the same workers in the same operation order, so the same
// workers park at the same instants.
//
// register and release return an error wrapping epoch.ErrBudgetExhausted
// when the worker's lifetime budget cannot afford the fresh report; the
// simulator then parks the worker.
type backend interface {
	// register brings a fresh stint online with the given capacity units.
	register(id, worker int, code hst.Code, capacity int) error
	// release records a completed task whose unit returns to the pool at a
	// freshly obfuscated code (a fresh report, so a fresh spend). capLeft
	// is the stint's remaining units after this completion — a capacitated
	// worker with spare units in the pool moves wholesale to the new code.
	release(id, worker int, oldCode, newCode hst.Code, capLeft int) error
	// finish records a completed task whose unit does not return: the
	// worker withdrew (or was parked/dropped) while the task was running.
	finish(id, worker int)
	withdraw(id int, code hst.Code) bool
	assign(code hst.Code) (id int, ok bool)
	assignBatch(codes []hst.Code) []int // engine.None where unassigned
	poolSize() int
	// rotate swaps the backend to a fresh epoch. workers lists the
	// available population in the simulator's deterministic order, capLeft
	// their remaining units (aligned); report draws each one's fresh
	// obfuscated code under the new tree (called exactly once per worker,
	// in order — the rng contract); alloc hands out a fresh registration
	// id, called exactly once per non-parked worker, in order. The
	// returned outcome is aligned with workers.
	rotate(workers []int, capLeft []int, report func(worker int, tree *hst.Tree) hst.Code, alloc func(worker int) int) (*rotateResult, error)
	// epochInfo reports the serving epoch and the budget accounting
	// totals (zeros when no lifetime budget is configured).
	epochInfo() (epoch int64, spent, limit float64)
}

// rotateResult is one rotation's outcome, aligned with the worker list
// given to rotate.
type rotateResult struct {
	epoch  int64
	tree   *hst.Tree
	codes  []hst.Code // fresh report per worker ("" when parked)
	parked []bool
	newID  []int // fresh registration id; -1 when parked
}

// engineBackend drives the sharded engine directly, with an epoch
// controller owning rotation bookkeeping and the budget charge rule — the
// same controller the platform server embeds, so both drivers park the same
// workers at the same spends. The ledger cells live here, indexed by the
// stable sim-worker number.
type engineBackend struct {
	eng   *engine.Engine
	ctrl  *epoch.Controller
	refit bool
	spent []float64 // sim worker → lifetime ε consumed
}

func workerName(worker int) string { return "w" + strconv.Itoa(worker) }

// cell returns the worker's ledger cell.
func (b *engineBackend) cell(worker int) *float64 {
	for worker >= len(b.spent) {
		b.spent = append(b.spent, 0)
	}
	return &b.spent[worker]
}

func (b *engineBackend) register(id, worker int, code hst.Code, capacity int) error {
	cell := b.cell(worker)
	if err := b.ctrl.Afford(workerName(worker), *cell); err != nil {
		return err
	}
	if err := b.eng.InsertCapEpoch(code, id, capacity, 0); err != nil {
		return err
	}
	b.ctrl.Charge(cell)
	b.ctrl.Observe(code)
	return nil
}

// release re-reports at a freshly obfuscated code — a fresh spend, then the
// completed unit (and any spare units, moved wholesale from the old code)
// re-enters at the new leaf, mirroring the platform's Release-with-code
// path. A refused spend pulls the spare units out of the pool: the worker
// is being parked, exactly as the platform does server-side.
func (b *engineBackend) release(id, worker int, oldCode, newCode hst.Code, capLeft int) error {
	cell := b.cell(worker)
	err := b.ctrl.Afford(workerName(worker), *cell)
	if capLeft > 1 {
		// The stint still had capLeft−1 units pooled at the old code.
		b.eng.Remove(oldCode, id)
	}
	if err != nil {
		return err
	}
	if err := b.eng.InsertCapEpoch(newCode, id, capLeft, 0); err != nil {
		return err
	}
	b.ctrl.Charge(cell)
	b.ctrl.Observe(newCode)
	return nil
}

func (b *engineBackend) finish(int, int) {} // nothing pooled to update

func (b *engineBackend) withdraw(id int, code hst.Code) bool { return b.eng.Remove(code, id) }

func (b *engineBackend) assign(code hst.Code) (int, bool) {
	id, _, ok := b.eng.Assign(code)
	return id, ok
}

func (b *engineBackend) assignBatch(codes []hst.Code) []int {
	ids, _ := b.eng.AssignBatch(codes)
	return ids
}

func (b *engineBackend) poolSize() int { return b.eng.Len() }

func (b *engineBackend) rotate(workers []int, capLeft []int, report func(int, *hst.Tree) hst.Code, alloc func(int) int) (*rotateResult, error) {
	staged, err := b.ctrl.Prepare(0, b.refit)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(workers))
	for i, w := range workers {
		names[i] = workerName(w)
	}
	idx := 0
	plan, err := b.ctrl.PlanRotation(staged, names, func(_ string, tree *hst.Tree) (hst.Code, error) {
		code := report(workers[idx], tree)
		idx++
		return code, nil
	})
	if err != nil {
		return nil, err
	}
	res := &rotateResult{
		epoch:  plan.Epoch,
		tree:   plan.Tree,
		codes:  make([]hst.Code, len(workers)),
		parked: make([]bool, len(workers)),
		newID:  make([]int, len(workers)),
	}
	inserts := make([]engine.EpochInsert, 0, len(workers))
	for i := range plan.Outcomes {
		o := &plan.Outcomes[i]
		if b.ctrl.Afford(o.Worker, *b.cell(workers[i])) != nil {
			o.Parked = true
			res.parked[i], res.newID[i] = true, -1
			continue
		}
		id := alloc(workers[i])
		res.codes[i], res.newID[i] = o.Code, id
		inserts = append(inserts, engine.EpochInsert{Code: o.Code, ID: id, Cap: capLeft[i]})
	}
	if err := b.eng.SwapEpoch(plan.Epoch, plan.Tree, 0, inserts); err != nil {
		return nil, err
	}
	for i := range plan.Outcomes {
		if !plan.Outcomes[i].Parked {
			b.ctrl.Charge(b.cell(workers[i]))
		}
	}
	if err := b.ctrl.Commit(plan); err != nil {
		return nil, err
	}
	return res, nil
}

func (b *engineBackend) epochInfo() (int64, float64, float64) {
	st := b.ctrl.Stats()
	return st.Epoch, st.SpentTotal, st.Limit
}

// platformBackend maps stable sim workers to external WorkerIDs and
// translates the server's string answers back to the current registration
// id of the named worker.
type platformBackend struct {
	srv      *platform.Server
	refit    bool
	epoch    int64       // serving epoch; reports and tasks are tagged with it
	ownerOf  map[int]int // registration id → sim worker
	curRegOf map[int]int // sim worker → current registration id
}

func newPlatformBackend(srv *platform.Server, refit bool) *platformBackend {
	return &platformBackend{
		srv:      srv,
		refit:    refit,
		epoch:    srv.Publication().Epoch,
		ownerOf:  map[int]int{},
		curRegOf: map[int]int{},
	}
}

// budgetErr folds a Parked refusal back into the sentinel the simulator
// handles; any other refusal is a hard failure.
func budgetErr(op string, resp platform.RegisterResponse) error {
	if resp.Parked {
		return fmt.Errorf("sim: platform %s: %w", op, epoch.ErrBudgetExhausted)
	}
	return fmt.Errorf("sim: platform %s: %s", op, resp.Reason)
}

func (b *platformBackend) register(id, worker int, code hst.Code, capacity int) error {
	resp := b.srv.Register(platform.RegisterRequest{
		WorkerID: workerName(worker), Code: []byte(code), Epoch: b.epoch, Capacity: capacity,
	})
	if !resp.OK {
		return budgetErr("register", resp)
	}
	b.ownerOf[id] = worker
	b.curRegOf[worker] = id
	return nil
}

// release hands the completed unit back through the server's Release; the
// server owns the move-spare-units bookkeeping, so oldCode and capLeft are
// the engine driver's concern only.
func (b *platformBackend) release(id, worker int, _, newCode hst.Code, _ int) error {
	resp := b.srv.Release(platform.ReleaseRequest{WorkerID: workerName(worker), Code: []byte(newCode), Epoch: b.epoch})
	if !resp.OK {
		return budgetErr("release", resp)
	}
	return nil
}

// finish acknowledges a withdrawn (or parked) worker's completed task: the
// server decrements the outstanding count and refuses the pool re-entry,
// which is exactly what the simulator expects — the refusal is the
// protocol, not an error.
func (b *platformBackend) finish(id, worker int) {
	resp := b.srv.Release(platform.ReleaseRequest{WorkerID: workerName(worker)})
	if resp.OK {
		panic(fmt.Sprintf("sim: platform finish of worker %d re-entered the pool", worker))
	}
}

func (b *platformBackend) withdraw(id int, code hst.Code) bool {
	return b.srv.Withdraw(platform.WithdrawRequest{WorkerID: workerName(b.ownerOf[id])}).OK
}

// decode maps a served WorkerID back to that worker's current registration.
func (b *platformBackend) decode(workerID string) int {
	w, err := strconv.Atoi(workerID[1:])
	if err != nil {
		return engine.None
	}
	return b.curRegOf[w]
}

func (b *platformBackend) assign(code hst.Code) (int, bool) {
	resp := b.srv.Submit(platform.TaskRequest{Code: []byte(code), Epoch: b.epoch})
	if !resp.Assigned {
		return engine.None, false
	}
	return b.decode(resp.WorkerID), true
}

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

func (b *platformBackend) poolSize() int { return b.srv.Stats().AvailableWorkers }

func (b *platformBackend) rotate(workers []int, _ []int, report func(int, *hst.Tree) hst.Code, alloc func(int) int) (*rotateResult, error) {
	names := make([]string, len(workers))
	for i, w := range workers {
		names[i] = workerName(w)
	}
	res := &rotateResult{
		codes:  make([]hst.Code, len(workers)),
		parked: make([]bool, len(workers)),
		newID:  make([]int, len(workers)),
	}
	// RotateNow invokes the callback once per listed worker, in order —
	// the same rng contract the engine driver's plan follows.
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
		id := alloc(w)
		res.newID[i] = id
		b.ownerOf[id] = w
		b.curRegOf[w] = id
	}
	pub := b.srv.Publication()
	res.epoch, res.tree = pub.Epoch, pub.Tree
	b.epoch = pub.Epoch
	return res, nil
}

func (b *platformBackend) epochInfo() (int64, float64, float64) {
	st := b.srv.Stats()
	return st.Epoch, st.BudgetSpentTotal, st.BudgetLimit
}
