package platform

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/epoch"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/wire"
)

// Server is the untrusted crowdsourcing platform. It sees only obfuscated
// leaf codes and assigns each arriving task to the tree-nearest available
// worker (Alg. 4). It is a thin transport wrapper over the sharded
// concurrent assignment engine (internal/engine): the engine holds the
// availability state and answers each task in O(D) with shard-local
// locking, while the server only maps external worker ids to engine slots
// and keeps counters.
//
// Server is safe for concurrent use; Submit calls on disjoint top-level
// HST branches do not contend.
// Core is the assignment state a Server fronts: exactly the engine surface
// the serving layer drives. *engine.Engine satisfies it (the single-node
// deployment), and a cluster coordinator core fans the same calls out
// across node backends — the Server's slot tables, budget accounting, and
// rotation planning run verbatim above either, which is what pins the
// multi-node stack bit-identical to the single-node one.
type Core interface {
	// Identity of the serving epoch.
	Tree() *hst.Tree
	Epoch() int64
	Shards() int
	// Fixed configuration.
	Policy() engine.Policy
	DefaultCapacity() int
	// Monitoring.
	Windows() int64
	Len() int
	CapacityUnits() int
	// Serving operations. Semantics (staleness, retries, tie-breaks) are
	// engine.Engine's; see its method docs. No method may retain a code —
	// its own argument or one seq yields — past its return: the server
	// passes views of request bytes and of its slot table, which are
	// overwritten later.
	Assign(code hst.Code) (id, lcaLevel int, ok bool)
	AssignBatch(codes []hst.Code) (ids, lcaLevels []int)
	InsertCapEpoch(code hst.Code, id, capacity int, epoch int64) error
	AddCapacityEpoch(code hst.Code, id int, epoch int64) error
	Remove(code hst.Code, id int) bool
	RemoveUnits(code hst.Code, id int) (units int, ok bool)
	// SwapEpochSeq rotates to the next epoch's population, handed over as
	// a sequence instead of a slice so a 10M-worker rotation never holds a
	// second copy of it. seq must be replayable and safe to invoke from
	// several goroutines at once (the cluster core runs one filtered
	// iteration per node). The unnamed func type, not iter.Seq, is what
	// lets a struct embedding *engine.Engine satisfy Core.
	SwapEpochSeq(epoch int64, tree *hst.Tree, shards int, seq func(yield func(engine.EpochInsert) bool)) error
}

// assignErrer is the one optional Core extension: a core whose Assign can
// fail for reasons beyond "no worker" (a cluster core with an unreachable
// backend) reports the failure so Submit can answer with a typed error
// instead of a misleading no-workers refusal. It stays optional, not a
// Core method, because decorators that embed *engine.Engine and override
// Assign (the benchmark's tracing core) must keep being called: a Server
// that always went through AssignErr would walk past them.
type assignErrer interface {
	AssignErr(code hst.Code) (id, lcaLevel int, ok bool, err error)
}

// coreAssign runs an assignment through AssignErr when the core offers it.
func coreAssign(c Core, code hst.Code) (id, lcaLevel int, ok bool, err error) {
	if ae, has := c.(assignErrer); has {
		return ae.AssignErr(code)
	}
	id, lcaLevel, ok = c.Assign(code)
	return id, lcaLevel, ok, nil
}

type Server struct {
	eng Core
	// rot owns epoch rotation and the lifetime-budget charge rule. It has
	// its own lock; the server calls into it under mu where slot-table
	// consistency matters.
	rot *epoch.Controller

	// gate is the rotation gate. A rotation renumbers every slot, and the
	// core's Assign returns a bare slot number with no epoch, so a pop must
	// never be interpreted against another epoch's table: Submit and
	// SubmitBatch hold the gate for reading across pop + bookkeeping,
	// Rotate holds it for writing across the engine swap + table flip.
	// Lock order: gate, then mu. Fields written only by Rotate (epoch, pub,
	// tab) may be read under either.
	gate sync.RWMutex

	// mu guards the slot table, counters, and the publication (whose tree
	// and epoch change at rotation). The engine is the source of truth for
	// availability: a slot is registered in the engine exactly when the
	// worker is available. Every engine mutation except Submit's atomic pop
	// happens under mu, so slot-table reads after a pop are always
	// consistent.
	mu    sync.Mutex
	pub   Publication
	epoch int64 // serving epoch; mirrors rot
	tab   *slotTable
	// departed holds the lifetime spend of ids a rotation compacted out of
	// the table (withdrawn, dropped or parked workers), reclaimed when the
	// id registers back. It is empty without a lifetime budget.
	departed map[string]float64
	// registered counts ids that were unknown — neither in the table nor in
	// the departed ledger — when they registered.
	registered int
	assigned   int
	rejected   int
	released   int
	withdrawn  int
	dropped    int // available workers dropped at a rotation for lack of a fresh report
	// levelCounts[l] counts assignments whose match LCA sat at level l;
	// levelSum is Σ levels for the running mean. Both are fed by Submit and
	// SubmitBatch alike. The histogram grows if a rotated tree is deeper.
	levelCounts []int
	levelSum    int

	// The agent plane's upgraded connections and what the hop costs; both
	// synchronise on their own.
	streams wire.Streams
	hop     hopAccount
}

// workerState tracks a slot's lifecycle. A worker is in the engine exactly
// when its state is stateAvailable (with capacity−active remaining units).
// Slots are registration stints: a worker that withdraws and registers back
// gets a fresh slot, and the old one is retired until the next rotation
// compacts it away — so a Submit holding a popped slot can always tell
// whether the stint that slot belongs to is still the live one.
type workerState uint8

const (
	stateAvailable    workerState = iota
	stateAssigned                 // at full capacity, awaiting a Release
	stateGone                     // withdrew; stint over, id may Register back
	stateAssignedGone             // withdrew mid-assignment; stint ends at the last Release
	stateRetired                  // superseded by a newer registration of the same id
	stateParked                   // lifetime ε budget exhausted; terminal
)

// stintOver reports whether a popped slot's stint was closed (by a
// Withdraw or a parking, possibly followed by a re-registration) while the
// pop was in flight: the pop is stale and must be retried — the worker was
// told it is offline, and acting on the pop could double-assign it. (A
// rotation cannot close a stint under a pop: the gate keeps them apart.)
// stateAssignedGone closes the stint too: a capacitated worker's spare
// units were withdrawn from the pool while its assignments run out, so a
// pop that raced the withdrawal must not hand it new work.
func stintOver(st workerState) bool {
	return st == stateGone || st == stateRetired || st == stateParked || st == stateAssignedGone
}

// ServerOption customises server construction.
type ServerOption func(*serverConfig)

type serverConfig struct {
	shards     int
	lifetime   float64
	policy     engine.Policy
	defaultCap int
	tree       *hst.Tree
	core       Core
}

// WithShards sets the assignment engine's shard count (0 = engine default).
func WithShards(n int) ServerOption {
	return func(c *serverConfig) { c.shards = n }
}

// WithPolicy selects the assignment policy the server's engine runs (nil
// keeps the paper-faithful greedy default).
func WithPolicy(p engine.Policy) ServerOption {
	return func(c *serverConfig) { c.policy = p }
}

// WithDefaultCapacity sets the per-worker capacity a registration without
// an explicit one receives (default 1). Values above 1 require a
// capacity-aware policy.
func WithDefaultCapacity(n int) ServerOption {
	return func(c *serverConfig) { c.defaultCap = n }
}

// WithTree publishes the given pre-built HST instead of deriving one from
// the server seed. The tree must cover exactly the predefined grid
// (cols×rows points). Deployments restoring a persisted epoch — and
// harnesses that must share one published tree across stacks, like the
// simulator's cross-driver comparisons — inject it here; epoch rotations
// still derive their fresh trees from the server seed.
func WithTree(t *hst.Tree) ServerOption {
	return func(c *serverConfig) { c.tree = t }
}

// WithCore serves from the given assignment core instead of constructing
// an in-process engine. The core's tree becomes the publication (it must
// cover the server grid); WithShards, WithPolicy, and WithDefaultCapacity
// are ignored — those knobs were fixed when the core was built. The
// cluster coordinator uses this to put the whole serving layer (slot
// tables, budget accounting, rotation planning) in front of a fanned-out
// node set.
func WithCore(c Core) ServerOption {
	return func(cfg *serverConfig) { cfg.core = c }
}

// WithLifetimeBudget enforces a per-worker lifetime ε budget: every fresh
// obfuscated report a worker submits (Register, Reregister, Release with a
// new code, rotation re-reports) spends the publication's ε under
// sequential composition, and a worker whose budget cannot afford another
// report is parked — permanently retired from serving — instead of being
// silently re-noised past its guarantee. 0 (the default) disables
// accounting.
func WithLifetimeBudget(lifetime float64) ServerOption {
	return func(c *serverConfig) { c.lifetime = lifetime }
}

// NewServer builds the infrastructure (grid + HST) and returns a server
// publishing it with the given privacy budget.
func NewServer(region geo.Rect, cols, rows int, eps float64, seed uint64, opts ...ServerOption) (*Server, error) {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	grid, err := geo.NewGrid(region, cols, rows)
	if err != nil {
		return nil, err
	}
	tree := cfg.tree
	if cfg.core != nil {
		// An injected core owns the tree (and every engine knob); the server
		// publishes what the core serves.
		tree = cfg.core.Tree()
	} else if tree == nil {
		tree, err = hst.Build(grid.Points(), rng.New(seed).Derive("server-hst"))
		if err != nil {
			return nil, err
		}
	}
	if tree.NumPoints() != grid.Len() {
		return nil, fmt.Errorf("platform: injected tree covers %d points, grid has %d",
			tree.NumPoints(), grid.Len())
	}
	if eps <= 0 {
		return nil, errors.New("platform: epsilon must be positive")
	}
	core := cfg.core
	if core == nil {
		var engOpts []engine.Option
		if cfg.policy != nil {
			engOpts = append(engOpts, engine.WithPolicy(cfg.policy))
		}
		if cfg.defaultCap != 0 {
			engOpts = append(engOpts, engine.WithDefaultCapacity(cfg.defaultCap))
		}
		core, err = engine.NewWithOptions(tree, cfg.shards, engOpts...)
		if err != nil {
			return nil, err
		}
	}
	rot, err := epoch.NewController(epoch.Config{
		Tree:     tree,
		Seed:     seed,
		Epsilon:  eps,
		Lifetime: cfg.lifetime,
	})
	if err != nil {
		return nil, err
	}
	first := core.Epoch()
	return &Server{
		pub: Publication{
			Tree:    tree,
			Region:  region,
			Cols:    cols,
			Rows:    rows,
			Epsilon: eps,
			Epoch:   first,
		},
		eng:         core,
		rot:         rot,
		epoch:       first,
		tab:         newSlotTable(0, tree.Depth(), first),
		departed:    map[string]float64{},
		levelCounts: make([]int, tree.Depth()+1),
	}, nil
}

// Publication returns the public infrastructure of the serving epoch.
// After a rotation it carries the new tree and epoch id; clients holding
// an older publication get their reports refused as stale.
func (s *Server) Publication() Publication {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pub
}

// Core returns the assignment core the server fronts.
func (s *Server) Core() Core { return s.eng }

// staleEpochReason formats the refusal for a report or task obfuscated
// under a rotated-away publication.
func staleEpochReason(got, cur int64) string {
	return fmt.Sprintf("platform: stale epoch %d (serving %d); re-fetch the publication", got, cur)
}

// parkedReason formats the refusal for a worker whose lifetime budget is
// exhausted.
func parkedReason(workerID string) string {
	return fmt.Sprintf("platform: worker %q lifetime budget exhausted; parked", workerID)
}

// refusal wraps a structured error as a worker-operation response.
func refusal(e *Error) RegisterResponse {
	return RegisterResponse{Reason: e.Message, Err: e, Parked: e.Code == CodeParked}
}

// unknownWorker answers an operation on an id the table does not hold. A
// parked id that a rotation has since compacted away is still parked (the
// controller remembers); anything else is not registered.
func (s *Server) unknownWorker(workerID string) RegisterResponse {
	if s.rot.Parked(workerID) {
		return refusal(parkedError(workerID))
	}
	return refusal(badRequestError(fmt.Sprintf("platform: worker %q not registered", workerID)))
}

// Register adds a worker with its obfuscated leaf. Worker ids must be
// unique among active workers; use Reregister for location updates. A
// worker that previously withdrew while available may register again under
// the same id with a freshly obfuscated code. Every registration is a
// fresh report: with a lifetime budget configured it spends the
// publication's ε, and an exhausted worker is refused with Parked set.
// Validation and the engine insert happen before any slot-table mutation
// or budget charge, so a failed registration leaves no half-registered
// state behind, burns no budget, and the id stays free for retry.
func (s *Server) Register(req RegisterRequest) RegisterResponse {
	if req.WorkerID == "" {
		return refusal(badRequestError("platform: empty worker id"))
	}
	code := codeView(req.Code) // the table copies it once everything accepted it
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Epoch != 0 && req.Epoch != s.epoch {
		return refusal(staleEpochError(req.Epoch, s.epoch))
	}
	if err := s.pub.Tree.CheckCode(code); err != nil {
		return refusal(badRequestError(err.Error()))
	}
	// A withdrawn worker coming back online starts a fresh stint in a
	// fresh slot; the old slot is retired below, once the insert succeeded,
	// so a stale pop of the old stint still in flight sees stateRetired.
	// Its ledger cell moves along — from the old slot, or from the departed
	// ledger when a rotation compacted the old slot away.
	var prev *record
	spent, returning := 0.0, false
	if old, dup := s.tab.lookup(req.WorkerID); dup {
		prev = s.tab.at(old)
		switch prev.state {
		case stateGone:
			spent = prev.spent
		case stateParked:
			return refusal(parkedError(req.WorkerID))
		default:
			return refusal(conflictError(fmt.Sprintf("platform: worker %q already registered", req.WorkerID)))
		}
	} else {
		spent, returning = s.departed[req.WorkerID]
	}
	// Resolve the slot's capacity exactly as the engine will: the server's
	// accounting (active vs capacity) must agree with the engine's units.
	if req.Capacity < 0 || req.Capacity > math.MaxInt32 {
		return refusal(badRequestError(fmt.Sprintf("platform: capacity %d out of range", req.Capacity)))
	}
	capacity := req.Capacity
	if capacity == 0 {
		capacity = s.eng.DefaultCapacity()
	}
	if !s.eng.Policy().CapacityAware() {
		capacity = 1
	}
	if s.rot.Afford(req.WorkerID, spent) != nil {
		return refusal(parkedError(req.WorkerID))
	}
	slot := s.tab.len()
	if err := s.eng.InsertCapEpoch(code, slot, capacity, s.epoch); err != nil {
		return refusal(AsError(err, s.epoch))
	}
	// A concurrent Submit can pop the new slot as soon as Insert returns,
	// but it reads the table under mu, which we still hold.
	s.tab.add(record{id: req.WorkerID, spent: spent, capacity: int32(capacity), state: stateAvailable}, code)
	switch {
	case prev != nil:
		prev.state, prev.spent = stateRetired, 0
	case returning:
		delete(s.departed, req.WorkerID)
	default:
		s.registered++
	}
	s.rot.Charge(&s.tab.at(slot).spent)
	s.rot.Observe(code)
	return RegisterResponse{OK: true, Epoch: s.epoch}
}

// Submit assigns an arriving task to the tree-nearest available worker.
// A task tagged with the epoch its code was obfuscated under is refused as
// stale once the server has rotated past it — an epoch-N task must never
// be paired with an epoch-N+1 worker, since their codes live in different
// trees.
func (s *Server) Submit(req TaskRequest) TaskResponse {
	code := codeView(req.Code)
	s.gate.RLock()
	defer s.gate.RUnlock()
	if err := s.pub.Tree.CheckCode(code); err != nil {
		return TaskResponse{Assigned: false, Reason: err.Error(), Err: badRequestError(err.Error())}
	}
	if req.Epoch != 0 && req.Epoch != s.epoch {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		e := staleEpochError(req.Epoch, s.epoch)
		return TaskResponse{Assigned: false, Reason: e.Message, Err: e}
	}
	slot, lvl, ok, aerr := coreAssign(s.eng, code)
	s.mu.Lock()
	defer s.mu.Unlock()
	// A pop whose stint was closed while in flight (the worker withdrew or
	// was parked, its slot superseded) is stale: that assignment was never
	// confirmed to anyone, so retry. Pops under mu cannot go stale again —
	// stint transitions all happen under mu.
	for ok && stintOver(s.tab.at(slot).state) {
		slot, lvl, ok, aerr = coreAssign(s.eng, code)
	}
	if aerr != nil {
		// A backend failure is not "no workers": report it as such so the
		// client can retry rather than give up on the task.
		s.rejected++
		e := AsError(aerr, s.epoch)
		return TaskResponse{Assigned: false, Reason: e.Message, Err: e}
	}
	if !ok {
		s.rejected++
		e := noWorkersError()
		return TaskResponse{Assigned: false, Reason: e.Message, Err: e}
	}
	return s.recordAssignment(slot, lvl)
}

// recordAssignment books one confirmed pop. The caller's retry loop
// guarantees the stint is live; a popped slot is stateAvailable and leaves
// the pool only when this pop consumed its last capacity unit.
func (s *Server) recordAssignment(slot, lvl int) TaskResponse {
	rec := s.tab.at(slot)
	rec.active++
	if rec.active >= rec.capacity {
		rec.state = stateAssigned
	}
	s.assigned++
	for lvl >= len(s.levelCounts) {
		// A rotated tree is deeper than any before it.
		s.levelCounts = append(s.levelCounts, 0)
	}
	s.levelCounts[lvl]++
	s.levelSum += lvl
	return TaskResponse{Assigned: true, WorkerID: rec.id, Epoch: s.tab.reportEpoch(slot)}
}

// SubmitBatch assigns a batch of tasks in arrival order through the
// engine's batched API, amortising locking across the batch. Under the
// greedy policies the outcome is exactly that of submitting the tasks one
// by one; under batch-optimal each window of up to engine.BatchWindowSize
// tasks is one matching, solved over the window as a whole.
func (s *Server) SubmitBatch(req TaskBatchRequest) TaskBatchResponse {
	out := TaskBatchResponse{Results: make([]TaskResponse, len(req.Tasks))}
	s.gate.RLock()
	defer s.gate.RUnlock()
	// Malformed and epoch-stale tasks are answered without touching the
	// engine (mirroring Submit); only the valid ones, in order, form the
	// assignment batch.
	stale := 0
	valid := make([]int, 0, len(req.Tasks))
	codes := make([]hst.Code, 0, len(req.Tasks))
	for i, t := range req.Tasks {
		code := hst.Code(t.Code)
		if err := s.pub.Tree.CheckCode(code); err != nil {
			out.Results[i] = TaskResponse{Assigned: false, Reason: err.Error(), Err: badRequestError(err.Error())}
			continue
		}
		if t.Epoch != 0 && t.Epoch != s.epoch {
			e := staleEpochError(t.Epoch, s.epoch)
			out.Results[i] = TaskResponse{Assigned: false, Reason: e.Message, Err: e}
			stale++
			continue
		}
		valid = append(valid, i)
		codes = append(codes, code)
	}
	slots, lvls := s.eng.AssignBatch(codes)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rejected += stale
	for k, slot := range slots {
		i := valid[k]
		lvl := lvls[k]
		// Stale pops (see Submit) are retried; under mu no retry can go
		// stale again.
		var aerr error
		for slot != engine.None && stintOver(s.tab.at(slot).state) {
			var ok bool
			if slot, lvl, ok, aerr = coreAssign(s.eng, codes[k]); !ok {
				slot = engine.None
			}
		}
		if aerr != nil {
			s.rejected++
			e := AsError(aerr, s.epoch)
			out.Results[i] = TaskResponse{Assigned: false, Reason: e.Message, Err: e}
			continue
		}
		if slot == engine.None {
			s.rejected++
			e := noWorkersError()
			out.Results[i] = TaskResponse{Assigned: false, Reason: e.Message, Err: e}
			continue
		}
		out.Results[i] = s.recordAssignment(slot, lvl)
	}
	return out
}

// Release records a completed task: one capacity unit returns to the pool,
// optionally at a freshly obfuscated leaf. Re-reporting the previous code
// costs no extra privacy budget (it is post-processing of an already-
// released report), but is only possible while the epoch it was obfuscated
// under is still being served; after a rotation the worker must supply a
// fresh code drawn under the new publication, which — like every fresh
// report — spends ε against its lifetime budget and can park it. A
// capacitated worker that still has units in the pool and re-reports a new
// code moves wholesale: its remaining units follow the fresh leaf. The
// paper's one-shot model has no releases; a deployed platform needs them
// for workers that complete tasks.
func (s *Server) Release(req ReleaseRequest) RegisterResponse {
	var newCode hst.Code
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(req.Code) > 0 {
		if req.Epoch != 0 && req.Epoch != s.epoch {
			return refusal(staleEpochError(req.Epoch, s.epoch))
		}
		newCode = codeView(req.Code)
		if err := s.pub.Tree.CheckCode(newCode); err != nil {
			return refusal(badRequestError(err.Error()))
		}
	}
	slot, ok := s.tab.lookup(req.WorkerID)
	if !ok {
		return s.unknownWorker(req.WorkerID)
	}
	rec := s.tab.at(slot)
	switch rec.state {
	case stateAvailable:
		if rec.active == 0 {
			return refusal(conflictError(fmt.Sprintf("platform: worker %q is not assigned", req.WorkerID)))
		}
		// A capacitated worker with spare units completing one of its tasks:
		// fall through to the completion path below.
	case stateGone:
		return refusal(conflictError(fmt.Sprintf("platform: worker %q has withdrawn", req.WorkerID)))
	case stateParked:
		return refusal(parkedError(req.WorkerID))
	case stateAssignedGone:
		// The task is done but the worker had withdrawn mid-assignment: the
		// unit does not return to the pool, and once the last outstanding
		// task completes the worker is simply offline — free to Register
		// back later.
		if rec.active > 0 {
			rec.active--
		}
		if rec.active == 0 {
			rec.state = stateGone
		}
		return refusal(conflictError(fmt.Sprintf("platform: worker %q has withdrawn", req.WorkerID)))
	}
	// Spare units live in the engine, under a report of this epoch: a slot
	// in the pool always has a code to read.
	inPool := rec.state == stateAvailable
	code := newCode
	if newCode != "" {
		if s.rot.Afford(req.WorkerID, rec.spent) != nil {
			// The worker finished its task but cannot afford the fresh
			// report: park it rather than re-noise past its guarantee,
			// pulling any spare units out of the pool.
			if inPool {
				s.eng.Remove(s.tab.code(slot), slot)
			}
			if rec.active > 0 {
				rec.active--
			}
			rec.state = stateParked
			return refusal(parkedError(req.WorkerID))
		}
	} else if rec.lag != 0 {
		reason := fmt.Sprintf(
			"platform: worker %q report is from epoch %d (serving %d); a fresh report is required",
			req.WorkerID, s.tab.reportEpoch(slot), s.epoch)
		return refusal(&Error{Code: CodeStaleEpoch, Message: reason, Epoch: s.epoch, Retryable: true})
	} else {
		code = s.tab.code(slot)
	}
	// Hand the completed unit back. Same code: one unit rejoins in place
	// (re-inserting the slot when this was its last active task). New code:
	// the worker moves wholesale, spare units included — sized by what the
	// engine actually still pooled, not by capacity−active: a concurrent
	// Submit may have popped a unit it has not recorded under mu yet, and
	// re-deriving the count here would resurrect that unit and let the
	// worker serve beyond its capacity. A refused engine call leaves the
	// worker as it was and the budget uncharged, so the client can retry.
	if inPool && code == s.tab.code(slot) {
		if err := s.eng.AddCapacityEpoch(code, slot, s.epoch); err != nil {
			return refusal(AsError(err, s.epoch))
		}
	} else {
		pooled := 0
		if inPool {
			pooled, _ = s.eng.RemoveUnits(s.tab.code(slot), slot)
		}
		if err := s.eng.InsertCapEpoch(code, slot, pooled+1, s.epoch); err != nil {
			if pooled > 0 {
				// Put the spare units back where they were; if the engine
				// refuses this too there is nothing left to try.
				_ = s.eng.InsertCapEpoch(s.tab.code(slot), slot, pooled, s.epoch)
			}
			return refusal(AsError(err, s.epoch))
		}
	}
	rec.active--
	rec.state = stateAvailable
	s.released++
	if newCode != "" {
		s.tab.setCode(slot, newCode)
		s.rot.Charge(&rec.spent)
		s.rot.Observe(newCode)
	}
	return RegisterResponse{OK: true, Epoch: s.epoch}
}

// Withdraw takes a worker offline. An available worker leaves the pool
// immediately; an assigned worker finishes its current task but will not
// return to the pool (its Release is rejected, and that rejected Release
// marks the stint over). Withdrawn workers may Register again later with a
// freshly obfuscated code — churn costs no protocol round-trips beyond the
// re-registration itself.
func (s *Server) Withdraw(req WithdrawRequest) RegisterResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.tab.lookup(req.WorkerID)
	if !ok {
		return s.unknownWorker(req.WorkerID)
	}
	rec := s.tab.at(slot)
	switch rec.state {
	case stateGone, stateAssignedGone:
		return refusal(conflictError(fmt.Sprintf("platform: worker %q has already withdrawn", req.WorkerID)))
	case stateParked:
		return refusal(parkedError(req.WorkerID))
	case stateAssigned:
		rec.state = stateAssignedGone
	default: // stateAvailable
		// The worker observed itself available and is told it is offline,
		// so the withdrawal must win every race: when a concurrent Submit
		// popped the worker but has not recorded the assignment yet
		// (eng.Remove fails), marking the stint over makes that pop stale
		// and the Submit retries another worker. A capacitated worker with
		// outstanding tasks keeps serving them (its spare units leave the
		// pool now) and goes fully offline at its last Release.
		s.eng.Remove(s.tab.code(slot), slot)
		if rec.active > 0 {
			rec.state = stateAssignedGone
		} else {
			rec.state = stateGone
		}
	}
	s.withdrawn++
	return RegisterResponse{OK: true}
}

// Spent returns the lifetime ε the worker has consumed so far: its ledger
// cell, or its departed-ledger entry when a rotation compacted it out of
// the table (0 without a lifetime budget, or for an unknown id).
func (s *Server) Spent(workerID string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.tab.lookup(workerID); ok {
		return s.tab.at(slot).spent
	}
	return s.departed[workerID]
}

// Stats reports the server's counters.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	mean := 0.0
	if s.assigned > 0 {
		mean = float64(s.levelSum) / float64(s.assigned)
	}
	rs := s.rot.Stats()
	policy := s.eng.Policy().Name()
	return StatsResponse{
		RegisteredWorkers: s.registered,
		AvailableWorkers:  s.eng.Len(),
		Policy:            policy,
		PolicyCounters:    map[string]int{policy: s.assigned},
		DefaultCapacity:   s.eng.DefaultCapacity(),
		CapacityUnits:     s.eng.CapacityUnits(),
		BatchWindows:      s.eng.Windows(),
		AssignedTasks:     s.assigned,
		RejectedTasks:     s.rejected,
		ReleasedWorkers:   s.released,
		WithdrawnWorkers:  s.withdrawn,
		MatchLevelCounts:  append([]int(nil), s.levelCounts...),
		MeanMatchLevel:    mean,
		Epoch:             s.epoch,
		Rotations:         rs.Rotations,
		RotatedWorkers:    rs.Rotated,
		ParkedWorkers:     rs.Parked,
		DroppedWorkers:    s.dropped,
		BudgetLimit:       rs.Limit,
		BudgetSpentTotal:  rs.SpentTotal,
		BudgetedAgents:    rs.Agents,
		SlotTableLen:      s.tab.len(),
		RegistryBytes:     s.tab.bytes(),
		DepartedLedgerIDs: len(s.departed),
	}
}
