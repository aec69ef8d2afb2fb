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
	// engine.Engine's; see its method docs.
	Assign(code hst.Code) (id, lcaLevel int, ok bool)
	AssignBatch(codes []hst.Code) (ids, lcaLevels []int)
	InsertEpoch(code hst.Code, id int, epoch int64) error
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
	// rot owns epoch rotation and per-worker budget accounting. It has its
	// own lock; the server calls into it under mu where slot-table
	// consistency matters.
	rot *epoch.Controller

	// mu guards the slot tables, counters, and the publication (whose tree
	// and epoch change at rotation). The engine is the source of truth for
	// availability: a slot is registered in the engine exactly when the
	// worker is available. Every engine mutation except Submit's atomic pop
	// happens under mu, so slot-table reads after a pop are always
	// consistent.
	mu        sync.Mutex
	pub       Publication
	epoch     int64      // serving epoch; mirrors rot under mu
	workerIDs []string   // slot → external id
	codes     []hst.Code // slot → reported leaf
	states    []workerState
	slotEpoch []int64 // slot → epoch the slot's code was obfuscated under
	// capacity is the slot's declared task capacity and active its
	// outstanding assignments. The engine holds the slot exactly while
	// active < capacity (with capacity−active remaining units), so a pop
	// maps to active++ and a completed task hands one unit back.
	capacity  []int
	active    []int
	byID      map[string]int
	assigned  int
	rejected  int
	released  int
	withdrawn int
	dropped   int // available workers dropped at a rotation for lack of a fresh report
	// levelCounts[l] counts assignments whose match LCA sat at level l;
	// levelSum is Σ levels for the running mean. Both are fed by Submit and
	// SubmitBatch alike. The histogram grows if a rotated tree is deeper.
	levelCounts []int
	levelSum    int
}

// workerState tracks a slot's lifecycle. A worker is in the engine exactly
// when its state is stateAvailable (with capacity−active remaining units).
// Slots are registration epochs: a worker that withdraws and registers back
// gets a fresh slot, and the old one is retired for good — so a Submit
// holding a popped slot can always tell whether the stint that slot belongs
// to is still the live one.
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
// Withdraw, a rotation, or a parking, possibly followed by a
// re-registration) while the pop was in flight: the pop is stale and must
// be retried — the worker was told it is offline (or got a fresh slot in
// the new epoch), and acting on the pop could double-assign it.
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
		byID:        map[string]int{},
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

// Register adds a worker with its obfuscated leaf. Worker ids must be
// unique among active workers; use Reregister for location updates. A
// worker that previously withdrew while available may register again under
// the same id with a freshly obfuscated code. Every registration is a
// fresh report: with a lifetime budget configured it spends the
// publication's ε, and an exhausted worker is refused with Parked set.
// Validation and the engine insert happen before any slot-table mutation,
// so a failed registration leaves no half-registered state behind and the
// id stays free for retry.
func (s *Server) Register(req RegisterRequest) RegisterResponse {
	if req.WorkerID == "" {
		return RegisterResponse{OK: false, Reason: "platform: empty worker id", Err: badRequestError("platform: empty worker id")}
	}
	code := hst.Code(req.Code)
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Epoch != 0 && req.Epoch != s.epoch {
		e := staleEpochError(req.Epoch, s.epoch)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	if err := s.pub.Tree.CheckCode(code); err != nil {
		return RegisterResponse{OK: false, Reason: err.Error(), Err: badRequestError(err.Error())}
	}
	// A withdrawn worker coming back online starts a fresh stint in a
	// fresh slot; the old slot is retired below, once the insert succeeded,
	// so a stale pop of the old stint still in flight sees stateRetired.
	revive := -1
	if old, dup := s.byID[req.WorkerID]; dup {
		switch s.states[old] {
		case stateGone:
			revive = old
		case stateParked:
			return RegisterResponse{OK: false, Parked: true, Reason: parkedReason(req.WorkerID), Err: parkedError(req.WorkerID)}
		default:
			reason := fmt.Sprintf("platform: worker %q already registered", req.WorkerID)
			return RegisterResponse{OK: false, Reason: reason, Err: conflictError(reason)}
		}
	}
	// Resolve the slot's capacity exactly as the engine will: the server's
	// accounting (active vs capacity) must agree with the engine's units.
	// Range validation happens before the budget spend below — a refused
	// registration must not burn lifetime ε.
	if req.Capacity < 0 || req.Capacity > math.MaxInt32 {
		reason := fmt.Sprintf("platform: capacity %d out of range", req.Capacity)
		return RegisterResponse{OK: false, Reason: reason, Err: badRequestError(reason)}
	}
	capacity := req.Capacity
	if capacity == 0 {
		capacity = s.eng.DefaultCapacity()
	}
	if !s.eng.Policy().CapacityAware() {
		capacity = 1
	}
	if err := s.rot.Spend(req.WorkerID); err != nil {
		return RegisterResponse{OK: false, Parked: true, Reason: parkedReason(req.WorkerID), Err: parkedError(req.WorkerID)}
	}
	slot := len(s.workerIDs)
	if err := s.eng.InsertCapEpoch(code, slot, capacity, s.epoch); err != nil {
		return RegisterResponse{OK: false, Reason: err.Error(), Err: AsError(err, s.epoch)}
	}
	// A concurrent Submit can pop the new slot as soon as Insert returns,
	// but it reads the tables under mu, which we still hold.
	s.workerIDs = append(s.workerIDs, req.WorkerID)
	s.codes = append(s.codes, code)
	s.states = append(s.states, stateAvailable)
	s.slotEpoch = append(s.slotEpoch, s.epoch)
	s.capacity = append(s.capacity, capacity)
	s.active = append(s.active, 0)
	s.byID[req.WorkerID] = slot
	if revive >= 0 {
		s.states[revive] = stateRetired
	}
	s.rot.Observe(code)
	return RegisterResponse{OK: true, Epoch: s.epoch}
}

// Submit assigns an arriving task to the tree-nearest available worker.
// A task tagged with the epoch its code was obfuscated under is refused as
// stale once the server has rotated past it — an epoch-N task must never
// be paired with an epoch-N+1 worker, since their codes live in different
// trees.
func (s *Server) Submit(req TaskRequest) TaskResponse {
	code := hst.Code(req.Code)
	// Validate against the engine's current tree (an atomic read — the
	// locked publication may be mid-rotation); the engine re-validates
	// internally, so a swap between here and the pop cannot corrupt it.
	if err := s.eng.Tree().CheckCode(code); err != nil {
		return TaskResponse{Assigned: false, Reason: err.Error(), Err: badRequestError(err.Error())}
	}
	slot, lvl, ok, aerr := coreAssign(s.eng, code)
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Epoch != 0 && req.Epoch != s.epoch {
		// The pop (if any) came from the fresh epoch; the task's code is
		// from a rotated-away one. Undo the pop — unless the slot's stint
		// closed in flight, in which case there is nothing to restore.
		if ok && !stintOver(s.states[slot]) {
			// The slot was popped live, so its code is valid for the
			// serving epoch; returning the unit cannot fail.
			s.eng.AddCapacityEpoch(s.codes[slot], slot, s.epoch)
		}
		s.rejected++
		e := staleEpochError(req.Epoch, s.epoch)
		return TaskResponse{Assigned: false, Reason: e.Message, Err: e}
	}
	// A pop whose stint was closed while in flight (the worker withdrew or
	// was rotated/parked, its slot superseded) is stale: that assignment
	// was never confirmed to anyone, so retry. Pops under mu cannot go
	// stale again — stint transitions all happen under mu.
	for ok && stintOver(s.states[slot]) {
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
	// The retry loop above guarantees the stint is live; a popped slot is
	// stateAvailable and leaves the pool only when this pop consumed its
	// last capacity unit.
	s.active[slot]++
	if s.active[slot] >= s.capacity[slot] {
		s.states[slot] = stateAssigned
	}
	s.assigned++
	s.bumpLevel(lvl)
	return TaskResponse{Assigned: true, WorkerID: s.workerIDs[slot], Epoch: s.slotEpoch[slot]}
}

// bumpLevel records one assignment's LCA level, growing the histogram when
// a rotated tree is deeper than any before it.
func (s *Server) bumpLevel(lvl int) {
	for lvl >= len(s.levelCounts) {
		s.levelCounts = append(s.levelCounts, 0)
	}
	s.levelCounts[lvl]++
	s.levelSum += lvl
}

// SubmitBatch assigns a batch of tasks in arrival order through the
// engine's batched API, amortising locking across the batch. The outcome
// is exactly that of submitting the tasks one by one.
func (s *Server) SubmitBatch(req TaskBatchRequest) TaskBatchResponse {
	out := TaskBatchResponse{Results: make([]TaskResponse, len(req.Tasks))}
	// Malformed tasks are answered without touching the engine (mirroring
	// Submit); only the valid ones, in order, form the assignment batch.
	tree, engEpoch := s.eng.Tree(), s.eng.Epoch()
	staleEarly := 0
	valid := make([]int, 0, len(req.Tasks))
	codes := make([]hst.Code, 0, len(req.Tasks))
	for i, t := range req.Tasks {
		code := hst.Code(t.Code)
		if err := tree.CheckCode(code); err != nil {
			out.Results[i] = TaskResponse{Assigned: false, Reason: err.Error(), Err: badRequestError(err.Error())}
			continue
		}
		// Epoch-stale tasks are refused up front, before the batch pops
		// anything: letting them pop-and-undo would hand later tasks in
		// the batch different workers than sequential Submit calls would.
		// (A rotation racing the batch is re-checked under mu below.)
		if t.Epoch != 0 && t.Epoch != engEpoch {
			e := staleEpochError(t.Epoch, engEpoch)
			out.Results[i] = TaskResponse{Assigned: false, Reason: e.Message, Err: e}
			staleEarly++
			continue
		}
		valid = append(valid, i)
		codes = append(codes, code)
	}
	slots, lvls := s.eng.AssignBatch(codes)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rejected += staleEarly
	for k, slot := range slots {
		i := valid[k]
		lvl := lvls[k]
		// Epoch-tagged tasks whose publication has been rotated away are
		// refused and their pop undone, exactly as in Submit.
		if e := req.Tasks[i].Epoch; e != 0 && e != s.epoch {
			if slot != engine.None && !stintOver(s.states[slot]) {
				s.eng.AddCapacityEpoch(s.codes[slot], slot, s.epoch)
			}
			s.rejected++
			se := staleEpochError(e, s.epoch)
			out.Results[i] = TaskResponse{Assigned: false, Reason: se.Message, Err: se}
			continue
		}
		// Stale pops (see Submit) are retried; under mu no retry can go
		// stale again.
		var aerr error
		for slot != engine.None && stintOver(s.states[slot]) {
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
		s.active[slot]++
		if s.active[slot] >= s.capacity[slot] {
			s.states[slot] = stateAssigned
		}
		s.assigned++
		s.bumpLevel(lvl)
		out.Results[i] = TaskResponse{Assigned: true, WorkerID: s.workerIDs[slot], Epoch: s.slotEpoch[slot]}
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
		newCode = hst.Code(req.Code)
		if req.Epoch != 0 && req.Epoch != s.epoch {
			e := staleEpochError(req.Epoch, s.epoch)
			return RegisterResponse{OK: false, Reason: e.Message, Err: e}
		}
		if err := s.pub.Tree.CheckCode(newCode); err != nil {
			return RegisterResponse{OK: false, Reason: err.Error(), Err: badRequestError(err.Error())}
		}
	}
	slot, ok := s.byID[req.WorkerID]
	if !ok {
		reason := fmt.Sprintf("platform: worker %q not registered", req.WorkerID)
		return RegisterResponse{OK: false, Reason: reason, Err: badRequestError(reason)}
	}
	switch s.states[slot] {
	case stateAvailable:
		if s.active[slot] == 0 {
			reason := fmt.Sprintf("platform: worker %q is not assigned", req.WorkerID)
			return RegisterResponse{OK: false, Reason: reason, Err: conflictError(reason)}
		}
		// A capacitated worker with spare units completing one of its tasks:
		// fall through to the completion path below.
	case stateGone:
		reason := fmt.Sprintf("platform: worker %q has withdrawn", req.WorkerID)
		return RegisterResponse{OK: false, Reason: reason, Err: conflictError(reason)}
	case stateParked:
		return RegisterResponse{OK: false, Parked: true, Reason: parkedReason(req.WorkerID), Err: parkedError(req.WorkerID)}
	case stateAssignedGone:
		// The task is done but the worker had withdrawn mid-assignment: the
		// unit does not return to the pool, and once the last outstanding
		// task completes the worker is simply offline — free to Register
		// back later.
		if s.active[slot] > 0 {
			s.active[slot]--
		}
		if s.active[slot] == 0 {
			s.states[slot] = stateGone
		}
		reason := fmt.Sprintf("platform: worker %q has withdrawn", req.WorkerID)
		return RegisterResponse{OK: false, Reason: reason, Err: conflictError(reason)}
	}
	code := s.codes[slot]
	inPool := s.states[slot] == stateAvailable // spare units live in the engine
	if newCode != "" {
		code = newCode
		if err := s.rot.Spend(req.WorkerID); err != nil {
			// The worker finished its task but cannot afford the fresh
			// report: park it rather than re-noise past its guarantee,
			// pulling any spare units out of the pool.
			if inPool {
				s.eng.Remove(s.codes[slot], slot)
			}
			if s.active[slot] > 0 {
				s.active[slot]--
			}
			s.states[slot] = stateParked
			return RegisterResponse{OK: false, Parked: true, Reason: parkedReason(req.WorkerID), Err: parkedError(req.WorkerID)}
		}
	} else if s.slotEpoch[slot] != s.epoch {
		reason := fmt.Sprintf(
			"platform: worker %q report is from epoch %d (serving %d); a fresh report is required",
			req.WorkerID, s.slotEpoch[slot], s.epoch)
		return RegisterResponse{OK: false, Reason: reason,
			Err: &Error{Code: CodeStaleEpoch, Message: reason, Epoch: s.epoch, Retryable: true}}
	}
	// Hand the completed unit back. Same code: one unit rejoins in place
	// (re-inserting the slot when this was its last active task). New code:
	// the worker moves wholesale, spare units included — sized by what the
	// engine actually still pooled, not by capacity−active: a concurrent
	// Submit may have popped a unit it has not recorded under mu yet, and
	// re-deriving the count here would resurrect that unit and let the
	// worker serve beyond its capacity.
	if inPool && code == s.codes[slot] {
		if err := s.eng.AddCapacityEpoch(code, slot, s.epoch); err != nil {
			return RegisterResponse{OK: false, Reason: err.Error(), Err: AsError(err, s.epoch)}
		}
	} else {
		pooled := 0
		if inPool {
			pooled, _ = s.eng.RemoveUnits(s.codes[slot], slot)
		}
		if err := s.eng.InsertCapEpoch(code, slot, pooled+1, s.epoch); err != nil {
			return RegisterResponse{OK: false, Reason: err.Error(), Err: AsError(err, s.epoch)}
		}
	}
	s.active[slot]--
	s.codes[slot] = code
	s.slotEpoch[slot] = s.epoch
	s.states[slot] = stateAvailable
	s.released++
	if newCode != "" {
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
	slot, ok := s.byID[req.WorkerID]
	if !ok {
		reason := fmt.Sprintf("platform: worker %q not registered", req.WorkerID)
		return RegisterResponse{OK: false, Reason: reason, Err: badRequestError(reason)}
	}
	switch s.states[slot] {
	case stateGone, stateAssignedGone:
		reason := fmt.Sprintf("platform: worker %q has already withdrawn", req.WorkerID)
		return RegisterResponse{OK: false, Reason: reason, Err: conflictError(reason)}
	case stateParked:
		return RegisterResponse{OK: false, Parked: true, Reason: parkedReason(req.WorkerID), Err: parkedError(req.WorkerID)}
	case stateAssigned:
		s.states[slot] = stateAssignedGone
	default: // stateAvailable
		// The worker observed itself available and is told it is offline,
		// so the withdrawal must win every race: when a concurrent Submit
		// popped the worker but has not recorded the assignment yet
		// (eng.Remove fails), marking the stint over makes that pop stale
		// and the Submit retries another worker. A capacitated worker with
		// outstanding tasks keeps serving them (its spare units leave the
		// pool now) and goes fully offline at its last Release.
		s.eng.Remove(s.codes[slot], slot)
		if s.active[slot] > 0 {
			s.states[slot] = stateAssignedGone
		} else {
			s.states[slot] = stateGone
		}
	}
	s.withdrawn++
	return RegisterResponse{OK: true}
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
		// Distinct worker ids, not slots: re-registrations after a
		// withdrawal retire the old slot rather than reuse it.
		RegisteredWorkers: len(s.byID),
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
	}
}
