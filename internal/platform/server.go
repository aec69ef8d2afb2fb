package platform

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/wire"
)

// Server is the untrusted crowdsourcing platform. It sees only obfuscated
// leaf codes and assigns each arriving task to the tree-nearest available
// worker (Alg. 4). It is a thin transport wrapper over the concurrent
// assignment engine (internal/engine): the engine holds the availability
// state and answers each task in O(D) under its one lock, while the server
// only maps external worker ids to engine slots and keeps counters.
//
// Server is safe for concurrent use.
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
	// Fixed configuration.
	Policy() engine.Policy
	DefaultCapacity() int
	// Monitoring.
	Windows() int64
	Len() int
	CapacityUnits() int
	// Serving operations. Semantics (staleness, retries, tie-breaks) are
	// engine.Engine's; see its method docs. No method may retain a code
	// past its return, nor one seq yields past that yield's return: the
	// server passes views of request bytes and of the buffers it decodes
	// its slots' codes into, which are overwritten later.
	Assign(code hst.Code) (id, lcaLevel int, ok bool)
	AssignBatch(codes []hst.Code) (ids, lcaLevels []int)
	InsertCapEpoch(code hst.Code, id, capacity int, epoch int64) error
	AddCapacityEpoch(code hst.Code, id int, epoch int64) error
	RemoveUnits(code hst.Code, id int) (units int, ok bool)
	RelocateEpoch(from, to hst.Code, id, extra int, epoch int64) (pooled int, err error)
	// SwapEpochSeq rotates to the next epoch's population, handed over as
	// a sequence instead of a slice so a 10M-worker rotation never holds a
	// second copy of it. seq must be replayable and safe to invoke from
	// several goroutines at once (the cluster core runs one filtered
	// iteration per node). Every core ignores shards, which stays until
	// ROADMAP item 2 (a) because the benchmark's tracing core pins this
	// signature. The unnamed func type, not iter.Seq, is
	// what lets a struct embedding *engine.Engine satisfy Core.
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
	// seed roots the derivation of each rotated epoch's tree (hst.BuildEpoch).
	seed uint64

	// gate is the rotation gate. A rotation renumbers every slot, and the
	// core's Assign returns a bare slot number with no epoch, so a pop must
	// never be interpreted against another epoch's table: Submit and
	// SubmitBatch hold the gate for reading across pop + bookkeeping,
	// Rotate holds it for writing across the engine swap + table flip.
	// Lock order: gate, then mu. Fields written only by Rotate (pub, tab)
	// may be read under either.
	gate sync.RWMutex

	// mu guards the slot table, counters, and the publication (whose tree
	// and epoch change at rotation) with the rotation it stages. The engine
	// is the source of truth for availability: a slot is registered in the
	// engine exactly when the worker is available. Every engine mutation
	// except Submit's atomic pop happens under mu, so slot-table reads after
	// a pop are always consistent.
	mu  sync.Mutex
	pub Publication
	// staged is the prepared rotation's tree, to serve as epoch pub.Epoch+1;
	// nil when none is staged. A commit moves the epoch and drops it, so a
	// staging never outlives the epoch it was prepared against.
	staged *hst.Tree
	tab    *slotTable
	// codeBuf is what the table decodes a slot's code into for the core,
	// under mu: a code read from it is valid until the next decode.
	codeBuf []byte
	// departed holds the ledger cells — reports charged — of ids a rotation
	// compacted out of the table (withdrawn, dropped or parked workers),
	// reclaimed when the id registers back. An id whose cell is at
	// maxReports can never report again: it is parked. It is empty without
	// a lifetime budget.
	departed map[string]uint32
	// The lifetime-ε ledger beside the cells (see charge): lifetime is the
	// budget (0: none, and nothing is charged), maxReports the charge rule,
	// privacy.ReportLimit of the configuration. spent sums ε over every charge
	// in charge order, agents counts the ids charged at least once and
	// parked the ids parked — refused a report, or compacted out of the
	// table at their limit.
	lifetime   float64
	maxReports uint32
	spent      float64
	agents     int
	parked     int
	// registered counts ids that were unknown — neither in the table nor in
	// the departed ledger — when they registered.
	registered int
	assigned   int
	rejected   int
	released   int
	withdrawn  int
	dropped    int // available workers dropped at a rotation for lack of a fresh report
	rotations  int // committed rotations
	rotated    int // fresh reports those rotations accepted
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
	lifetime   float64
	policy     engine.Policy
	defaultCap int
	tree       *hst.Tree
	core       Core
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
// (cols×rows points). Harnesses that must share one published tree across
// stacks, like the simulator's cross-driver comparisons, inject it here;
// epoch rotations
// still derive their fresh trees from the server seed.
func WithTree(t *hst.Tree) ServerOption {
	return func(c *serverConfig) { c.tree = t }
}

// WithCore serves from the given assignment core instead of constructing
// an in-process engine. The core's tree becomes the publication (it must
// cover the server grid); WithPolicy and WithDefaultCapacity are ignored — those knobs were fixed when the core was built. The
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
		if tree, err = PublishedTree(grid, seed); err != nil {
			return nil, err
		}
	}
	if tree.NumPoints() != grid.Len() {
		return nil, fmt.Errorf("platform: injected tree covers %d points, grid has %d",
			tree.NumPoints(), grid.Len())
	}
	if !(eps > 0) || math.IsInf(eps, 1) {
		return nil, errors.New("platform: epsilon must be positive and finite")
	}
	core := cfg.core
	if core == nil {
		core, err = engine.NewWithOptions(tree, 0, engine.WithPolicy(cfg.policy), engine.WithDefaultCapacity(cfg.defaultCap))
		if err != nil {
			return nil, err
		}
	}
	maxReports, err := privacy.ReportLimit(eps, cfg.lifetime)
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
		seed:        seed,
		tab:         newSlotTable(0, tree.Depth(), tree.Degree(), first),
		departed:    map[string]uint32{},
		lifetime:    cfg.lifetime,
		maxReports:  maxReports,
		levelCounts: make([]int, tree.Depth()+1),
	}, nil
}

// PublishedTree derives the HST a deployment over grid with the given seed
// publishes at its first epoch, so a single server and a cluster coordinator
// built from the same region, grid and seed publish the same tree.
func PublishedTree(grid *geo.Grid, seed uint64) (*hst.Tree, error) {
	return hst.Build(grid.Points(), rng.New(seed).Derive("server-hst"))
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
// parked id that a rotation has since compacted away is still parked (its
// departed cell is at the limit); anything else is not registered.
func (s *Server) unknownWorker(workerID string) RegisterResponse {
	if s.departed[workerID] >= s.maxReports {
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
	if req.Epoch != 0 && req.Epoch != s.pub.Epoch {
		return refusal(staleEpochError(req.Epoch, s.pub.Epoch))
	}
	if err := s.pub.Tree.CheckCode(code); err != nil {
		return refusal(badRequestError(err.Error()))
	}
	// A withdrawn worker coming back online starts a fresh stint in a
	// fresh slot; the old slot is retired below, once the insert succeeded,
	// so a stale pop of the old stint still in flight sees stateRetired.
	// Its ledger cell moves along — from the old slot, or from the departed
	// ledger when a rotation compacted the old slot away. The id is hashed
	// and probed once: nothing below changes the table before the add.
	var prev *record
	reports, returning := uint32(0), false
	at := s.tab.probe(req.WorkerID)
	if at.found {
		prev = s.tab.at(s.tab.slotOf(at))
		switch prev.state() {
		case stateGone:
			reports = prev.reports()
		case stateParked:
			return refusal(parkedError(req.WorkerID))
		default:
			return refusal(conflictError(fmt.Sprintf("platform: worker %q already registered", req.WorkerID)))
		}
	} else {
		reports, returning = s.departed[req.WorkerID]
	}
	if !s.tab.fits(len(req.WorkerID)) {
		// 2^25−1 slots or 4 GiB of ids since the last rotation, which compacts them.
		return refusal(unavailableError(errors.New("platform: the registry is full until the next rotation")))
	}
	// The server's accounting (active vs capacity) must agree with the
	// engine's units, so the slot's capacity is the engine's rule.
	if req.Capacity < 0 || req.Capacity > math.MaxInt32 {
		return refusal(badRequestError(fmt.Sprintf("platform: capacity %d out of range", req.Capacity)))
	}
	capacity := engine.EffectiveCapacity(s.eng.Policy(), s.eng.DefaultCapacity(), req.Capacity)
	if reports >= s.maxReports {
		if prev != nil {
			// A withdrawn stint still in the table parks now; a departed id
			// at its limit was parked when a rotation compacted it.
			prev.setState(stateParked)
			s.parked++
		}
		return refusal(parkedError(req.WorkerID))
	}
	slot := s.tab.len()
	if err := s.eng.InsertCapEpoch(code, slot, capacity, s.pub.Epoch); err != nil {
		return refusal(AsError(err, s.pub.Epoch))
	}
	// A concurrent Submit can pop the new slot as soon as Insert returns,
	// but it reads the table under mu, which we still hold.
	s.tab.add(at, req.WorkerID, reports, int32(capacity), code)
	switch {
	case prev != nil:
		prev.setState(stateRetired)
		prev.setReports(0)
	case returning:
		delete(s.departed, req.WorkerID)
	default:
		s.registered++
	}
	s.charge(s.tab.at(slot))
	return RegisterResponse{OK: true, Epoch: s.pub.Epoch}
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
	if req.Epoch != 0 && req.Epoch != s.pub.Epoch {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		e := staleEpochError(req.Epoch, s.pub.Epoch)
		return TaskResponse{Assigned: false, Reason: e.Message, Err: e}
	}
	slot, lvl, ok, aerr := coreAssign(s.eng, code)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.settle(code, slot, lvl, ok, aerr)
}

// settle answers one task from its pop (slot at LCA level lvl when ok, or
// the core's failure aerr), under mu. A pop whose stint was closed while in
// flight (the worker withdrew or was parked, its slot superseded) is stale:
// that assignment was never confirmed to anyone, so it is retried. Pops
// under mu cannot go stale again — stint transitions all happen under mu. A
// confirmed pop's slot is stateAvailable and leaves the pool only when the
// pop consumed its last capacity unit.
func (s *Server) settle(code hst.Code, slot, lvl int, ok bool, aerr error) TaskResponse {
	for ok && stintOver(s.tab.at(slot).state()) {
		slot, lvl, ok, aerr = coreAssign(s.eng, code)
	}
	if aerr != nil || !ok {
		// A backend failure is not "no workers": report it as such so the
		// client can retry rather than give up on the task.
		s.rejected++
		e := AsError(aerr, s.pub.Epoch)
		if e == nil {
			e = noWorkersError()
		}
		return TaskResponse{Assigned: false, Reason: e.Message, Err: e}
	}
	if s.tab.addActive(slot, 1) >= s.tab.units(slot).capacity {
		s.tab.at(slot).setState(stateAssigned)
	}
	s.assigned++
	for lvl >= len(s.levelCounts) {
		// A rotated tree is deeper than any before it.
		s.levelCounts = append(s.levelCounts, 0)
	}
	s.levelCounts[lvl]++
	s.levelSum += lvl
	return TaskResponse{Assigned: true, WorkerID: s.tab.id(slot), Epoch: s.tab.reportEpoch(slot)}
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
		if t.Epoch != 0 && t.Epoch != s.pub.Epoch {
			e := staleEpochError(t.Epoch, s.pub.Epoch)
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
		out.Results[valid[k]] = s.settle(codes[k], slot, lvls[k], slot != engine.None, nil)
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
		if req.Epoch != 0 && req.Epoch != s.pub.Epoch {
			return refusal(staleEpochError(req.Epoch, s.pub.Epoch))
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
	switch rec.state() {
	case stateAvailable:
		if s.tab.units(slot).active == 0 {
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
		active := s.tab.units(slot).active
		if active > 0 {
			active = s.tab.addActive(slot, -1)
		}
		if active == 0 {
			rec.setState(stateGone)
		}
		return refusal(conflictError(fmt.Sprintf("platform: worker %q has withdrawn", req.WorkerID)))
	}
	if newCode != "" {
		return s.move(slot, rec, req.WorkerID, newCode, 1)
	}
	if s.tab.lag(slot) != 0 {
		reason := fmt.Sprintf(
			"platform: worker %q report is from epoch %d (serving %d); a fresh report is required",
			req.WorkerID, s.tab.reportEpoch(slot), s.pub.Epoch)
		return refusal(&Error{Code: CodeStaleEpoch, Message: reason, Epoch: s.pub.Epoch, Retryable: true})
	}
	// Hand the completed unit back at the reported leaf: in place while the
	// slot still pools units, by re-insert once its last one was taken. A
	// refused engine call leaves the worker as it was, so the client can retry.
	if err := s.eng.AddCapacityEpoch(s.tab.code(slot, &s.codeBuf), slot, s.pub.Epoch); err != nil {
		return refusal(AsError(err, s.pub.Epoch))
	}
	s.tab.addActive(slot, -1)
	rec.setState(stateAvailable)
	s.released++
	return RegisterResponse{OK: true, Epoch: s.pub.Epoch}
}

// move carries out a fresh report at code for the worker holding slot,
// handing back extra completed tasks with it: 1 for a Release with a code,
// 0 for a Reregister. The worker moves wholesale in one engine call, which
// moves the units the engine still pools, not capacity−active: a concurrent
// Submit may have popped a unit it has not booked under mu yet, and
// counting it again would let the worker serve beyond its capacity. A
// worker that cannot afford the report is parked — its pooled units pulled,
// the extra tasks closed — rather than re-noised past its guarantee. A
// refused engine call leaves the worker as it was and the budget
// uncharged, so the client can retry. The caller holds mu and checked code.
func (s *Server) move(slot int, rec *record, workerID string, code hst.Code, extra int) RegisterResponse {
	var from hst.Code
	if rec.state() == stateAvailable {
		from = s.tab.code(slot, &s.codeBuf)
	}
	if rec.reports() >= s.maxReports {
		if from != "" {
			s.eng.RemoveUnits(from, slot)
		}
		s.tab.addActive(slot, -int32(extra))
		rec.setState(stateParked)
		s.parked++
		return refusal(parkedError(workerID))
	}
	_, err := s.eng.RelocateEpoch(from, code, slot, extra, s.pub.Epoch)
	if err == hst.ErrNoItem {
		// A concurrent Submit popped the worker's last unit between its
		// engine pop and its table update (which waits on mu): the
		// assignment wins.
		return refusal(conflictError(fmt.Sprintf("platform: worker %q already assigned", workerID)))
	}
	if err != nil {
		return refusal(AsError(err, s.pub.Epoch))
	}
	s.tab.addActive(slot, -int32(extra))
	s.released += extra
	rec.setState(stateAvailable)
	s.tab.setCode(slot, code)
	s.charge(rec)
	return RegisterResponse{OK: true, Epoch: s.pub.Epoch}
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
	switch rec.state() {
	case stateGone, stateAssignedGone:
		return refusal(conflictError(fmt.Sprintf("platform: worker %q has already withdrawn", req.WorkerID)))
	case stateParked:
		return refusal(parkedError(req.WorkerID))
	case stateAssigned:
		rec.setState(stateAssignedGone)
	default: // stateAvailable
		// The worker observed itself available and is told it is offline,
		// so the withdrawal must win every race: when a concurrent Submit
		// popped the worker but has not recorded the assignment yet
		// (eng.RemoveUnits fails), marking the stint over makes that pop
		// stale and the Submit retries another worker. A capacitated worker
		// with outstanding tasks keeps serving them (its spare units leave
		// the pool now) and goes fully offline at its last Release.
		s.eng.RemoveUnits(s.tab.code(slot, &s.codeBuf), slot)
		if s.tab.units(slot).active > 0 {
			rec.setState(stateAssignedGone)
		} else {
			rec.setState(stateGone)
		}
	}
	s.withdrawn++
	return RegisterResponse{OK: true}
}

// charge books one accepted fresh report on the record's ledger cell, under
// mu, once whatever could refuse the report has accepted it — so a refused
// report charges nothing. The caller checked the cell is below maxReports.
// Without a lifetime budget nothing is counted.
func (s *Server) charge(rec *record) {
	if s.lifetime == 0 {
		return
	}
	if rec.reports() == 0 {
		s.agents++
	}
	s.spent += s.pub.Epsilon
	rec.setReports(rec.reports() + 1)
}

// Spent returns the lifetime ε the worker has consumed so far: ε times the
// reports its ledger cell counts, or its departed-ledger entry when a
// rotation compacted it out of the table (0 without a lifetime budget, or
// for an unknown id).
func (s *Server) Spent(workerID string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	reports := s.departed[workerID]
	if slot, ok := s.tab.lookup(workerID); ok {
		reports = s.tab.at(slot).reports()
	}
	return float64(reports) * s.pub.Epsilon
}

// Stats reports the server's counters.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	mean := 0.0
	if s.assigned > 0 {
		mean = float64(s.levelSum) / float64(s.assigned)
	}
	return StatsResponse{
		RegisteredWorkers: s.registered,
		AvailableWorkers:  s.eng.Len(),
		Policy:            s.eng.Policy().Name(),
		DefaultCapacity:   s.eng.DefaultCapacity(),
		CapacityUnits:     s.eng.CapacityUnits(),
		BatchWindows:      s.eng.Windows(),
		AssignedTasks:     s.assigned,
		RejectedTasks:     s.rejected,
		ReleasedWorkers:   s.released,
		WithdrawnWorkers:  s.withdrawn,
		MatchLevelCounts:  append([]int(nil), s.levelCounts...),
		MeanMatchLevel:    mean,
		Epoch:             s.pub.Epoch,
		Rotations:         s.rotations,
		RotatedWorkers:    s.rotated,
		ParkedWorkers:     s.parked,
		DroppedWorkers:    s.dropped,
		BudgetLimit:       s.lifetime,
		BudgetSpentTotal:  s.spent,
		BudgetedAgents:    s.agents,
		SlotTableLen:      s.tab.len(),
		RegistryBytes:     s.tab.bytes(),
		DepartedLedgerIDs: len(s.departed),
	}
}
