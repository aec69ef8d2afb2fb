// Package engine provides a concurrency-safe HST assignment engine: the
// online greedy of Alg. 4 behind an API that many goroutines can drive at
// once.
//
// An epoch's available workers live in one hst.LeafIndex, keyed by their
// obfuscated leaf codes, under one mutex. A task is served by one
// nearest-leaf pop — the worker whose code shares the longest prefix with
// the task's — and every serving call takes the lock once: a greedy batch
// pops its tasks in order under one hold, and a batch-optimal window mines,
// solves and commits under one.
//
// Tie-breaking is everywhere towards the smallest worker id, which makes a
// sequentially driven Engine assignment-for-assignment identical to the
// paper-faithful scanning matcher (match.HSTGreedyScan). Under concurrent
// use the interleaving of requests is arbitrary — exactly the freedom the
// online model grants — and every individual answer is still tree-nearest
// among the workers available at that instant.
//
// A cluster node (internal/cluster) runs the same engine over the workers a
// coordinator routes to it, and answers the coordinator's pops, peeks and
// mines from those workers alone, at their true levels (cluster.go).
//
// # Epochs
//
// A long-lived deployment periodically republishes the tree and re-noises
// the live population (sequential composition spends budget on every fresh
// report). The engine supports this as an atomic epoch swap: everything
// that must change together — the tree, its index, and the epoch id
// stamping them — lives in one epochState behind an atomic pointer.
// SwapEpoch builds the next state fully populated off to the side while the
// current epoch keeps serving, then publishes the new pointer under the
// engine's lock, so each operation lands entirely in one epoch or the
// other, never straddling both. An Assign that popped from the old state
// just before the swap returns a stamp from the old epoch, which the
// serving layer detects (the worker's slot was superseded) and retries —
// the same staleness rule that governs withdraw races.
//
// Epoch swapping is pure server-side post-processing of already-obfuscated
// reports, so the privacy guarantee (Theorem 1) is untouched.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/pombm/pombm/internal/hst"
)

// None is returned by Assign and AssignBatch when no worker is available.
const None = -1

// FirstEpoch is the epoch id a freshly constructed engine serves.
const FirstEpoch = 1

// ErrStaleEpoch is returned by epoch-pinned mutations when the engine has
// rotated past the caller's epoch: the caller's code was obfuscated under
// a tree that is no longer being served.
var ErrStaleEpoch = errors.New("engine: epoch rotated")

// Engine is a concurrent assignment engine over one published HST per
// epoch. All methods are safe for concurrent use.
//
// The assignment decision itself is pluggable: a Policy owns the rule that
// pairs each task with a worker (see policy.go). The default Greedy policy
// is the paper's rule exactly; capacity-aware policies let one worker slot
// carry several capacity units, and the batch-optimal policy serves whole
// windows through a restricted min-cost matching.
type Engine struct {
	// mu guards the serving state's index and counters. A swap publishes the
	// next state under it, so a call that loaded the state and then took mu
	// checks that the state is still the one served (see lock).
	mu sync.Mutex
	// state holds everything that swaps atomically at an epoch rotation.
	// Tree and Epoch read it without the lock.
	state atomic.Pointer[epochState]
	// swapMu serialises SwapEpoch calls only; serving ops never take it.
	swapMu sync.Mutex

	// policy and defaultCap are fixed at construction: the assignment rule
	// and the capacity an Insert without an explicit capacity receives.
	policy     Policy
	defaultCap int
	// windows counts the batch windows served through a window-solving
	// policy (monitoring only; greedy batch serving does not count).
	windows atomic.Int64
}

// epochState is one epoch's identity (id, tree) and its index. Only the
// index and assigns change after the state is built, and only under the
// engine's lock while the state is served.
type epochState struct {
	epoch int64
	tree  *hst.Tree
	index *hst.LeafIndex
	// assigns counts the units this epoch's pops and window commits took.
	assigns int64
}

func newEpochState(epoch int64, tree *hst.Tree) *epochState {
	return &epochState{epoch: epoch, tree: tree, index: hst.NewLeafIndexDegree(tree.Depth(), tree.Degree())}
}

// lock takes the engine's lock for a call addressed to code and returns the
// serving state. A refusal leaves the lock free and returns the state it
// was decided against: ErrStaleEpoch, naming op, when a non-zero epoch pins
// a state the engine has rotated past, else the tree's verdict on the code.
// The code is checked before the lock is taken, so a swap that lands in
// between sends the call round again.
func (e *Engine) lock(op string, code hst.Code, epoch int64) (*epochState, error) {
	for {
		st := e.state.Load()
		if epoch != 0 && st.epoch != epoch {
			return st, fmt.Errorf("%w (%s for epoch %d, serving %d)", ErrStaleEpoch, op, epoch, st.epoch)
		}
		if err := st.tree.CheckCode(code); err != nil {
			return st, err
		}
		e.mu.Lock()
		if e.state.Load() == st {
			return st, nil
		}
		e.mu.Unlock()
	}
}

// locked takes the engine's lock and returns the serving state.
func (e *Engine) locked() *epochState {
	e.mu.Lock()
	return e.state.Load()
}

// lockEpoch is lock for a call that names no code.
func (e *Engine) lockEpoch(op string, epoch int64) (*epochState, error) {
	st := e.locked()
	if epoch != 0 && st.epoch != epoch {
		e.mu.Unlock()
		return st, fmt.Errorf("%w (%s for epoch %d, serving %d)", ErrStaleEpoch, op, epoch, st.epoch)
	}
	return st, nil
}

// Option customises engine construction beyond the tree.
type Option func(*engineConfig)

type engineConfig struct {
	policy     Policy
	defaultCap int
}

// WithPolicy selects the assignment policy (nil keeps the default Greedy).
func WithPolicy(p Policy) Option {
	return func(c *engineConfig) { c.policy = p }
}

// WithDefaultCapacity sets the capacity an Insert without an explicit
// capacity receives (default 1). Values above 1 require a capacity-aware
// policy.
func WithDefaultCapacity(n int) Option {
	return func(c *engineConfig) { c.defaultCap = n }
}

// New returns an engine for the published tree, serving FirstEpoch under
// the Greedy policy. The shard count is ignored: the engine is one index,
// and a cut of the population is a cluster coordinator's.
func New(tree *hst.Tree, shards int) (*Engine, error) {
	return NewWithOptions(tree, shards)
}

// NewWithOptions is New with a policy and capacity configuration.
func NewWithOptions(tree *hst.Tree, _ int, opts ...Option) (*Engine, error) {
	if tree == nil {
		return nil, errors.New("engine: nil tree")
	}
	cfg := engineConfig{defaultCap: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.policy == nil {
		cfg.policy = Greedy()
	}
	if cfg.defaultCap < 1 {
		return nil, fmt.Errorf("engine: default capacity %d must be positive", cfg.defaultCap)
	}
	if cfg.defaultCap > 1 && !cfg.policy.CapacityAware() {
		return nil, fmt.Errorf("engine: default capacity %d needs a capacity-aware policy, have %s",
			cfg.defaultCap, cfg.policy.Name())
	}
	e := &Engine{policy: cfg.policy, defaultCap: cfg.defaultCap}
	e.state.Store(newEpochState(FirstEpoch, tree))
	return e, nil
}

// Tree returns the published HST of the epoch the engine currently serves.
func (e *Engine) Tree() *hst.Tree { return e.state.Load().tree }

// Epoch returns the id of the epoch currently being served.
func (e *Engine) Epoch() int64 { return e.state.Load().epoch }

// Policy returns the engine's assignment policy.
func (e *Engine) Policy() Policy { return e.policy }

// DefaultCapacity returns the capacity an Insert without an explicit
// capacity receives.
func (e *Engine) DefaultCapacity() int { return e.defaultCap }

// Windows returns the number of batch windows served through a
// window-solving policy.
func (e *Engine) Windows() int64 { return e.windows.Load() }

// ShardStat is the engine's serving counters. ShardStats reports them as
// one row of a per-shard table, the shape its readers take.
type ShardStat struct {
	// Assigns counts the units taken from the index: pops, window commits
	// and a node's consumes.
	Assigns int64
	// Fallbacks is always 0: one index has no other shard to fall back to.
	Fallbacks int64
}

// ShardStats returns the current epoch's counters as one row, for
// monitoring. They reset at an epoch swap (they live with the epoch's
// state).
func (e *Engine) ShardStats() []ShardStat {
	st := e.locked()
	defer e.mu.Unlock()
	return []ShardStat{{Assigns: st.assigns}}
}

// effCap resolves an insert's effective capacity: non-positive selects the
// engine default, and any value is clamped to 1 unless the policy is
// capacity-aware — the greedy contract is that every slot serves one task.
func (e *Engine) effCap(capacity int) int {
	if !e.policy.CapacityAware() {
		return 1
	}
	if capacity <= 0 {
		return e.defaultCap
	}
	return capacity
}

// EpochInsert seeds one worker of a new epoch's population for SwapEpoch.
// Cap is the worker's remaining capacity; ≤ 0 selects the engine default
// (and, like every insert, it is clamped to 1 under a non-capacity-aware
// policy), so a capacitated worker carries its unconsumed units across a
// rotation.
type EpochInsert struct {
	Code hst.Code
	ID   int
	Cap  int
}

// SwapEpoch atomically replaces the serving state: a fresh index over tree,
// pre-populated with inserts (the re-obfuscated population) and stamped
// with the given epoch id, which must exceed the current one. The new state
// is built entirely off to the side — the current epoch keeps serving
// throughout — and published with one pointer store under the engine's
// lock, so no operation ever straddles epochs. The shard count is ignored,
// as New's is.
//
// Workers of the old epoch that are not in inserts are dropped: their old
// codes are meaningless under the new tree, and it is the rotating
// caller's job to have re-obfuscated (or parked) them.
//
// Of the two swap entries this is the one that builds beside: it is
// PrepareSwapSeq over the slice followed by CommitSwap, so peak memory is
// two populations and serving never pauses. SwapEpochSeq (swapseq.go) is
// the one that freezes and rebuilds in place.
func (e *Engine) SwapEpoch(epoch int64, tree *hst.Tree, _ int, inserts []EpochInsert) error {
	i := 0
	p, err := e.PrepareSwapSeq(epoch, tree, func() (EpochInsert, bool, error) {
		if i == len(inserts) {
			return EpochInsert{}, false, nil
		}
		i++
		return inserts[i-1], true, nil
	})
	if err != nil {
		return err
	}
	return e.CommitSwap(p)
}

// PreparedSwap is a fully built next-epoch state staged by PrepareSwapSeq,
// waiting for CommitSwap (or to be dropped, which aborts it — it holds no
// locks and the serving state does not reference it).
type PreparedSwap struct {
	st *epochState
}

// Epoch returns the staged state's epoch id.
func (p *PreparedSwap) Epoch() int64 { return p.st.epoch }

// PrepareSwapSeq is the build half of SwapEpoch — the one build-beside
// loop — split out so a cluster coordinator can drive rotation as a
// distributed two-phase commit: every node prepares its partition of the
// new population while the old epoch keeps serving, and only when all
// prepares succeed does the coordinator commit each. The population
// arrives through a pull iterator: next returns the next insert, ok=false
// at the end of the stream, or an error (a node handler decoding inserts
// straight off the wire propagates its decode error here), so a
// multi-gigabyte prepare body is indexed entry by entry and never
// materialized. A prepare must remain abortable, so unlike SwapEpochSeq
// it cannot cannibalize the serving arenas. Any failure discards the
// partial state and leaves the serving epoch untouched. The epoch check
// here is advisory — CommitSwap re-checks under the swap lock — so a
// prepare staged before a competing swap simply fails at commit.
func (e *Engine) PrepareSwapSeq(epoch int64, tree *hst.Tree, next func() (EpochInsert, bool, error)) (*PreparedSwap, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	if tree == nil {
		return nil, errors.New("engine: nil tree")
	}
	if old := e.state.Load(); epoch <= old.epoch {
		return nil, fmt.Errorf("engine: swap to epoch %d, already serving %d", epoch, old.epoch)
	}
	st := newEpochState(epoch, tree)
	for {
		in, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return &PreparedSwap{st: st}, nil
		}
		if err := tree.CheckCode(in.Code); err != nil {
			return nil, fmt.Errorf("engine: swap insert %d: %w", in.ID, err)
		}
		if err := st.index.InsertCap(in.Code, in.ID, e.effCap(in.Cap)); err != nil {
			return nil, fmt.Errorf("engine: swap insert %d: %w", in.ID, err)
		}
	}
}

// CommitSwap publishes a prepared state, atomically replacing the serving
// epoch.
func (e *Engine) CommitSwap(p *PreparedSwap) error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	if old := e.state.Load(); p.st.epoch <= old.epoch {
		return fmt.Errorf("engine: swap to epoch %d, already serving %d", p.st.epoch, old.epoch)
	}
	// Storing under the lock guarantees that each in-flight call either
	// completed on the old state before the swap or will observe the new
	// pointer when it checks under the lock, and retry there.
	e.mu.Lock()
	e.state.Store(p.st)
	e.mu.Unlock()
	return nil
}

// Insert registers an available worker id at its obfuscated leaf code in
// the current epoch, with the engine's default capacity.
func (e *Engine) Insert(code hst.Code, id int) error {
	return e.InsertCapEpoch(code, id, 0, 0)
}

// InsertEpoch is Insert pinned to an epoch: when epoch is non-zero and the
// engine has rotated past it, the insert is refused with ErrStaleEpoch
// instead of landing a stale-tree code in the new index.
func (e *Engine) InsertEpoch(code hst.Code, id int, epoch int64) error {
	return e.InsertCapEpoch(code, id, 0, epoch)
}

// InsertCapEpoch is InsertEpoch with an explicit per-worker capacity:
// the slot serves that many tasks before leaving the pool. Capacity ≤ 0
// selects the engine default; any capacity is clamped to 1 unless the
// engine's policy is capacity-aware.
func (e *Engine) InsertCapEpoch(code hst.Code, id, capacity int, epoch int64) error {
	st, err := e.lock("insert", code, epoch)
	if err != nil {
		return err
	}
	err = st.index.InsertCap(code, id, e.effCap(capacity))
	e.mu.Unlock()
	return err
}

// AddCapacityEpoch returns one capacity unit to the worker id at the given
// code in the given epoch (0 accepts whatever is being served): the inverse
// of a single pop. A slot still in the pool gains a unit in place; a fully
// consumed (hence removed) slot is re-inserted with one unit; a slot already
// at the index's 2³¹−1 unit ceiling refuses with hst.ErrUnitsOverflow and
// nothing changes. The serving layer uses it to undo stale pops and to
// return a capacitated worker's unit when a task completes.
func (e *Engine) AddCapacityEpoch(code hst.Code, id int, epoch int64) error {
	st, err := e.lock("capacity return", code, epoch)
	if err != nil {
		return err
	}
	err = returnUnit(st.index, code, id)
	e.mu.Unlock()
	return err
}

// returnUnit hands one capacity unit back to worker id at code: in place
// while the item is live, by re-insert once its last unit was consumed. It is
// the one place that says which of the index's refusals means "re-insert" —
// an item saturated at 2³¹−1 units (hst.ErrUnitsOverflow) is live, and
// inserting would put a second item under its id.
func returnUnit(x *hst.LeafIndex, code hst.Code, id int) error {
	err := x.AddCap(code, id, 1)
	if err == hst.ErrNoItem {
		err = x.InsertCap(code, id, 1)
	}
	return err
}

// Remove withdraws a worker previously inserted at the given code. It
// reports whether the worker was still available in the current epoch.
func (e *Engine) Remove(code hst.Code, id int) bool {
	_, ok := e.RemoveUnits(code, id)
	return ok
}

// RemoveUnits is Remove reporting the capacity units the worker still had
// pooled: the ground truth, not its caller's accounting, since a concurrent
// Assign may have consumed a unit whose pop has not been recorded yet. A
// caller moving a live worker to a fresh leaf calls RelocateEpoch, which
// moves exactly these units under one hold of the lock.
func (e *Engine) RemoveUnits(code hst.Code, id int) (units int, ok bool) {
	st, err := e.lock("remove", code, 0)
	if err != nil {
		return 0, false
	}
	units, ok = st.index.RemoveUnits(code, id)
	e.mu.Unlock()
	return units, ok
}

// RelocateEpoch moves worker id's pooled units from code from to code to —
// a fresh report — and adds extra units (the task just completed), under
// one hold of the lock. It answers how many units the worker still had
// pooled at from: the ground truth RemoveUnits documents, since a concurrent
// Assign may have taken a unit its caller has not recorded. An empty from,
// or one that no longer holds id (an Assign took its last unit), puts extra
// units at to, or refuses with hst.ErrNoItem when extra is 0. Under a policy
// that is not capacity-aware the worker holds one unit wherever it lands, as
// InsertCapEpoch clamps. A refusal — a stale epoch, a malformed to, a full
// arena, units past the index's int32 range — changes nothing.
func (e *Engine) RelocateEpoch(from, to hst.Code, id, extra int, epoch int64) (pooled int, err error) {
	st, err := e.lock("relocate", to, epoch)
	if err != nil {
		return 0, err
	}
	add := extra
	if !e.policy.CapacityAware() {
		add = 0
	}
	pooled, err = st.index.MoveCap(from, to, id, add)
	if err == hst.ErrNoItem && extra > 0 {
		pooled, err = 0, st.index.InsertCap(to, id, e.effCap(extra))
	}
	e.mu.Unlock()
	return pooled, err
}

// Len returns the number of available workers in the current epoch.
func (e *Engine) Len() int {
	st := e.locked()
	defer e.mu.Unlock()
	return st.index.Len()
}

// CapacityUnits returns the total remaining capacity across available
// workers in the current epoch. Equal to Len for a capacity-1 population.
func (e *Engine) CapacityUnits() int {
	st := e.locked()
	defer e.mu.Unlock()
	return st.index.Units()
}

// Walk visits every available (code, id) pair of the current epoch under
// the engine's lock, so fn must not call back into the engine. It exists
// for audits of the population, not for serving decisions.
func (e *Engine) Walk(fn func(code hst.Code, id int)) {
	e.WalkCap(func(code hst.Code, id, _ int) { fn(code, id) })
}

// WalkCap is Walk carrying each worker's remaining capacity, so an audit
// of a capacitated population sees its unconsumed units.
func (e *Engine) WalkCap(fn func(code hst.Code, id, capacity int)) {
	st := e.locked()
	defer e.mu.Unlock()
	st.index.WalkCap(fn)
}

// Assign atomically finds, consumes, and returns an available worker for a
// task's obfuscated leaf code according to the engine's policy, together
// with the LCA level of the match. Under the default Greedy policy this is
// the tree-nearest available worker. ok is false when the code is malformed
// or no worker is available.
func (e *Engine) Assign(code hst.Code) (id, lcaLevel int, ok bool) {
	id, lcaLevel, _, ok = e.AssignEpoch(code)
	return id, lcaLevel, ok
}

// AssignEpoch is Assign stamped with the epoch that served the pop. A
// caller that tagged the task's code with the epoch it was obfuscated
// under compares the stamp and treats a mismatch as stale — the engine
// rotated between the task's obfuscation and its assignment.
func (e *Engine) AssignEpoch(code hst.Code) (id, lcaLevel int, epoch int64, ok bool) {
	return e.policy.assignOne(e, code)
}

// greedyAssignOne is the Greedy policy's one-task path: pop the
// tree-nearest available worker.
func (e *Engine) greedyAssignOne(code hst.Code) (id, lcaLevel int, epoch int64, ok bool) {
	st, err := e.lock("assign", code, 0)
	if err != nil {
		return None, 0, st.epoch, false
	}
	id, lcaLevel, ok = st.index.PopNearest(code)
	if ok {
		st.assigns++
	} else {
		id = None
	}
	e.mu.Unlock()
	return id, lcaLevel, st.epoch, ok
}

// AssignBatch assigns a batch of task codes through the engine's policy.
// The results hold one worker id (or None) per task together with the LCA
// level of each match (0 for unassigned tasks), so batch callers can keep
// the same match-quality statistics as the one-by-one path. Under the
// greedy policies the outcome is exactly the outcome of calling Assign
// sequentially on each code, under one hold of the engine's lock; a
// window-solving policy (batch-optimal) instead serves each
// BatchWindowSize tasks as one restricted min-cost matching, window after
// window, each under its own hold.
//
// Under no policy is a batch atomic against a rotation or, across windows,
// against other writers: an epoch swap can land between two windows of a
// long batch-optimal batch, and the ids answered after it are the new
// epoch's. A caller that reads the ids against one epoch must exclude
// rotation itself for the length of the call, as platform.Server's gate
// does.
func (e *Engine) AssignBatch(codes []hst.Code) (ids, lcaLevels []int) {
	return e.policy.assignWindow(e, codes)
}

// greedyAssignWindow is the greedy policies' batch path: the tasks pop in
// order under one hold of the lock.
func (e *Engine) greedyAssignWindow(codes []hst.Code) (ids, lcaLevels []int) {
	ids = make([]int, len(codes))
	lcaLevels = make([]int, len(codes))
	st := e.locked()
	defer e.mu.Unlock()
	tree, x, popped := st.tree, st.index, int64(0)
	for i, code := range codes {
		ids[i] = None
		if !tree.ValidCode(code) {
			continue
		}
		if id, lvl, ok := x.PopNearestWithin(code, tree.Depth()); ok {
			popped++
			ids[i], lcaLevels[i] = id, lvl
		}
	}
	st.assigns += popped
	return ids, lcaLevels
}
