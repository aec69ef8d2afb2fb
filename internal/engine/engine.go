// Package engine provides a sharded, concurrency-safe HST assignment
// engine: the online greedy of Alg. 4 behind an API that many goroutines
// can drive at once without funnelling through one global lock.
//
// The leaf-code trie is sharded by top-level HST branch: workers whose
// obfuscated codes start with digit d live in shard d mod S, each shard
// owning its own hst.LeafIndex and mutex. Because every leaf sharing at
// least the first digit with a query lives in the query's own shard, a
// task's tree-nearest worker at any LCA level below the root is found
// entirely inside that shard — disjoint traffic never contends. Only when
// the query's shard holds no worker in the query's top-level branch (the
// nearest worker sits at the maximal LCA level D, where every available
// worker is equidistant) does the engine take the slow path that locks all
// shards in order and picks the globally smallest id.
//
// Tie-breaking is everywhere towards the smallest worker id, which makes a
// sequentially driven Engine assignment-for-assignment identical to the
// paper-faithful scanning matcher (match.HSTGreedyScan). Under concurrent
// use the interleaving of requests is arbitrary — exactly the freedom the
// online model grants — and every individual answer is still tree-nearest
// among the workers available at that instant.
//
// # Epochs
//
// A long-lived deployment periodically republishes the tree and re-noises
// the live population (sequential composition spends budget on every fresh
// report). The engine supports this as an atomic epoch swap: everything
// that must change together — the tree, its shard set, and the epoch id
// stamping them — lives in one immutable epochState behind an atomic
// pointer. SwapEpoch builds the next state fully populated off to the
// side while the current epoch keeps serving, then acquires every old
// shard lock and publishes the new pointer, so each operation lands
// entirely in one epoch or the other, never straddling both. Mutating
// operations re-check the pointer after locking their shard and retry on
// the new state when a swap won; an Assign that popped from the old state
// just before the swap returns a stamp from the old epoch, which the
// serving layer detects (the worker's slot was superseded) and retries —
// the same staleness rule that governs withdraw races.
//
// Sharding and epoch swapping are pure server-side post-processing of
// already-obfuscated reports, so the privacy guarantee (Theorem 1) is
// untouched.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

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

// DefaultShards is the shard count used when a caller passes 0: enough to
// spread top-level branches without making the cross-shard fallback scan
// long. New rounds it to the sharding scheme's grid (see newEpochState).
const DefaultShards = 8

// cacheLine is the padding quantum for per-shard state: one shard must
// never share a line with its neighbour, or the shard locks ping-pong the
// line between cores and "independent" shards contend anyway.
const cacheLine = 64

// Engine is a sharded concurrent assignment engine over one published HST
// per epoch. All methods are safe for concurrent use.
//
// The assignment decision itself is pluggable: a Policy owns the rule that
// pairs each task with a worker (see policy.go). The default Greedy policy
// is the paper's rule exactly; capacity-aware policies let one worker slot
// carry several capacity units, and the batch-optimal policy serves whole
// windows through a restricted min-cost matching.
type Engine struct {
	// state holds everything that swaps atomically at an epoch rotation.
	// Reads are lock-free; mutators validate the pointer again under their
	// shard lock (see op comments) so no operation ever lands in a state
	// that has been swapped out.
	state atomic.Pointer[epochState]
	// swapMu serialises SwapEpoch calls only; serving ops never take it.
	swapMu sync.Mutex

	// policy and defaultCap are fixed at construction: the assignment rule
	// and the capacity an Insert without an explicit capacity receives.
	policy     Policy
	defaultCap int
	// windows counts the batch windows served through a window-solving
	// policy (monitoring only; greedy batch serving does not count). It is
	// padded onto its own cache line: the state pointer above is read on
	// every operation by every goroutine, and a counter bump sharing that
	// line would invalidate it fleet-wide once per window.
	windows paddedCounter
}

// paddedCounter is an atomic counter alone on its cache line, so bumping
// it cannot steal the line under a hot read-mostly neighbour.
type paddedCounter struct {
	_ [cacheLine]byte
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// epochState is one epoch's immutable identity (id, tree, shard geometry)
// plus its mutable shard set. It is never mutated after being swapped out.
type epochState struct {
	epoch  int64
	tree   *hst.Tree
	layout Layout
	shards []engineShard
}

// shardData is one shard's payload: its lock, its trie, and monitoring
// counters that are only ever touched under mu (plain fields, not atomics,
// so bumping them costs nothing beyond the lock already held).
type shardData struct {
	mu    sync.Mutex
	index *hst.LeafIndex

	// assigns counts pops served from this shard's trie; fallbacks counts
	// tasks homed here whose own-shard probe came up empty and went to the
	// cross-shard path. A high fallback share on one shard is the load-
	// imbalance signal that says re-shard (or re-noise) that branch.
	assigns   int64
	fallbacks int64
}

// engineShard pads shardData to a cache-line multiple. The bare struct is
// well under one line, so an unpadded []engineShard packs several shard
// locks per 64-byte line and "independent" shards false-share: every lock
// acquisition bounces its neighbours' line. The pad is computed, not
// hand-counted, so a field added to shardData cannot silently misalign the
// array — and it leads, because it is [0]byte exactly when the payload is
// already a line multiple, and Go rounds a struct that *ends* in a
// zero-size field up by a word (576 bytes came out 584).
type engineShard struct {
	_ [(cacheLine - unsafe.Sizeof(shardData{})%cacheLine) % cacheLine]byte
	shardData
}

// Layout is the engine's shard geometry for a (tree, shard count) pair:
// how many shards there are and how codes map to them. It is the single
// statement of the sharding scheme — an epoch's state carries one, and a
// cluster coordinator mirrors shard placement from the same value without
// building a state (its routing view, how shards group onto nodes, is in
// cluster.go).
type Layout struct {
	// Shards is the effective shard count after rounding (see New).
	Shards int
	// Degree and Depth echo the tree.
	Degree int
	Depth  int
	// Sub is the second-digit split factor: shard (d0, t) holds the workers
	// whose codes start with digit d0 and whose second digit is ≡ t mod Sub,
	// at index d0 + Degree·t. Sub == 1 is plain top-branch sharding.
	Sub int
}

// LayoutFor rounds a requested shard count to the sharding grid the tree
// supports, exactly as New documents.
func LayoutFor(tree *hst.Tree, shards int) Layout {
	if shards <= 0 {
		shards = DefaultShards
	}
	l := Layout{Degree: tree.Degree(), Depth: tree.Depth(), Sub: 1}
	if l.Depth == 0 || l.Degree == 0 {
		shards = 1
	}
	if l.Degree > 0 && l.Depth > 0 && shards > l.Degree {
		// More shards requested than top branches: split every top branch
		// into Sub second-digit groups (needs two digits to exist). Sub is
		// capped at the degree — beyond that a third digit would be needed —
		// and the count rounds down to the full degree×Sub grid so every
		// (first digit, second-digit group) pair owns exactly one shard.
		if l.Depth >= 2 {
			l.Sub = min(shards/l.Degree, l.Degree)
		}
		shards = l.Degree * l.Sub
	}
	l.Shards = shards
	return l
}

// ShardIdx returns the shard owning a code.
func (l Layout) ShardIdx(code hst.Code) int {
	if l.Depth == 0 || l.Shards == 1 {
		return 0
	}
	if l.Sub > 1 {
		return int(code[0]) + l.Degree*(int(code[1])%l.Sub)
	}
	return int(code[0]) % l.Shards
}

// newEpochState builds a shard set for the tree, rounding the shard count
// exactly as New documents.
func newEpochState(epoch int64, tree *hst.Tree, shards int) *epochState {
	l := LayoutFor(tree, shards)
	st := &epochState{epoch: epoch, tree: tree, layout: l, shards: make([]engineShard, l.Shards)}
	for i := range st.shards {
		st.shards[i].index = hst.NewLeafIndexDegree(l.Depth, l.Degree)
	}
	return st
}

// ownLimit is the deepest LCA level a query's own shard can fully resolve:
// every worker within this level of any query lives in the query's shard.
// Plain top-branch sharding owns everything below the root; a sub-sharded
// state owns everything below the second level, because workers sharing
// only the first digit may sit in a sibling sub-shard.
func (st *epochState) ownLimit() int {
	if st.layout.Sub > 1 {
		return st.layout.Depth - 2
	}
	return st.layout.Depth - 1
}

// lockAll takes every shard lock in index order — the single lock order in
// the package, so a one-shard hold and an all-shards hold cannot deadlock.
// A caller that loaded st before locking re-checks e.state afterwards: an
// epoch swap publishes under these same locks, so a changed pointer means
// the swap won and the operation retries on the new state.
func (st *epochState) lockAll() {
	for i := range st.shards {
		st.shards[i].mu.Lock()
	}
}

func (st *epochState) unlockAll() {
	for i := range st.shards {
		st.shards[i].mu.Unlock()
	}
}

// Option customises engine construction beyond the tree and shard count.
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

// New returns an engine for the published tree with the given shard count,
// serving FirstEpoch under the Greedy policy. Shards ≤ 0 selects
// DefaultShards. Counts up to the tree's degree shard by top-level branch;
// a count beyond the degree splits hot top branches by their second digit
// (rounded down to a full degree×sub grid, capped at degree², and requiring
// depth ≥ 2), so shard count can exceed tree degree on deep trees. Trees of
// depth 0 always serve from a single shard.
func New(tree *hst.Tree, shards int) (*Engine, error) {
	return NewWithOptions(tree, shards)
}

// NewWithOptions is New with a policy and capacity configuration.
func NewWithOptions(tree *hst.Tree, shards int, opts ...Option) (*Engine, error) {
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
	e.state.Store(newEpochState(FirstEpoch, tree, shards))
	return e, nil
}

// Tree returns the published HST of the epoch the engine currently serves.
func (e *Engine) Tree() *hst.Tree { return e.state.Load().tree }

// Shards returns the current shard count.
func (e *Engine) Shards() int { return len(e.state.Load().shards) }

// Epoch returns the id of the epoch currently being served.
func (e *Engine) Epoch() int64 { return e.state.Load().epoch }

// Policy returns the engine's assignment policy.
func (e *Engine) Policy() Policy { return e.policy }

// DefaultCapacity returns the capacity an Insert without an explicit
// capacity receives.
func (e *Engine) DefaultCapacity() int { return e.defaultCap }

// Windows returns the number of batch windows served through a
// window-solving policy.
func (e *Engine) Windows() int64 { return e.windows.n.Load() }

// ShardStat is one shard's monitoring counters.
type ShardStat struct {
	// Assigns counts pops served from the shard's trie (fast path, batch,
	// and cross-shard resolutions that landed here).
	Assigns int64
	// Fallbacks counts tasks homed on this shard whose own-shard probe came
	// up empty and escalated to the cross-shard path.
	Fallbacks int64
}

// ShardStats returns per-shard assign/fallback counters for the current
// epoch, for monitoring and load inspection. Counters reset at an epoch
// swap (they live with the epoch's shard set).
func (e *Engine) ShardStats() []ShardStat {
	st := e.state.Load()
	out := make([]ShardStat, len(st.shards))
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		out[i] = ShardStat{Assigns: s.assigns, Fallbacks: s.fallbacks}
		s.mu.Unlock()
	}
	return out
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

func (st *epochState) shardOf(code hst.Code) *engineShard {
	return &st.shards[st.layout.ShardIdx(code)]
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

// SwapEpoch atomically replaces the serving state: a fresh shard set over
// tree, pre-populated with inserts (the re-obfuscated population) and
// stamped with the given epoch id, which must exceed the current one.
// The new state is built entirely off to the side — the current epoch
// keeps serving throughout — and published with one pointer store while
// every old shard lock is held, so no operation ever straddles epochs.
// Shards ≤ 0 keeps the current shard count (re-clamped to the new tree).
//
// Workers of the old epoch that are not in inserts are dropped: their old
// codes are meaningless under the new tree, and it is the rotation
// controller's job to have re-obfuscated (or parked) them.
//
// Of the two swap entries this is the one that builds beside: it is
// PrepareSwapSeq over the slice followed by CommitSwap, so peak memory is
// two populations and serving never pauses. SwapEpochSeq (swapseq.go) is
// the one that freezes and rebuilds in place.
func (e *Engine) SwapEpoch(epoch int64, tree *hst.Tree, shards int, inserts []EpochInsert) error {
	i := 0
	p, err := e.PrepareSwapSeq(epoch, tree, shards, func() (EpochInsert, bool, error) {
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
func (e *Engine) PrepareSwapSeq(epoch int64, tree *hst.Tree, shards int, next func() (EpochInsert, bool, error)) (*PreparedSwap, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	if tree == nil {
		return nil, errors.New("engine: nil tree")
	}
	old := e.state.Load()
	if epoch <= old.epoch {
		return nil, fmt.Errorf("engine: swap to epoch %d, already serving %d", epoch, old.epoch)
	}
	if shards <= 0 {
		shards = len(old.shards)
	}
	st := newEpochState(epoch, tree, shards)
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
		if err := st.shardOf(in.Code).index.InsertCap(in.Code, in.ID, e.effCap(in.Cap)); err != nil {
			return nil, fmt.Errorf("engine: swap insert %d: %w", in.ID, err)
		}
	}
}

// CommitSwap publishes a prepared state, atomically replacing the serving
// epoch.
func (e *Engine) CommitSwap(p *PreparedSwap) error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	old := e.state.Load()
	if p.st.epoch <= old.epoch {
		return fmt.Errorf("engine: swap to epoch %d, already serving %d", p.st.epoch, old.epoch)
	}
	// Holding every old shard lock while storing the pointer guarantees
	// that each in-flight mutator either completed on the old state before
	// the swap or will observe the new pointer when it re-checks under its
	// shard lock and retry there.
	old.lockAll()
	e.state.Store(p.st)
	old.unlockAll()
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
	for {
		st := e.state.Load()
		if epoch != 0 && st.epoch != epoch {
			return fmt.Errorf("%w (insert for epoch %d, serving %d)", ErrStaleEpoch, epoch, st.epoch)
		}
		if err := st.tree.CheckCode(code); err != nil {
			return err
		}
		s := st.shardOf(code)
		s.mu.Lock()
		if e.state.Load() != st {
			s.mu.Unlock()
			continue // swapped while waiting for the lock; retry on the new state
		}
		err := s.index.InsertCap(code, id, e.effCap(capacity))
		s.mu.Unlock()
		return err
	}
}

// AddCapacity returns one capacity unit to the worker id at the given code
// in the current epoch: the inverse of a single pop. A slot still in the
// pool gains a unit in place; a fully consumed (hence removed) slot is
// re-inserted with one unit; a slot already at the index's 2³¹−1 unit
// ceiling refuses with hst.ErrUnitsOverflow and nothing changes. The serving
// layer uses it to undo stale pops and to return a capacitated worker's unit
// when a task completes.
func (e *Engine) AddCapacity(code hst.Code, id int) error {
	return e.AddCapacityEpoch(code, id, 0)
}

// AddCapacityEpoch is AddCapacity pinned to an epoch (0 accepts whatever is
// being served).
func (e *Engine) AddCapacityEpoch(code hst.Code, id int, epoch int64) error {
	for {
		st := e.state.Load()
		if epoch != 0 && st.epoch != epoch {
			return fmt.Errorf("%w (capacity return for epoch %d, serving %d)", ErrStaleEpoch, epoch, st.epoch)
		}
		if err := st.tree.CheckCode(code); err != nil {
			return err
		}
		s := st.shardOf(code)
		s.mu.Lock()
		if e.state.Load() != st {
			s.mu.Unlock()
			continue
		}
		err := returnUnit(s.index, code, id)
		s.mu.Unlock()
		return err
	}
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
// pooled. Callers relocating a live worker (a Release re-reporting a fresh
// leaf) must size the re-insert from this ground truth, not from their own
// accounting: a concurrent Assign may have consumed a unit whose pop has
// not been recorded yet, and re-inserting it would let the worker serve
// beyond its capacity.
func (e *Engine) RemoveUnits(code hst.Code, id int) (units int, ok bool) {
	for {
		st := e.state.Load()
		if st.tree.CheckCode(code) != nil {
			return 0, false
		}
		s := st.shardOf(code)
		s.mu.Lock()
		if e.state.Load() != st {
			s.mu.Unlock()
			continue
		}
		units, ok = s.index.RemoveUnits(code, id)
		s.mu.Unlock()
		return units, ok
	}
}

// Len returns the number of available workers in the current epoch.
func (e *Engine) Len() int {
	st := e.state.Load()
	n := 0
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		n += s.index.Len()
		s.mu.Unlock()
	}
	return n
}

// CapacityUnits returns the total remaining capacity across available
// workers in the current epoch. Equal to Len for a capacity-1 population.
func (e *Engine) CapacityUnits() int {
	st := e.state.Load()
	n := 0
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		n += s.index.Units()
		s.mu.Unlock()
	}
	return n
}

// Occupancy returns the number of available workers per shard, for
// monitoring and load inspection.
func (e *Engine) Occupancy() []int {
	st := e.state.Load()
	occ := make([]int, len(st.shards))
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		occ[i] = s.index.Len()
		s.mu.Unlock()
	}
	return occ
}

// Walk visits every available (code, id) pair of the current epoch, one
// shard at a time. The view is consistent only when writers are quiesced;
// it exists for audits of the population, not for serving decisions.
func (e *Engine) Walk(fn func(code hst.Code, id int)) {
	e.WalkCap(func(code hst.Code, id, _ int) { fn(code, id) })
}

// WalkCap is Walk carrying each worker's remaining capacity, so an audit
// of a capacitated population sees its unconsumed units.
func (e *Engine) WalkCap(fn func(code hst.Code, id, capacity int)) {
	st := e.state.Load()
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		s.index.WalkCap(fn)
		s.mu.Unlock()
	}
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
// tree-nearest available worker, fast-pathing the task's own shard.
func (e *Engine) greedyAssignOne(code hst.Code) (id, lcaLevel int, epoch int64, ok bool) {
	for {
		st := e.state.Load()
		if st.tree.CheckCode(code) != nil {
			return None, 0, st.epoch, false
		}
		if st.layout.Depth > 0 {
			s := st.shardOf(code)
			s.mu.Lock()
			if e.state.Load() != st {
				s.mu.Unlock()
				continue
			}
			id, lvl, ok := s.index.PopNearestWithin(code, st.ownLimit())
			if ok {
				s.assigns++
			} else {
				s.fallbacks++
			}
			s.mu.Unlock()
			if ok {
				return id, lvl, st.epoch, true
			}
		}
		id, lvl, ok, swapped := e.assignAcross(st, code)
		if swapped {
			continue
		}
		return id, lvl, st.epoch, ok
	}
}

// assignAcross is the slow path: the query's own shard holds no worker
// within its ownLimit, so the nearest worker sits at a level the shard
// cannot resolve alone. It runs under every shard lock; swapped reports
// that an epoch swap beat the lock acquisition and the caller must retry
// against the new state.
//
// Under plain sharding there is one escalation tier: every worker outside
// the own shard's reach is at the maximal level and the globally smallest
// id wins. Under sub-sharding there are two: workers sharing the query's
// top digit live spread across the sub sibling sub-shards — all at level
// depth−1 exactly, since anything deeper would be in the own shard — and
// only when that whole group is empty does the root tier (level depth,
// global minimum id) decide.
func (e *Engine) assignAcross(st *epochState, code hst.Code) (id, lcaLevel int, ok, swapped bool) {
	st.lockAll()
	defer st.unlockAll()
	if e.state.Load() != st {
		return None, 0, false, true
	}
	if id, lvl, ok := st.popSubtree(code); ok {
		return id, lvl, true, false
	}
	if id, ok := st.popMinOf(0, 1, len(st.shards)); ok {
		return id, st.layout.Depth, true, false
	}
	return None, 0, false, false
}

// popSubtree runs the slow path's tiers below the root, the ones that never
// look past the query's top branch. Caller holds every shard lock.
func (st *epochState) popSubtree(code hst.Code) (id, lcaLevel int, ok bool) {
	if st.layout.Depth == 0 {
		return None, 0, false // no branches to own: everything is the root tier
	}
	// The own shard may have gained a closer worker since the fast path
	// gave up; re-check it now that the state is frozen.
	own := st.shardOf(code)
	if id, lvl, ok := own.index.PopNearestWithin(code, st.ownLimit()); ok {
		own.assigns++
		return id, lvl, true
	}
	if st.layout.Sub > 1 {
		// Top-digit tier: the sibling sub-shards of the query's top branch
		// hold exactly the workers whose codes start with the query's first
		// digit, every one of them at level depth−1 (a deeper match would
		// have been popped by the own-shard re-check above).
		if id, ok := st.popMinOf(int(code[0]), st.layout.Degree, st.layout.Sub); ok {
			return id, st.layout.Depth - 1, true
		}
	}
	return None, 0, false
}

// minShardOf scans the n shards first, first+stride, … for the smallest
// available worker id: every worker a tier reaches is equidistant from the
// task, so only the minimum id matters. shard is -1 when they are all
// empty. Caller holds the scanned shards' locks.
func (st *epochState) minShardOf(first, stride, n int) (shard, id int) {
	shard, id = -1, None
	for t := 0; t < n; t++ {
		si := first + stride*t
		if m, ok := st.shards[si].index.MinID(); ok && (shard < 0 || m < id) {
			shard, id = si, m
		}
	}
	return shard, id
}

// popMinOf pops the worker minShardOf elects.
func (st *epochState) popMinOf(first, stride, n int) (id int, ok bool) {
	si, _ := st.minShardOf(first, stride, n)
	if si < 0 {
		return None, false
	}
	st.shards[si].assigns++
	return st.shards[si].index.PopMin()
}

// AssignBatch assigns a batch of task codes through the engine's policy.
// The results hold one worker id (or None) per task together with the LCA
// level of each match (0 for unassigned tasks), so batch callers can keep
// the same match-quality statistics as the one-by-one path. Under the
// greedy policies the outcome is exactly the outcome of calling Assign
// sequentially on each code, with shard locking amortised across runs of
// tasks that hit the same shard; a window-solving policy (batch-optimal)
// instead serves each BatchWindowSize tasks as one restricted min-cost
// matching, window after window.
//
// Under no policy is a batch atomic against other writers or a rotation:
// inserts, removals and an epoch swap can land between two of its shard
// lock sessions (between two windows of a long batch-optimal batch), and
// the ids answered after a swap are the new epoch's. A caller that reads
// the ids against one epoch must exclude rotation itself for the length
// of the call, as platform.Server's gate does.
func (e *Engine) AssignBatch(codes []hst.Code) (ids, lcaLevels []int) {
	return e.policy.assignWindow(e, codes)
}

// greedyAssignWindow is the greedy policies' batch path. Batches large
// enough to amortise grouping go through the shard-routed parallel path
// (batch.go), which serves each shard's tasks under one lock acquisition
// — on separate goroutines when cores allow — and resolves cross-shard
// fallbacks to the exact sequential outcome. Small batches (and engines
// with no routing structure) keep the sequential walk below, with shard
// locks amortised across same-shard runs. Both paths return bit-identical
// results when writers are quiesced.
func (e *Engine) greedyAssignWindow(codes []hst.Code) (ids, lcaLevels []int) {
	if len(codes) >= batchRouteThreshold {
		if st := e.state.Load(); len(st.shards) > 1 && st.layout.Depth > 0 {
			return e.routedAssignWindow(codes)
		}
	}
	ids = make([]int, len(codes))
	lcaLevels = make([]int, len(codes))
	var held *engineShard
	release := func() {
		if held != nil {
			held.mu.Unlock()
			held = nil
		}
	}
	defer release()
	for i, code := range codes {
	retry:
		st := e.state.Load()
		if st.tree.CheckCode(code) != nil {
			ids[i] = None
			continue
		}
		if st.layout.Depth > 0 {
			s := st.shardOf(code)
			if s != held {
				release()
				s.mu.Lock()
				held = s
			}
			if e.state.Load() != st {
				// An epoch swap landed between loading the state and taking
				// (or reusing) the shard lock: the held shard belongs to the
				// old epoch. Drop it and redo this task on the new state.
				release()
				goto retry
			}
			if id, lvl, ok := held.index.PopNearestWithin(code, st.ownLimit()); ok {
				held.assigns++
				ids[i], lcaLevels[i] = id, lvl
				continue
			}
			held.fallbacks++
		}
		// Fall back without holding any shard lock.
		release()
		id, lvl, ok, swapped := e.assignAcross(st, code)
		if swapped {
			goto retry
		}
		if ok {
			ids[i], lcaLevels[i] = id, lvl
		} else {
			ids[i] = None
		}
	}
	return ids, lcaLevels
}
