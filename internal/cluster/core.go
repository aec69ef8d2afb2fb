package cluster

import (
	"cmp"
	"crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// fanCore is the coordinator's platform.Core: the same engine surface the
// serving layer drives single-node, fanned out across NodeConn backends.
// Put behind platform.WithCore, the whole serving stack — slot tables,
// budget accounting, rotation planning — runs verbatim above it, which is
// what pins the cluster bit-identical to the single-node deployment.
//
// Concurrency: routed single-worker operations (insert, remove, assign's
// fast path) run under a shared read lock — they are independent exactly
// when their codes route to different nodes. Anything whose answer spans
// nodes — a greedy election, a batch-optimal window, the two-phase epoch
// swap — takes the lock exclusively, making it atomic with respect to every
// other coordinator-driven mutation. Every node mutation flows
// through this core, so exclusivity here is global mutual exclusion.
type fanCore struct {
	nodes      []NodeConn
	policy     engine.Policy
	defaultCap int

	state atomic.Pointer[coreState]
	opMu  sync.RWMutex

	windows atomic.Int64

	// Idempotency keys are idemNonce + a sequence number: see nextIdem.
	idemNonce [6]byte
	idemSeq   atomic.Int64
}

// coreState is the epoch-scoped identity of the cluster: published tree
// and epoch id. Swapped with one pointer store at rotation commit, which
// also makes it the token the window kernel's warm potentials are pinned
// to.
type coreState struct {
	tree  *hst.Tree
	epoch int64
}

// errTransport is wrapped into transport failures by httpNode so the core
// can tell a dead backend from an application refusal.
var errTransport = errors.New("cluster: node transport failed")

// newFanCore builds the core and initialises every node with the shared
// configuration: the policy by its name, which PolicyByName reads back as
// the same policy.
func newFanCore(nodes []NodeConn, tree *hst.Tree, policy engine.Policy, defaultCap int) (*fanCore, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if defaultCap == 0 {
		defaultCap = 1
	}
	c := &fanCore{nodes: nodes, policy: policy, defaultCap: defaultCap}
	// Six base64url characters of the system's randomness (crypto/rand.Read
	// does not fail).
	var raw [6]byte
	var text [8]byte
	rand.Read(raw[:])
	base64.RawURLEncoding.Encode(text[:], raw[:])
	copy(c.idemNonce[:], text[:])
	c.state.Store(&coreState{tree: tree, epoch: engine.FirstEpoch})
	for i, n := range nodes {
		if err := n.Init(InitRequest{
			Tree: tree, Policy: policy.Name(), DefaultCapacity: defaultCap, Idem: c.nextIdem(),
		}); err != nil {
			return nil, fmt.Errorf("cluster: init node %d: %w", i, err)
		}
	}
	return c, nil
}

// nextIdem returns a fresh idempotency key: this incarnation's nonce, then
// the call's sequence number in base 36. The nonce is what keeps a
// coordinator that restarts over live nodes from being answered out of its
// predecessor's replay cache — the sequence starts over, the nodes' caches
// do not. A node retains the last 4,096–8,192 keys, so a key's size is
// memory: this one stays inside a 16-byte allocation for the first 36¹⁰
// calls.
func (c *fanCore) nextIdem() string {
	var buf [len(c.idemNonce) + 13]byte // 13 digits hold any int64 in base 36
	return string(strconv.AppendInt(append(buf[:0], c.idemNonce[:]...), c.idemSeq.Add(1), 36))
}

// route is the cut: the node of n that owns code is its first digit mod n.
// Every worker that shares a task's first digit — whose LCA with the task
// sits below the root — is on the task's node, which is the one other thing
// the coordinator knows of the cut: AssignErr's fast path pops within
// depth − 1. A published tree has depth ≥ 1, so every code has a first
// digit.
func route(code hst.Code, n int) int {
	return int(code[0]) % n
}

// routeIdx returns the node owning a code.
func (c *fanCore) routeIdx(code hst.Code) int {
	return route(code, len(c.nodes))
}

func isTransport(err error) bool {
	return errors.Is(err, errTransport)
}

// unavailable wraps a twice-failed backend call into the typed taxonomy.
func unavailable(nd int, err error) error {
	return &platform.Error{
		Code:      platform.CodeUnavailable,
		Message:   fmt.Sprintf("cluster: node %d unavailable: %v", nd, err),
		Retryable: true,
	}
}

// retry runs call, a request to node nd, under the transport-retry rule,
// stated once: on a transport failure (the request or its response was
// lost) it runs call once more — the same request, so the same idempotency
// key, and a mutation that did land replays from the node's cache instead
// of applying twice. What a second transport failure becomes is the
// caller's choice:
//
//   - escalate: the typed retryable unavailable refusal naming the node,
//     for calls whose failure is reported onward — insert, add-capacity, a
//     move's remove, pop, peek, prepare.
//   - otherwise the raw failure, for calls whose every error the caller
//     folds into its own outcome — RemoveUnits (answers not-found), mine (the
//     window answers unmatched), consume (the window rolls back), undo (a
//     lost unit panics), abort (best effort).
//
// Application refusals are never retried. Commit is the one call outside
// the rule: past the point of no return it gets three attempts.
func retry(nd int, escalate bool, call func() error) error {
	err := call()
	if isTransport(err) {
		if err = call(); escalate && isTransport(err) {
			err = unavailable(nd, err)
		}
	}
	return err
}

// do ships op to node nd under retry's rule.
func (c *fanCore) do(nd int, escalate bool, op OpRequest) (res OpResult, err error) {
	err = retry(nd, escalate, func() error {
		res, err = c.nodes[nd].Do(op)
		return err
	})
	return res, err
}

// fan runs call(i) for every i in [0, n) concurrently and returns once all
// have: a round over the nodes, or over a window's commits, takes as long
// as its slowest call, not the sum.
func fan(n int, call func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			call(i)
		}()
	}
	wg.Wait()
}

// Identity and configuration (platform.Core).

func (c *fanCore) Tree() *hst.Tree       { return c.state.Load().tree }
func (c *fanCore) Epoch() int64          { return c.state.Load().epoch }
func (c *fanCore) Policy() engine.Policy { return c.policy }
func (c *fanCore) DefaultCapacity() int  { return c.defaultCap }
func (c *fanCore) Windows() int64        { return c.windows.Load() }

// statusAll polls every node concurrently. Unreachable nodes yield the
// zero OpResult.
func (c *fanCore) statusAll() []OpResult {
	out := make([]OpResult, len(c.nodes))
	fan(len(c.nodes), func(nd int) { out[nd], _ = c.nodes[nd].Do(OpRequest{Kind: OpStatus}) })
	return out
}

// Len sums the available workers across reachable nodes.
func (c *fanCore) Len() int {
	c.opMu.RLock()
	defer c.opMu.RUnlock()
	n := 0
	for _, s := range c.statusAll() {
		n += s.Len
	}
	return n
}

// CapacityUnits sums remaining units across reachable nodes.
func (c *fanCore) CapacityUnits() int {
	c.opMu.RLock()
	defer c.opMu.RUnlock()
	n := 0
	for _, s := range c.statusAll() {
		n += s.Units
	}
	return n
}

// Routed mutations (platform.Core).

func (c *fanCore) InsertCapEpoch(code hst.Code, id, capacity int, epoch int64) error {
	_, err := c.routed(true, code, OpRequest{Kind: OpInsert, ID: id, Capacity: capacity, Epoch: epoch})
	return err
}

func (c *fanCore) AddCapacityEpoch(code hst.Code, id int, epoch int64) error {
	_, err := c.routed(true, code, OpRequest{Kind: OpAddCapacity, ID: id, Epoch: epoch})
	return err
}

// RemoveUnits answers a failure as not found: the zero OpResult.
func (c *fanCore) RemoveUnits(code hst.Code, id int) (units int, found bool) {
	res, _ := c.routed(false, code, OpRequest{Kind: OpRemove, ID: id})
	return res.Units, res.Found
}

// RelocateEpoch moves a worker as two routed ops — a remove at from (when
// from is non-empty), then an insert of the units it answered plus extra at
// to — since the two codes may route to different nodes. A remove that
// fails aborts the move with its error: one lost to the transport may have
// left the units at from, and inserting at to as well would pool the worker
// twice. A move of nothing refuses with hst.ErrNoItem, as on one engine. A
// refused insert puts the removed units back at from; if that is refused
// too there is nothing left to try.
func (c *fanCore) RelocateEpoch(from, to hst.Code, id, extra int, epoch int64) (pooled int, err error) {
	if from != "" {
		res, err := c.routed(true, from, OpRequest{Kind: OpRemove, ID: id})
		if err != nil {
			return 0, err
		}
		pooled = res.Units
	}
	if pooled+extra == 0 {
		return 0, hst.ErrNoItem
	}
	if err = c.InsertCapEpoch(to, id, pooled+extra, epoch); err != nil && pooled > 0 {
		_ = c.InsertCapEpoch(from, id, pooled, epoch)
	}
	return pooled, err
}

// routed ships op, a mutation of the worker at code under a fresh
// idempotency key, to the node owning the code, by do's retry rule. A code
// the tree does not have is refused here.
func (c *fanCore) routed(escalate bool, code hst.Code, op OpRequest) (OpResult, error) {
	c.opMu.RLock()
	defer c.opMu.RUnlock()
	st := c.state.Load()
	if err := st.tree.CheckCode(code); err != nil {
		return OpResult{}, err
	}
	op.Idem, op.Code = c.nextIdem(), bytesOf(string(code))
	return c.do(c.routeIdx(code), escalate, op)
}

// Assign runs the greedy rule across the cluster (platform.Core).
func (c *fanCore) Assign(code hst.Code) (int, int, bool) {
	id, lvl, ok, _ := c.AssignErr(code)
	return id, lvl, ok
}

// AssignErr is Assign surfacing backend failures, the assignErrer
// extension platform.Server's Submit uses for typed refusals.
//
// The fast path is one pop at the task's node, within the level below which
// the cut keeps every worker there (route): a worker it finds is the
// cluster's nearest. When it finds none, the task is elected (elect) under
// the exclusive lock, so the election and its pop cannot be split by another
// assignment.
func (c *fanCore) AssignErr(code hst.Code) (int, int, bool, error) {
	c.opMu.RLock()
	st := c.state.Load()
	if st.tree.CheckCode(code) != nil {
		c.opMu.RUnlock()
		return engine.None, 0, false, nil
	}
	nd, within := c.routeIdx(code), st.tree.Depth()-1
	res, err := c.do(nd, true, OpRequest{
		Kind: OpPop, Idem: c.nextIdem(), Code: bytesOf(string(code)), Level: within, Epoch: st.epoch,
	})
	c.opMu.RUnlock()
	if err == nil && res.Found && (res.Level < 0 || res.Level > within || res.ID < 0) {
		return engine.None, 0, false, unavailable(nd, fmt.Errorf("pop within level %d answered worker %d at level %d", within, res.ID, res.Level))
	}
	if err != nil || res.Found {
		return res.ID, res.Level, res.Found, err
	}
	c.opMu.Lock()
	defer c.opMu.Unlock()
	return c.elect(c.state.Load(), code)
}

// elect gives a task the worker one engine would: every node peeks its
// nearest, the smallest (level, id) across nodes wins, and it is popped at
// its node within its level. Caller holds opMu exclusively, so no
// coordinator-driven mutation can slip between the peeks and the pop.
func (c *fanCore) elect(st *coreState, code hst.Code) (id, lvl int, found bool, err error) {
	peeks := make([]OpResult, len(c.nodes))
	errs := make([]error, len(c.nodes))
	fan(len(c.nodes), func(nd int) {
		peeks[nd], errs[nd] = c.do(nd, true, OpRequest{Kind: OpPeek, Code: bytesOf(string(code)), Epoch: st.epoch})
	})
	best := -1
	for nd, p := range peeks {
		switch {
		case errs[nd] != nil:
			// That includes an unreachable node: it may hold the nearest
			// worker, and electing around it would silently change the answer.
			return engine.None, 0, false, errs[nd]
		case !p.Found:
		case p.Level < 0 || p.Level > st.tree.Depth() || p.ID < 0:
			// A peer's answer steers the election: one the tree cannot have
			// is the node failing, never a candidate.
			return engine.None, 0, false, unavailable(nd, fmt.Errorf("peek answered worker %d at level %d", p.ID, p.Level))
		case best < 0 || cmp.Or(cmp.Compare(p.Level, peeks[best].Level), cmp.Compare(p.ID, peeks[best].ID)) < 0:
			best = nd
		}
	}
	if best < 0 {
		return engine.None, 0, false, nil
	}
	want := peeks[best]
	res, err := c.do(best, true, OpRequest{
		Kind: OpPop, Idem: c.nextIdem(), Code: bytesOf(string(code)), Level: want.Level, Epoch: st.epoch,
	})
	if err == nil && res.Found && (res.ID != want.ID || res.Level != want.Level) {
		return engine.None, 0, false, unavailable(best, fmt.Errorf("pop of peeked worker %d at level %d answered worker %d at level %d",
			want.ID, want.Level, res.ID, res.Level))
	}
	return res.ID, res.Level, res.Found, err
}

// AssignBatch serves a batch (platform.Core): sequential greedy for
// non-window policies (the engine's batch path is defined as bit-identical
// to one-by-one submission), scatter-gather window solves for
// batch-optimal.
func (c *fanCore) AssignBatch(codes []hst.Code) ([]int, []int) {
	ids := make([]int, len(codes))
	lvls := make([]int, len(codes))
	for i := range ids {
		ids[i] = engine.None
	}
	solver, windowed := c.policy.(windowSolver)
	if !windowed {
		for i, code := range codes {
			id, lvl, ok, _ := c.AssignErr(code)
			if ok {
				ids[i], lvls[i] = id, lvl
			}
		}
		return ids, lvls
	}
	for lo, hi := range engine.BatchWindows(len(codes)) {
		c.solveWindow(solver, codes[lo:hi], ids[lo:hi], lvls[lo:hi])
	}
	return ids, lvls
}

// windowSolver is what the coordinator needs of a window-solving policy
// (engine.BatchOptimal): the per-task pool every node mines with, and the
// policy's own solve kernel to hand each task's k nearest to.
type windowSolver interface {
	TopK() int
	SolveMined(state any, lists [][]hst.Candidate) []hst.Candidate
}

// solveWindow serves one batch-optimal window over the cluster. The window
// rule lives in the engine (the policy's solve kernel); what is here is
// what is distributed: scatter the mining, gather and check what the nodes
// report, merge each task's k nearest, commit the kernel's matches at their
// owning nodes. It holds opMu exclusively, which is what the engine's lock
// is to one engine: the window is atomic against every other mutation.
func (c *fanCore) solveWindow(solver windowSolver, codes []hst.Code, ids, lvls []int) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	defer c.windows.Add(1)
	st := c.state.Load()

	for i := range codes {
		ids[i], lvls[i] = engine.None, 0
	}
	valid := make([]int, 0, len(codes))
	tasks := make([]hst.Code, 0, len(codes))
	for i, code := range codes {
		if st.tree.CheckCode(code) == nil {
			valid = append(valid, i)
			tasks = append(tasks, code)
		}
	}
	if len(valid) == 0 {
		return
	}

	for attempt := 0; attempt < 3; attempt++ {
		matched, done := c.solveWindowOnce(solver, st, tasks)
		if done {
			for ti, m := range matched {
				if m.ID != engine.None {
					ids[valid[ti]], lvls[valid[ti]] = m.ID, m.Level
				}
			}
			return
		}
		// A commit conflict undid the window; re-mine against the live
		// pool. Unreachable when every mutation flows through this core
		// (exclusivity makes the mine-to-commit span atomic), defensive
		// against an externally mutated backend.
	}
}

// solveWindowOnce runs one mine→solve→commit pass over the window's
// well-formed tasks and returns each task's committed match (nil: the
// window answers unmatched). done false means a commit conflict rolled the
// pass back and the window should re-mine.
func (c *fanCore) solveWindowOnce(solver windowSolver, st *coreState, tasks []hst.Code) (matched []hst.Candidate, done bool) {
	N, k := len(c.nodes), solver.TopK()

	// Scatter: every node mines every task — a task's nearest may live on
	// any node.
	op := OpRequest{Kind: OpMine, Codes: make([][]byte, len(tasks)), K: k, Epoch: st.epoch}
	for ti, code := range tasks {
		op.Codes[ti] = bytesOf(string(code))
	}
	mines := make([]OpResult, N)
	mineErrs := make([]error, N)
	fan(N, func(nd int) { mines[nd], mineErrs[nd] = c.do(nd, false, op) })

	// Gather: each task's k nearest cluster-wide.
	pool := 0
	for nd := 0; nd < N; nd++ {
		if mineErrs[nd] != nil || !c.validMine(st, nd, &mines[nd], tasks, k) {
			// A window cannot be solved around a missing node — its pool
			// would silently vanish from the matching — nor over a report
			// that breaks the protocol. Answer the whole window unmatched
			// instead.
			return nil, true
		}
		pool += mines[nd].Pool
	}
	if pool == 0 {
		return nil, true
	}
	own := make([][]hst.Candidate, len(tasks))
	for ti := range own {
		own[ti] = nearestK(mines, ti, k)
	}

	matched = solver.SolveMined(st, own)

	// Commit matched units at their owning nodes. The commits of one
	// window are independent decrements (each targets the matched worker at
	// its mined leaf), so they run concurrently — an HTTP connection ships
	// the first few sharing a node at once, one per free slot, and folds
	// the rest into a /v2/node/ops envelope or two behind them (see
	// batcher), so a window's commit phase is a few envelopes per involved
	// node however many units it matched. Any conflict (worker no longer at
	// its mined leaf) rolls back every commit that landed and re-mines.
	type commitRec struct {
		code hst.Code
		id   int
		nd   int
		err  error
	}
	var commits []commitRec
	for _, m := range matched {
		if m.ID != engine.None {
			commits = append(commits, commitRec{code: m.Code, id: m.ID, nd: c.routeIdx(m.Code)})
		}
	}
	fan(len(commits), func(j int) {
		u := &commits[j]
		_, u.err = c.do(u.nd, false, OpRequest{
			Kind: OpConsume, Idem: c.nextIdem(), Code: bytesOf(string(u.code)), ID: u.id, Epoch: st.epoch,
		})
	})
	failed := false
	for j := range commits {
		if commits[j].err != nil {
			failed = true
			break
		}
	}
	if !failed {
		return matched, true
	}
	// Roll back the commits that did land; a lost unit here is
	// unrecoverable, exactly as a failed single-process window commit.
	for j := len(commits) - 1; j >= 0; j-- {
		u := &commits[j]
		if u.err != nil {
			continue
		}
		if _, err := c.do(u.nd, false, OpRequest{
			Kind: OpAddCapacity, Idem: c.nextIdem(), Code: bytesOf(string(u.code)), ID: u.id, Epoch: st.epoch,
		}); err != nil {
			panic(fmt.Sprintf("cluster: window rollback lost unit (worker %d): %v", u.id, err))
		}
	}
	return nil, false
}

// validMine checks node nd's answer wm to a mine of tasks, k a task — the
// one place a peer's report becomes window candidates. Everything the
// kernel and the commit phase rely on is checked here: list shapes and
// lengths (one list a task, at most k long), every id and capacity within
// the int32 the kernel narrows to, every code a leaf of the published tree
// that the cut routes to nd — which also makes a matched worker's commit
// route back to the node that reported it — and every level the code's
// true LCA level with its task, which steers the merge and the solve.
func (c *fanCore) validMine(st *coreState, nd int, wm *OpResult, tasks []hst.Code, k int) bool {
	if wm.Pool < 0 || len(wm.Own) != len(tasks) {
		return false
	}
	for ti, list := range wm.Own {
		for _, cand := range list {
			if cand.ID < 0 || cand.ID > math.MaxInt32 || cand.Cap < 1 || cand.Cap > math.MaxInt32 ||
				st.tree.CheckCode(cand.Code) != nil || c.routeIdx(cand.Code) != nd ||
				cand.Level != st.tree.LCALevel(tasks[ti], cand.Code) {
				return false
			}
		}
		if len(list) > k {
			return false
		}
	}
	return true
}

// nearestK merges task ti's k nearest on every node into its k nearest
// cluster-wide, in (level, id) order: exactly what NearestKRef answers on
// one index, since each node answers its own k smallest (level, id) at true
// levels.
func nearestK(mines []OpResult, ti, k int) []hst.Candidate {
	var out []hst.Candidate
	for _, m := range mines {
		out = append(out, m.Own[ti]...)
	}
	slices.SortStableFunc(out, func(a, b hst.Candidate) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.ID, b.ID))
	})
	return out[:min(k, len(out))]
}

// SwapEpochSeq rotates the cluster (platform.Core): a distributed
// two-phase commit. Phase one stages every node's partition of the new
// population under the cut (route); any failure aborts all prepared
// nodes and the old epoch keeps serving everywhere. Phase two commits each
// node — past the point of no return, a node that cannot commit after
// preparing is a panic, exactly as a failed single-process swap commit
// would be.
//
// seq is run once here to validate and then once per node, concurrently,
// each node's prepare pulling its own filtered iteration — the coordinator
// never holds a copy of the population, whole or partitioned. A transport
// retry runs a node's iteration again, so seq must be replayable. The
// shard count is ignored, as by every core.
func (c *fanCore) SwapEpochSeq(epoch int64, tree *hst.Tree, _ int, seq func(yield func(engine.EpochInsert) bool)) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if tree == nil {
		return errors.New("cluster: nil tree")
	}
	st := c.state.Load()
	if epoch <= st.epoch {
		return fmt.Errorf("cluster: swap to epoch %d, already serving %d", epoch, st.epoch)
	}
	N := len(c.nodes)
	var verr error
	seq(func(in engine.EpochInsert) bool {
		if err := tree.CheckCode(in.Code); err != nil {
			verr = fmt.Errorf("cluster: swap insert %d: %w", in.ID, err)
		}
		return verr == nil
	})
	if verr != nil {
		return verr
	}
	// Phase one: prepare everywhere. The staged states are built and
	// validated off to the side; the old epoch keeps serving.
	prepared := make([]bool, N)
	abortAll := func() {
		for nd := 0; nd < N; nd++ {
			if !prepared[nd] {
				continue
			}
			// Best effort: an unreachable node's staged state is inert (it
			// is never committed) and is dropped by its next prepare.
			_, _ = c.do(nd, false, OpRequest{Kind: OpAbort, Idem: c.nextIdem(), Epoch: epoch})
		}
	}
	// Prepares run concurrently: each node stages an independent partition,
	// so the phase's wall clock is the largest partition's staging time,
	// not the population's.
	prepErrs := make([]error, N)
	fan(N, func(nd int) {
		idem := c.nextIdem()
		// One iteration per attempt, over the inserts that route here.
		err := retry(nd, true, func() error {
			next, stop := iter.Pull(func(yield func(engine.EpochInsert) bool) {
				seq(func(in engine.EpochInsert) bool {
					return route(in.Code, N) != nd || yield(in)
				})
			})
			defer stop()
			return c.nodes[nd].Prepare(epoch, tree, func() (engine.EpochInsert, bool, error) {
				in, ok := next()
				return in, ok, nil
			}, idem)
		})
		prepErrs[nd], prepared[nd] = err, err == nil
	})
	for nd := 0; nd < N; nd++ {
		if prepErrs[nd] != nil {
			abortAll()
			return fmt.Errorf("cluster: prepare epoch %d on node %d: %w", epoch, nd, prepErrs[nd])
		}
	}

	// Phase two: commit everywhere, concurrently. Commits are idempotent (a
	// node already serving the epoch acks), so transport retries are safe.
	commitErrs := make([]error, N)
	fan(N, func(nd int) {
		op := OpRequest{Kind: OpCommit, Idem: c.nextIdem(), Epoch: epoch}
		for try := 0; try < 3; try++ {
			if _, commitErrs[nd] = c.nodes[nd].Do(op); !isTransport(commitErrs[nd]) {
				break
			}
		}
	})
	for nd := 0; nd < N; nd++ {
		if commitErrs[nd] != nil {
			// Some nodes now serve the new epoch and this one cannot:
			// there is no consistent epoch to retreat to.
			panic(fmt.Sprintf("cluster: commit epoch %d on node %d failed after prepare: %v", epoch, nd, commitErrs[nd]))
		}
	}
	c.state.Store(&coreState{tree: tree, epoch: epoch})
	return nil
}

var _ platform.Core = (*fanCore)(nil)
