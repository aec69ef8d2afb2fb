package cluster

import (
	"crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"iter"
	"math"
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
// node-local tiers) run under a shared read lock — they are independent
// exactly when their codes route to different nodes, mirroring the
// engine's shard independence. Anything whose answer spans nodes — the
// greedy root tier's min-of-mins, a batch-optimal window, the two-phase
// epoch swap — takes the lock exclusively, making it atomic with respect
// to every other coordinator-driven mutation. Every node mutation flows
// through this core, so exclusivity here is global mutual exclusion.
type fanCore struct {
	nodes      []NodeConn
	policy     engine.Policy
	policySpec string
	defaultCap int
	shardsCfg  int // requested shard count, passed to every node

	state atomic.Pointer[coreState]
	opMu  sync.RWMutex

	windows atomic.Int64

	// Idempotency keys are idemNonce + a sequence number: see nextIdem.
	idemNonce [6]byte
	idemSeq   atomic.Int64
}

// coreState is the epoch-scoped identity of the cluster: published tree,
// shard layout (shared by every node), and epoch id. Swapped with one
// pointer store at rotation commit, which also makes it the token the
// window kernel's warm potentials are pinned to.
type coreState struct {
	tree   *hst.Tree
	layout engine.Layout
	epoch  int64
}

// errTransport is wrapped into transport failures by httpNode so the core
// can tell a dead backend from an application refusal.
var errTransport = errors.New("cluster: node transport failed")

// newFanCore builds the core and initialises every node with the shared
// configuration.
func newFanCore(nodes []NodeConn, tree *hst.Tree, shards int, policy engine.Policy, policySpec string, defaultCap int) (*fanCore, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if defaultCap == 0 {
		defaultCap = 1
	}
	c := &fanCore{
		nodes:      nodes,
		policy:     policy,
		policySpec: policySpec,
		defaultCap: defaultCap,
		shardsCfg:  shards,
	}
	// Six base64url characters of the system's randomness (crypto/rand.Read
	// does not fail).
	var raw [6]byte
	var text [8]byte
	rand.Read(raw[:])
	base64.RawURLEncoding.Encode(text[:], raw[:])
	copy(c.idemNonce[:], text[:])
	c.state.Store(&coreState{tree: tree, layout: engine.LayoutFor(tree, shards), epoch: engine.FirstEpoch})
	for i, n := range nodes {
		if err := n.Init(InitRequest{
			Tree: tree, Shards: shards, Policy: policySpec, DefaultCapacity: defaultCap,
			Idem: c.nextIdem(),
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

// routeIdx returns the node owning a code's shard group.
func (c *fanCore) routeIdx(st *coreState, code hst.Code) int {
	return st.layout.GroupOf(code) % len(c.nodes)
}

// ownerIdx returns the node owning a shard index.
func (c *fanCore) ownerIdx(st *coreState, shard int) int {
	return st.layout.GroupOfShard(shard) % len(c.nodes)
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

// callNode is the transport-retry rule, stated once. It runs call against
// node nd; on a transport failure (the request or its response was lost)
// it runs call once more — call resends the same idempotency key, so a
// mutation that did land replays from the node's cache instead of applying
// twice. What a second transport failure becomes is the caller's choice:
//
//   - escalate: the typed retryable unavailable refusal naming the node,
//     for calls whose failure is reported onward — insert, add-capacity,
//     assign-subtree, min-id, pop-min, prepare.
//   - otherwise the raw failure, for calls whose every error the caller
//     folds into its own outcome — remove (answers not-found), mine (the
//     window answers unmatched), consume (the window rolls back), undo (a
//     lost unit panics), abort (best effort).
//
// Application refusals are never retried. Commit is the one call outside
// the rule: past the point of no return it gets three attempts.
func (c *fanCore) callNode(nd int, escalate bool, call func(NodeConn) error) error {
	err := call(c.nodes[nd])
	if isTransport(err) {
		err = call(c.nodes[nd])
		if escalate && isTransport(err) {
			return unavailable(nd, err)
		}
	}
	return err
}

// Identity and configuration (platform.Core).

func (c *fanCore) Tree() *hst.Tree       { return c.state.Load().tree }
func (c *fanCore) Epoch() int64          { return c.state.Load().epoch }
func (c *fanCore) Shards() int           { return c.state.Load().layout.Shards }
func (c *fanCore) Policy() engine.Policy { return c.policy }
func (c *fanCore) DefaultCapacity() int  { return c.defaultCap }
func (c *fanCore) Windows() int64        { return c.windows.Load() }

// statusAll polls every node concurrently — a status sweep is N
// independent reads, so its latency should be the slowest node's, not the
// sum. Unreachable nodes yield a zero StatusResponse with ok false.
func (c *fanCore) statusAll(epoch int64) []StatusResponse {
	out := make([]StatusResponse, len(c.nodes))
	var wg sync.WaitGroup
	for i, nd := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s, err := nd.Status(epoch); err == nil {
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// Len sums the available workers across reachable nodes.
func (c *fanCore) Len() int {
	c.opMu.RLock()
	defer c.opMu.RUnlock()
	n := 0
	for _, s := range c.statusAll(0) {
		n += s.Len
	}
	return n
}

// CapacityUnits sums remaining units across reachable nodes.
func (c *fanCore) CapacityUnits() int {
	c.opMu.RLock()
	defer c.opMu.RUnlock()
	n := 0
	for _, s := range c.statusAll(0) {
		n += s.Units
	}
	return n
}

// Routed mutations (platform.Core). Each routes by the code's shard group
// and runs under callNode's retry rule.

func (c *fanCore) InsertCapEpoch(code hst.Code, id, capacity int, epoch int64) error {
	c.opMu.RLock()
	defer c.opMu.RUnlock()
	st := c.state.Load()
	if err := st.tree.CheckCode(code); err != nil {
		return err
	}
	idem := c.nextIdem()
	return c.callNode(c.routeIdx(st, code), true, func(n NodeConn) error {
		return n.Insert(code, id, capacity, epoch, idem)
	})
}

func (c *fanCore) AddCapacityEpoch(code hst.Code, id int, epoch int64) error {
	c.opMu.RLock()
	defer c.opMu.RUnlock()
	st := c.state.Load()
	if err := st.tree.CheckCode(code); err != nil {
		return err
	}
	idem := c.nextIdem()
	return c.callNode(c.routeIdx(st, code), true, func(n NodeConn) error {
		return n.AddCapacity(code, id, epoch, idem)
	})
}

func (c *fanCore) Remove(code hst.Code, id int) bool {
	_, ok := c.RemoveUnits(code, id)
	return ok
}

func (c *fanCore) RemoveUnits(code hst.Code, id int) (units int, found bool) {
	c.opMu.RLock()
	defer c.opMu.RUnlock()
	st := c.state.Load()
	if st.tree.CheckCode(code) != nil {
		return 0, false
	}
	idem := c.nextIdem()
	err := c.callNode(c.routeIdx(st, code), false, func(n NodeConn) (err error) {
		units, found, err = n.Remove(code, id, idem)
		return err
	})
	if err != nil {
		return 0, false
	}
	return units, found
}

// Assign runs the greedy rule across the cluster (platform.Core).
func (c *fanCore) Assign(code hst.Code) (int, int, bool) {
	id, lvl, ok, _ := c.AssignErr(code)
	return id, lvl, ok
}

// AssignErr is Assign surfacing backend failures, the assignErrer
// extension platform.Server's Submit uses for typed refusals.
//
// Tier structure: the routed node resolves everything below the root tier
// atomically (own-shard fast path, locked re-check, sibling sub-shards).
// Only when no worker shares the task's top branch there does the root
// tier run — a min-of-mins across every node, taken under the exclusive
// lock so the elect-then-pop pair cannot be split by another assignment.
func (c *fanCore) AssignErr(code hst.Code) (int, int, bool, error) {
	c.opMu.RLock()
	st := c.state.Load()
	id, lvl, ok, err := c.assignRouted(st, code)
	c.opMu.RUnlock()
	if err != nil || ok {
		return id, lvl, ok, err
	}
	if st.tree.CheckCode(code) != nil {
		return engine.None, 0, false, nil
	}

	c.opMu.Lock()
	defer c.opMu.Unlock()
	st = c.state.Load()
	// Re-run the routed tiers under exclusivity: a worker may have landed
	// on the task's branch between the read-locked miss and here.
	id, lvl, ok, err = c.assignRouted(st, code)
	if err != nil || ok {
		return id, lvl, ok, err
	}
	return c.assignRoot(st)
}

// assignRouted runs the node-local tiers at the routed node.
func (c *fanCore) assignRouted(st *coreState, code hst.Code) (id, lvl int, found bool, err error) {
	if st.tree.CheckCode(code) != nil {
		return engine.None, 0, false, nil
	}
	idem := c.nextIdem()
	err = c.callNode(c.routeIdx(st, code), true, func(n NodeConn) (err error) {
		id, lvl, found, err = n.AssignSubtree(code, st.epoch, idem)
		return err
	})
	return id, lvl, found, err
}

// assignRoot resolves the greedy root tier: every remaining worker is
// equidistant from the task, so only the global minimum id matters —
// min-of-mins across nodes, then a pop at the elected node. Caller holds
// opMu exclusively, so no coordinator-driven mutation can slip between
// the election and the pop.
func (c *fanCore) assignRoot(st *coreState) (id, lvl int, found bool, err error) {
	// Poll all nodes concurrently: the election needs every answer anyway,
	// so the round's latency is the slowest node's, not the sum.
	type minPoll struct {
		id    int
		found bool
		err   error
	}
	polls := make([]minPoll, len(c.nodes))
	var wg sync.WaitGroup
	for nd := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &polls[nd]
			p.err = c.callNode(nd, true, func(n NodeConn) (err error) {
				p.id, p.found, err = n.MinID(st.epoch)
				return err
			})
		}()
	}
	wg.Wait()
	best, bestID := -1, int(^uint(0)>>1)
	for nd, p := range polls {
		if p.err != nil {
			// That includes an unreachable node: it may hold the true
			// minimum, and electing around it would silently change the
			// answer.
			return engine.None, 0, false, p.err
		}
		if p.found && p.id < bestID {
			best, bestID = nd, p.id
		}
	}
	if best < 0 {
		return engine.None, 0, false, nil
	}
	idem := c.nextIdem()
	err = c.callNode(best, true, func(n NodeConn) (err error) {
		id, lvl, found, err = n.PopMin(st.epoch, idem)
		return err
	})
	return id, lvl, found, err
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
	// Chunk exactly as the single-process policy does; an empty batch is
	// still one (empty) window — the counter must agree with the engine's.
	if len(codes) == 0 {
		c.solveWindow(solver, codes, ids, lvls)
		return ids, lvls
	}
	for start := 0; start < len(codes); start += engine.BatchWindowSize {
		end := min(start+engine.BatchWindowSize, len(codes))
		c.solveWindow(solver, codes[start:end], ids[start:end], lvls[start:end])
	}
	return ids, lvls
}

// windowSolver is what the coordinator needs of a window-solving policy
// (engine.BatchOptimal): the per-task pool every node mines with, and the
// policy's own pad-and-solve kernel to hand the mined lists to.
type windowSolver interface {
	TopK() int
	SolveMined(state any, l engine.Layout, codes []hst.Code, own, pads [][]hst.Candidate) []hst.Candidate
}

// solveWindow serves one batch-optimal window over the cluster. The window
// rule lives in the engine (the policy's pad-and-solve kernel); what is
// here is what is distributed: scatter the mining, gather and check what
// the nodes report, commit the kernel's matches at their owning nodes. It
// holds opMu exclusively, which is what the single-process all-shard-locks
// hold is to one engine: the window is atomic against every other
// mutation.
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

	// Scatter: each node mines the window tasks routed to it, and every
	// node contributes its per-shard pad lists (its pool may serve tasks
	// routed elsewhere).
	nodeCodes := make([][]hst.Code, N)
	nodeTis := make([][]int, N)
	for ti, code := range tasks {
		nd := c.routeIdx(st, code)
		nodeCodes[nd] = append(nodeCodes[nd], code)
		nodeTis[nd] = append(nodeTis[nd], ti)
	}
	mines := make([]*engine.WindowMine, N)
	mineErrs := make([]error, N)
	var wg sync.WaitGroup
	for nd := 0; nd < N; nd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mineErrs[nd] = c.callNode(nd, false, func(n NodeConn) (err error) {
				mines[nd], err = n.Mine(nodeCodes[nd], k, st.epoch)
				return err
			})
		}()
	}
	wg.Wait()

	// Gather: per-task own-shard regions from the routed node, global
	// per-shard pad lists from each shard's owner.
	own := make([][]hst.Candidate, len(tasks))
	pads := make([][]hst.Candidate, st.layout.Shards)
	pool := 0
	for nd := 0; nd < N; nd++ {
		if mineErrs[nd] != nil || !c.validMine(st, nd, mines[nd], nodeCodes[nd], k) {
			// A window cannot be solved around a missing node — its pool
			// (and its tasks' own regions) would silently vanish from the
			// matching — nor over a report that breaks the protocol.
			// Answer the whole window unmatched instead.
			return nil, true
		}
		pool += mines[nd].Pool
		for j, ti := range nodeTis[nd] {
			own[ti] = mines[nd].Own[j]
		}
		for s, list := range mines[nd].Pads {
			if c.ownerIdx(st, s) == nd {
				pads[s] = list
			}
		}
	}
	if pool == 0 {
		return nil, true
	}

	matched = solver.SolveMined(st, st.layout, tasks, own, pads)

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
			commits = append(commits, commitRec{code: m.Code, id: m.ID, nd: c.routeIdx(st, m.Code)})
		}
	}
	var cwg sync.WaitGroup
	for j := range commits {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			u := &commits[j]
			idem := c.nextIdem()
			u.err = c.callNode(u.nd, false, func(n NodeConn) error {
				return n.Consume(u.code, u.id, st.epoch, idem)
			})
		}()
	}
	cwg.Wait()
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
		idem := c.nextIdem()
		if err := c.callNode(u.nd, false, func(n NodeConn) error {
			return n.AddCapacity(u.code, u.id, st.epoch, idem)
		}); err != nil {
			panic(fmt.Sprintf("cluster: window rollback lost unit (worker %d): %v", u.id, err))
		}
	}
	return nil, false
}

// validMine checks node nd's answer to a Mine of codes at pool size k — the
// one place a peer's report becomes window candidates. Everything the
// kernel and the commit phase rely on is checked here: list shapes and
// lengths, every id and capacity within the int32 the kernel narrows to,
// every level one the tree has (so its distance is finite), every code a
// leaf of the published tree in the shard whose list carries it — the
// task's own shard, or the pad list's — which also makes a matched
// worker's commit route back to the node that reported it.
func (c *fanCore) validMine(st *coreState, nd int, wm *engine.WindowMine, codes []hst.Code, k int) bool {
	validList := func(list []hst.Candidate, shard int) bool {
		for _, cand := range list {
			if cand.ID < 0 || cand.ID > math.MaxInt32 || cand.Cap < 1 || cand.Cap > math.MaxInt32 ||
				cand.Level < 0 || cand.Level > st.layout.Depth ||
				st.tree.CheckCode(cand.Code) != nil || st.layout.ShardIdx(cand.Code) != shard {
				return false
			}
		}
		return len(list) <= k
	}
	if wm == nil || wm.Pool < 0 || len(wm.Own) != len(codes) || len(wm.Pads) > st.layout.Shards {
		return false
	}
	for j, list := range wm.Own {
		if !validList(list, st.layout.ShardIdx(codes[j])) {
			return false
		}
	}
	for s, list := range wm.Pads {
		// Lists for shards another node owns are never gathered.
		if c.ownerIdx(st, s) == nd && !validList(list, s) {
			return false
		}
	}
	return true
}

// SwapEpochSeq rotates the cluster (platform.Core): a distributed
// two-phase commit. Phase one stages every node's partition of the new
// population under the new tree's layout; any failure aborts all prepared
// nodes and the old epoch keeps serving everywhere. Phase two commits each
// node — past the point of no return, a node that cannot commit after
// preparing is a panic, exactly as a failed single-process swap commit
// would be.
//
// seq is run once here to validate and then once per node, concurrently,
// each node's prepare pulling its own filtered iteration — the coordinator
// never holds a copy of the population, whole or partitioned. A transport
// retry runs a node's iteration again, so seq must be replayable.
func (c *fanCore) SwapEpochSeq(epoch int64, tree *hst.Tree, shards int, seq func(yield func(engine.EpochInsert) bool)) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if tree == nil {
		return errors.New("cluster: nil tree")
	}
	st := c.state.Load()
	if epoch <= st.epoch {
		return fmt.Errorf("cluster: swap to epoch %d, already serving %d", epoch, st.epoch)
	}
	if shards <= 0 {
		shards = c.shardsCfg
	}
	newLayout := engine.LayoutFor(tree, shards)
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
			idem := c.nextIdem()
			_ = c.callNode(nd, false, func(n NodeConn) error { return n.Abort(epoch, idem) })
		}
	}
	// Prepares run concurrently: each node stages an independent partition,
	// so the phase's wall clock is the largest partition's staging time,
	// not the population's.
	prepErrs := make([]error, N)
	var pwg sync.WaitGroup
	for nd := 0; nd < N; nd++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			idem := c.nextIdem()
			prepErrs[nd] = c.callNode(nd, true, func(n NodeConn) error {
				// One iteration per attempt, over the inserts that route
				// here under the new layout.
				next, stop := iter.Pull(func(yield func(engine.EpochInsert) bool) {
					seq(func(in engine.EpochInsert) bool {
						return newLayout.GroupOf(in.Code)%N != nd || yield(in)
					})
				})
				defer stop()
				return n.Prepare(epoch, tree, shards, func() (engine.EpochInsert, bool, error) {
					in, ok := next()
					return in, ok, nil
				}, idem)
			})
			prepared[nd] = prepErrs[nd] == nil
		}()
	}
	pwg.Wait()
	for nd := 0; nd < N; nd++ {
		if prepErrs[nd] != nil {
			abortAll()
			return fmt.Errorf("cluster: prepare epoch %d on node %d: %w", epoch, nd, prepErrs[nd])
		}
	}

	// Phase two: commit everywhere, concurrently. Commits are idempotent (a
	// node already serving the epoch acks), so transport retries are safe.
	commitErrs := make([]error, N)
	var cwg sync.WaitGroup
	for nd := 0; nd < N; nd++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			idem := c.nextIdem()
			var err error
			for try := 0; try < 3; try++ {
				if err = c.nodes[nd].Commit(epoch, idem); !isTransport(err) {
					break
				}
			}
			commitErrs[nd] = err
		}()
	}
	cwg.Wait()
	for nd := 0; nd < N; nd++ {
		if commitErrs[nd] != nil {
			// Some nodes now serve the new epoch and this one cannot:
			// there is no consistent epoch to retreat to.
			panic(fmt.Sprintf("cluster: commit epoch %d on node %d failed after prepare: %v", epoch, nd, commitErrs[nd]))
		}
	}
	c.state.Store(&coreState{tree: tree, layout: newLayout, epoch: epoch})
	return nil
}

var _ platform.Core = (*fanCore)(nil)
