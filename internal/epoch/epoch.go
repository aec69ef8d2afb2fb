// Package epoch owns live HST epoch rotation: the bookkeeping that lets a
// long-lived deployment periodically republish the tree and re-noise the
// live worker population without stopping assignment.
//
// The paper's setting is one-shot — every agent obfuscates once under a
// fixed ε — but an online platform composes: every fresh report of (a
// perturbation of) the same location spends budget, and a tree served
// forever leaks structure about the population that built it. A rotation
// closes both gaps. It proceeds in two phases:
//
//  1. Prepare: build the next epoch's tree in the background (optionally
//     reseeded, optionally refit from the report history observed during
//     the serving epoch) while the current epoch keeps serving.
//  2. Commit: by now the owner has collected a fresh obfuscated report from
//     every available worker under the staged tree — reports are drawn
//     client-side; the owner only sees the resulting codes — checked each
//     against the worker's lifetime budget (Afford), swapped its engine to
//     the surviving population (engine.SwapEpoch) and charged every
//     rotated worker's report (Charge). Workers whose budget cannot afford
//     another report are parked: permanently retired from serving rather
//     than silently re-noised past their guarantee. Commit advances the
//     controller's epoch counter and counts the rotated workers.
//
// The controller is deliberately engine-agnostic: the engine and
// the platform server both drive it, applying a rotation to their own id
// spaces (engine ids, platform slots). The same split holds for the
// lifetime-ε ledger: each worker's running spend is a cell in its owner's
// worker table (a platform slot record, the simulator's dense array) that
// counts its charged reports, and the controller keeps the one charge rule
// and the totals. What the controller owns is the invariant pair the tests
// assert — epoch consistency (no assignment pairs codes from different
// epochs; the engine swap plus the serving layer's rotation gate enforce
// it) and budget conservation (the total equals ε times the sum of the
// cells, and no worker ever exceeds its lifetime ε).
package epoch

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
)

// ErrBudgetExhausted aliases the privacy sentinel so serving layers can
// match budget refusals without importing privacy directly.
var ErrBudgetExhausted = privacy.ErrBudgetExhausted

// ErrNotStaged is returned by Commit when no rotation has been prepared (or
// a previous one was already committed).
var ErrNotStaged = errors.New("epoch: no rotation staged")

// FirstEpoch is the epoch id of the initial publication; the controller's
// epoch ids are the engine's.
const FirstEpoch = engine.FirstEpoch

// Config configures a Controller.
type Config struct {
	// Tree is the initial (epoch-1) publication, already built by the
	// owner. Rotated trees embed the same predefined points.
	Tree *hst.Tree
	// Seed roots the derivation of per-epoch construction randomness when
	// a rotation is prepared without an explicit reseed.
	Seed uint64
	// Epsilon is the per-report privacy spend (the publication's ε).
	Epsilon float64
	// Lifetime is the per-worker lifetime ε budget; every fresh report
	// spends Epsilon against it. 0 disables budget accounting — reports
	// are free and no worker is ever parked.
	Lifetime float64
}

// Controller tracks the serving epoch, stages the next one, and accounts
// every fresh report against per-worker lifetime budgets. It is safe for
// concurrent use; one rotation is staged at a time.
type Controller struct {
	seed uint64
	eps  float64

	mu        sync.Mutex
	budget    *privacy.Budget // nil when accounting is disabled
	epoch     int64
	tree      *hst.Tree
	staged    *Staged
	parked    map[string]struct{}
	rotations int
	rotated   int // workers successfully re-obfuscated across all rotations
	// hist counts the serving epoch's observed reports per predefined point
	// (indexed by Tree.PointOf), for refit. It is as long as the tree has
	// points, so observing allocates nothing however many workers report.
	hist []int
}

// Staged is a prepared (not yet committed) rotation: the next epoch id and
// the tree workers must re-obfuscate under.
type Staged struct {
	Epoch int64
	Tree  *hst.Tree
}

// NewController returns a controller serving cfg.Tree as epoch 1.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Tree == nil {
		return nil, errors.New("epoch: nil tree")
	}
	if cfg.Epsilon <= 0 {
		return nil, fmt.Errorf("epoch: epsilon %v must be positive", cfg.Epsilon)
	}
	if cfg.Lifetime < 0 {
		return nil, fmt.Errorf("epoch: lifetime budget %v must be non-negative", cfg.Lifetime)
	}
	c := &Controller{
		seed:   cfg.Seed,
		eps:    cfg.Epsilon,
		epoch:  FirstEpoch,
		tree:   cfg.Tree,
		parked: map[string]struct{}{},
		hist:   make([]int, cfg.Tree.NumPoints()),
	}
	if cfg.Lifetime > 0 {
		budget, err := privacy.NewBudget(cfg.Lifetime)
		if err != nil {
			return nil, err
		}
		if cfg.Lifetime < cfg.Epsilon {
			return nil, fmt.Errorf("epoch: lifetime budget %v below per-report ε %v; every report would be refused",
				cfg.Lifetime, cfg.Epsilon)
		}
		c.budget = budget
	}
	return c, nil
}

// Tree returns the serving epoch's tree.
func (c *Controller) Tree() *hst.Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tree
}

// Epsilon returns the per-report spend.
func (c *Controller) Epsilon() float64 { return c.eps }

// MaxReports is the most reports a worker's ledger cell counts: 2^28−1,
// 8.5 years at one a second, so an owner may pack a cell into 28 bits. A
// worker whose cell is there is parked as if its budget had run out; a cell
// never wraps.
const MaxReports = 1<<28 - 1

// Afford checks one fresh report for the worker against its lifetime
// budget, given how many reports the worker has had charged so far (the
// caller owns that cell). Every report spends the one ε, so a count is the
// exact ledger: the worker has spent reports·ε. On exhaustion, or at
// MaxReports, the worker is parked and the returned error wraps
// ErrBudgetExhausted; an already-parked worker is refused the same way. The
// parked set keeps its own copy of the id: a caller's may be a view of
// storage it later drops.
// Nothing is charged: the caller runs whatever can still refuse the report
// (an engine insert, a swap) and calls Charge once it was accepted, so a
// refused report never burns budget. With accounting disabled only the
// parked check and the cap apply.
func (c *Controller) Afford(worker string, reports uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, gone := c.parked[worker]; gone {
		return fmt.Errorf("%w: worker %q is parked", ErrBudgetExhausted, worker)
	}
	var err error
	switch spent := float64(reports) * c.eps; {
	case reports >= MaxReports:
		err = fmt.Errorf("%w: worker %q made %d reports, the most a ledger cell counts",
			ErrBudgetExhausted, worker, reports)
	case c.budget != nil && !c.budget.Affords(spent, c.eps):
		err = fmt.Errorf("%w: worker %q spent %.4g of %.4g, requested %.4g",
			ErrBudgetExhausted, worker, spent, c.budget.Limit(), c.eps)
	default:
		return nil
	}
	c.parked[strings.Clone(worker)] = struct{}{}
	return err
}

// Charge counts one accepted fresh report on a worker that had made
// reports, returning the cell's new count (reports itself with accounting
// disabled). The caller's lock must cover the cell.
func (c *Controller) Charge(reports uint32) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.charge(reports)
}

func (c *Controller) charge(reports uint32) uint32 {
	if c.budget == nil {
		return reports
	}
	c.budget.Charge(reports == 0, c.eps)
	return reports + 1
}

// Accept is Charge for one accepted fresh report at code that also records
// the report for refit history, under one hold of the controller's lock:
// what a registration, an update or a release with a fresh code books once
// the engine took the report. Only real leaves count towards the history —
// obfuscated codes frequently land on fake leaves, which say nothing about
// where demand concentrates. Recording obfuscated output is post-processing
// and spends no budget.
func (c *Controller) Accept(reports uint32, code hst.Code) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.tree.PointOf(code); ok {
		c.hist[p]++
	}
	return c.charge(reports)
}

// Parked reports whether the worker has been parked (lifetime budget
// exhausted).
func (c *Controller) Parked(worker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.parked[worker]
	return ok
}

// Prepare stages the next epoch: a fresh tree over the same predefined
// points, built in the background while the current epoch keeps serving.
// seed 0 derives the construction randomness from the controller's root
// seed and the next epoch id; a non-zero seed reseeds explicitly. With
// refit, the carving permutation is ordered by the report density observed
// during the serving epoch (hottest points first, so ball carving tightens
// clusters where demand actually concentrates) instead of drawn uniformly.
// Re-preparing replaces a previously staged rotation.
func (c *Controller) Prepare(seed uint64, refit bool) (*Staged, error) {
	c.mu.Lock()
	next := c.epoch + 1
	points := c.tree.Points()
	var histCopy []int
	if refit {
		histCopy = append(histCopy, c.hist...)
	}
	c.mu.Unlock()

	// Tree construction happens outside the lock: it is milliseconds of
	// work (hst.Build is near-linear), but the serving epoch must not
	// stall behind even that.
	if seed == 0 {
		seed = rng.New(c.seed).DeriveN("epoch-tree", int(next)).Seed()
	}
	src := rng.New(seed)
	var tree *hst.Tree
	var err error
	if refit {
		tree, err = buildRefit(points, histCopy, src)
	} else {
		tree, err = hst.Build(points, src)
	}
	if err != nil {
		return nil, fmt.Errorf("epoch: prepare %d: %w", next, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch+1 != next {
		return nil, fmt.Errorf("epoch: rotation committed while preparing %d", next)
	}
	c.staged = &Staged{Epoch: next, Tree: tree}
	return c.staged, nil
}

// buildRefit builds the tree with the carving permutation ordered by
// observed report counts (descending, ties towards the lower point index —
// deterministic), so historically hot points become early pivots. β is
// still drawn from the construction randomness.
func buildRefit(points []geo.Point, hist []int, src *rng.Source) (*hst.Tree, error) {
	perm := make([]int, len(points))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		if hist[perm[a]] != hist[perm[b]] {
			return hist[perm[a]] > hist[perm[b]]
		}
		return perm[a] < perm[b]
	})
	beta := src.Derive("hst-beta").Uniform(0.5, 1.0)
	return hst.BuildWithParams(points, beta, perm)
}

// StagedRotation returns the currently staged rotation, or nil.
func (c *Controller) StagedRotation() *Staged {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.staged
}

// Commit advances the controller to the staged epoch, counting rotated
// workers re-obfuscated into it. The serving layer calls it after (not
// before) its engine swap succeeded and it charged each rotated worker's
// report, so a failed swap leaves the controller still serving — and still
// able to rotate to — the old epoch. The refit history resets: each epoch
// refits from what the previous one observed.
func (c *Controller) Commit(staged *Staged, rotated int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.staged == nil {
		return ErrNotStaged
	}
	if staged.Epoch != c.staged.Epoch {
		return fmt.Errorf("epoch: commit of %d, staged is %d", staged.Epoch, c.staged.Epoch)
	}
	c.epoch = staged.Epoch
	c.tree = staged.Tree
	c.staged = nil
	c.rotations++
	c.rotated += rotated
	c.hist = make([]int, staged.Tree.NumPoints())
	return nil
}

// Stats is a point-in-time summary of the controller's bookkeeping.
type Stats struct {
	Epoch     int64
	Rotations int
	Rotated   int // successful re-obfuscations across all rotations
	Parked    int
	// Budget accounting; zero values when accounting is disabled.
	Limit      float64
	SpentTotal float64
	Agents     int
}

// Stats returns the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Epoch:     c.epoch,
		Rotations: c.rotations,
		Rotated:   c.rotated,
		Parked:    len(c.parked),
	}
	if c.budget != nil {
		st.Limit = c.budget.Limit()
		st.SpentTotal = c.budget.Total()
		st.Agents = c.budget.Agents()
	}
	return st
}
