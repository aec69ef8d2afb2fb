// Package epoch owns live HST epoch rotation: the bookkeeping that lets a
// long-lived deployment periodically republish the tree and re-noise the
// live worker population without stopping assignment.
//
// The paper's setting is one-shot — every agent obfuscates once under a
// fixed ε — but an online platform composes: every fresh report of (a
// perturbation of) the same location spends budget, and a tree served
// forever leaks structure about the population that built it. A rotation
// closes both gaps. It proceeds in three phases:
//
//  1. Prepare: build the next epoch's tree in the background (optionally
//     reseeded, optionally refit from the report history observed during
//     the serving epoch) while the current epoch keeps serving.
//  2. Plan: collect a fresh obfuscated report from every available worker
//     under the staged tree — reports are drawn client-side; the
//     controller only sees the resulting codes — and check each against
//     the worker's lifetime budget (Afford). Workers whose budget cannot
//     afford another report are parked: permanently retired from serving
//     rather than silently re-noised past their guarantee.
//  3. Commit: the serving layer swaps its engine to the planned population
//     (engine.SwapEpoch), charges every rotated worker's report (Charge)
//     and the controller advances its epoch counter.
//
// The controller is deliberately engine-agnostic: the sharded engine and
// the platform server both drive it, applying the plan's outcomes to their
// own id spaces (engine ids, platform slots). The same split holds for the
// lifetime-ε ledger: each worker's running spend is a cell in its owner's
// worker table (a platform slot record, the simulator's dense array), and
// the controller keeps the one charge rule and the totals. What the
// controller owns is the invariant pair the tests assert — epoch
// consistency (no assignment pairs codes from different epochs; the engine
// swap plus the serving layer's rotation gate enforce it) and budget
// conservation (the total equals the sum of the cells, and no worker ever
// exceeds its lifetime ε).
package epoch

import (
	"errors"
	"fmt"
	"sort"
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

// ErrNotStaged is returned by PlanRotation and Commit when no rotation has
// been prepared (or a previous one was already committed).
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

// Epoch returns the id of the serving epoch.
func (c *Controller) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Tree returns the serving epoch's tree.
func (c *Controller) Tree() *hst.Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tree
}

// Epsilon returns the per-report spend.
func (c *Controller) Epsilon() float64 { return c.eps }

// Afford checks one fresh report for the worker against its lifetime
// budget, given what the worker has spent so far (the caller owns that
// cell). On exhaustion the worker is parked and the returned error wraps
// ErrBudgetExhausted; an already-parked worker is refused the same way.
// Nothing is charged: the caller runs whatever can still refuse the report
// (an engine insert, a swap) and calls Charge once it was accepted, so a
// refused report never burns budget. With accounting disabled only the
// parked check applies.
func (c *Controller) Afford(worker string, spent float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, gone := c.parked[worker]; gone {
		return fmt.Errorf("%w: worker %q is parked", ErrBudgetExhausted, worker)
	}
	if c.budget == nil || c.budget.Affords(spent, c.eps) {
		return nil
	}
	c.parked[worker] = struct{}{}
	return fmt.Errorf("%w: worker %q spent %.4g of %.4g, requested %.4g",
		ErrBudgetExhausted, worker, spent, c.budget.Limit(), c.eps)
}

// Charge records one accepted fresh report on the worker's cell (a no-op
// with accounting disabled). The caller's lock must cover the cell.
func (c *Controller) Charge(cell *float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget != nil {
		c.budget.Charge(cell, c.eps)
	}
}

// Parked reports whether the worker has been parked (lifetime budget
// exhausted).
func (c *Controller) Parked(worker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.parked[worker]
	return ok
}

// Observe records one accepted report for refit history. Only real leaves
// count — obfuscated codes frequently land on fake leaves, which say
// nothing about where demand concentrates. Observing obfuscated output is
// post-processing and spends no budget.
func (c *Controller) Observe(code hst.Code) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.tree.PointOf(code); ok {
		c.hist[p]++
	}
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

// ReportFunc produces one worker's fresh obfuscated report under the
// staged tree. It runs client-side — the serving layer never sees true
// locations — and its error means the worker could not re-report (it is
// then parked from serving this epoch's swap, though not budget-parked).
type ReportFunc func(worker string, tree *hst.Tree) (hst.Code, error)

// Outcome is one worker's fate in a rotation plan, in input order.
type Outcome struct {
	Worker string
	// Code is the fresh report (valid for the plan's tree).
	Code hst.Code
	// Parked is set by the owner of the worker's budget cell when Afford
	// refused the fresh report: the worker must leave the serving pool
	// instead of being re-noised past its guarantee.
	Parked bool
}

// Plan is a rotation awaiting commit: the staged epoch and tree plus the
// per-worker outcomes, aligned with the workers given to PlanRotation.
type Plan struct {
	Epoch    int64
	Tree     *hst.Tree
	Outcomes []Outcome
}

// PlanRotation collects fresh reports for the listed workers (in the given
// order — the order is the deterministic contract the serving layer's id
// allocation relies on) under the staged tree. staged must be the staging
// the caller observed (nil selects whatever is currently staged); if a
// concurrent re-Prepare replaced it, the plan is refused — reports drawn
// against one tree are never committed under another. A report error from
// the client aborts the plan.
//
// Budgets are the caller's next step, because the caller owns the cells:
// Afford for each outcome (marking the refused ones Parked), the engine
// swap, then Charge for each survivor and Commit.
//
// Reports are collected without holding the controller's lock — ReportFunc
// is arbitrary client-side code and must be free to call back into the
// controller, and serving-path budget checks must not stall behind a
// population's re-obfuscation.
func (c *Controller) PlanRotation(staged *Staged, workers []string, report ReportFunc) (*Plan, error) {
	c.mu.Lock()
	if staged == nil {
		staged = c.staged
	} else if c.staged != staged {
		c.mu.Unlock()
		return nil, fmt.Errorf("epoch: rotation restaged while planning")
	}
	c.mu.Unlock()
	if staged == nil {
		return nil, ErrNotStaged
	}
	p := &Plan{
		Epoch:    staged.Epoch,
		Tree:     staged.Tree,
		Outcomes: make([]Outcome, len(workers)),
	}
	for i, w := range workers {
		code, err := report(w, p.Tree)
		if err != nil {
			return nil, fmt.Errorf("epoch: report for %q: %w", w, err)
		}
		if err := p.Tree.CheckCode(code); err != nil {
			return nil, fmt.Errorf("epoch: report for %q: %w", w, err)
		}
		p.Outcomes[i] = Outcome{Worker: w, Code: code}
	}
	if c.StagedRotation() != staged {
		return nil, fmt.Errorf("epoch: rotation restaged while planning %d", staged.Epoch)
	}
	return p, nil
}

// Commit advances the controller to the planned epoch. The serving layer
// calls it after (not before) its engine swap succeeded, so a failed swap
// leaves the controller still serving — and still able to re-plan — the
// old epoch. The refit history resets: each epoch refits from what the
// previous one observed.
func (c *Controller) Commit(p *Plan) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.staged == nil {
		return ErrNotStaged
	}
	if p.Epoch != c.staged.Epoch {
		return fmt.Errorf("epoch: commit of %d, staged is %d", p.Epoch, c.staged.Epoch)
	}
	c.epoch = p.Epoch
	c.tree = p.Tree
	c.staged = nil
	c.rotations++
	for i := range p.Outcomes {
		if !p.Outcomes[i].Parked {
			c.rotated++
		}
	}
	c.hist = make([]int, p.Tree.NumPoints())
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
